#include "stats/distinct_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "exec/agg_kernel.h"
#include "exec/group_hash_table.h"

namespace gbmqo {

namespace {

/// Row count of every group of `table` over `plan`'s columns, in
/// first-seen order. Keys are formed exactly as the executor forms them
/// (BlockKeyFiller), so counts match aggregation. The hash table is
/// presized for min(rows, key domain) groups (multi-word: > 2^64 keys).
std::vector<uint64_t> GroupSizes(const Table& table, const AggKernelPlan& plan) {
  const bool multi = plan.kernel == AggKernel::kMultiWord;
  uint64_t domain = multi || plan.total_bits >= 64 ? UINT64_MAX
                                                   : 1ull << plan.total_bits;
  if (plan.kernel == AggKernel::kDenseArray) domain = plan.dense_capacity;
  const uint64_t bound = std::min<uint64_t>(table.num_rows(), domain);
  GroupHashTable groups(multi ? plan.key_width : 1, bound + bound / 2);
  std::vector<uint64_t> sizes;
  BlockKeyFiller(plan).ForEachKey(table.num_rows(), [&](const uint64_t* key) {
    const uint32_t id = groups.FindOrInsert(key);
    if (id == sizes.size()) sizes.push_back(0);
    ++sizes[id];
  });
  return sizes;
}

}  // namespace

uint64_t ExactDistinctCount(const Table& table, ColumnSet columns) {
  if (columns.empty()) return table.num_rows() > 0 ? 1 : 0;
  const AggKernelPlan plan = PlanAggKernel(table, columns);
  if (plan.kernel != AggKernel::kDenseArray) {
    return GroupSizes(table, plan).size();
  }
  // Dense: one bit per slot of the mixed-radix domain, counted by popcount.
  std::vector<uint64_t> seen(plan.dense_capacity / 64);
  BlockKeyFiller(plan).ForEachKey(table.num_rows(), [&](const uint64_t* slot) {
    seen[*slot >> 6] |= 1ull << (*slot & 63);
  });
  uint64_t distinct = 0;
  for (uint64_t word : seen) distinct += std::popcount(word);
  return distinct;
}

uint64_t GeeEstimateFromSample(const Table& sample, ColumnSet columns,
                               uint64_t total_rows) {
  const uint64_t sample_size = sample.num_rows();
  if (sample_size == 0) return 0;
  if (columns.empty()) return total_rows > 0 ? 1 : 0;
  const std::vector<uint64_t> occurrences =
      GroupSizes(sample, PlanAggKernel(sample, columns));
  uint64_t f1 = 0, f2 = 0;
  for (uint64_t occ : occurrences) {
    if (occ == 1) ++f1;
    if (occ == 2) ++f2;
  }
  const double d_sample = static_cast<double>(occurrences.size());
  // GEE (Charikar et al.): sqrt-scale-up of the singletons. Worst-case
  // optimal, but it systematically *underestimates* near-unique columns —
  // which would trick the optimizer into materializing near-|R|
  // intermediates. Chao's estimator (d + f1^2 / 2 f2) is accurate exactly in
  // that low-skew, high-distinct regime, so we take the max of the two
  // (a simple member of the Haas et al. hybrid family the paper cites).
  const double scale = std::sqrt(static_cast<double>(total_rows) /
                                 static_cast<double>(sample_size));
  const double gee =
      scale * static_cast<double>(f1) + (d_sample - static_cast<double>(f1));
  double chao = d_sample;
  if (f2 > 0) {
    chao = d_sample + static_cast<double>(f1) * static_cast<double>(f1) /
                          (2.0 * static_cast<double>(f2));
  } else if (f1 == occurrences.size() && f1 > 0) {
    // Every sampled value unique and none repeated: the domain is at least
    // on the order of the relation; scale up linearly.
    chao = static_cast<double>(total_rows);
  }
  double estimate = std::max(gee, chao);
  // Clamp to the feasible range [d_sample, total_rows].
  if (estimate < d_sample) estimate = d_sample;
  if (estimate > static_cast<double>(total_rows)) {
    estimate = static_cast<double>(total_rows);
  }
  return static_cast<uint64_t>(estimate);
}

Result<TablePtr> BuildRowSample(const Table& table, uint64_t sample_size,
                                uint64_t seed) {
  TableBuilder builder(table.schema());
  const uint64_t n_rows = table.num_rows();
  if (n_rows > 0) {
    Rng rng(seed);
    for (uint64_t i = 0; i < sample_size; ++i) {
      const size_t row = rng.Uniform(n_rows);
      for (int c = 0; c < table.schema().num_columns(); ++c) {
        builder.column(c)->AppendFrom(table.column(c), row);
      }
    }
  }
  return builder.Build(table.name() + "_sample");
}

uint64_t SampledDistinctCount(const Table& table, ColumnSet columns,
                              uint64_t sample_size, uint64_t seed) {
  const uint64_t n_rows = table.num_rows();
  if (sample_size >= n_rows || columns.empty()) {
    return ExactDistinctCount(table, columns);
  }
  Result<TablePtr> sample = BuildRowSample(table, sample_size, seed);
  if (!sample.ok()) return ExactDistinctCount(table, columns);
  return GeeEstimateFromSample(**sample, columns, n_rows);
}

}  // namespace gbmqo

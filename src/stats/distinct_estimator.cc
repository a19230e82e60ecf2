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

constexpr size_t kBlockRows = BlockKeyFiller::kBlockRows;

/// Each row's group under `plan`, keyed exactly as the executor keys it
/// (BlockKeyFiller): its dense slot (*groups = dense_capacity), or its id
/// in first-seen order from a GroupHashTable presized for min(rows, key
/// domain) groups (*groups = the groups found; multi-word: > 2^64).
std::vector<uint32_t> GroupIds(const Table& table, const AggKernelPlan& plan,
                               size_t* groups) {
  const size_t rows = table.num_rows();
  std::vector<uint32_t> ids(rows);
  BlockKeyFiller filler(plan);
  if (plan.kernel == AggKernel::kDenseArray) {
    for (size_t begin = 0; begin < rows; begin += kBlockRows) {
      filler.FillDense(begin, std::min(kBlockRows, rows - begin), &ids[begin]);
    }
    *groups = plan.dense_capacity;
    return ids;
  }
  const uint64_t domain =
      plan.kernel == AggKernel::kMultiWord || plan.total_bits >= 64
          ? UINT64_MAX
          : 1ull << plan.total_bits;
  const uint64_t bound = std::min<uint64_t>(rows, domain);
  const size_t width = static_cast<size_t>(plan.key_width);
  GroupHashTable table_of_keys(plan.key_width, bound + bound / 2);
  std::vector<uint64_t> keys(kBlockRows * width);
  for (size_t begin = 0; begin < rows; begin += kBlockRows) {
    const size_t count = std::min(kBlockRows, rows - begin);
    filler.FillHashKeys(begin, count, keys.data());
    for (size_t i = 0; i < count; ++i) {
      ids[begin + i] = table_of_keys.FindOrInsert(&keys[i * width]);
    }
  }
  *groups = table_of_keys.size();
  return ids;
}

}  // namespace

ColumnDomains::ColumnDomains(const Table& table)
    : table_(table),
      ids_(static_cast<size_t>(table.schema().num_columns())),
      domains_(ids_.size()) {}

AggKernelPlan ColumnDomains::Plan(ColumnSet columns) {
  for (int c : columns.ToVector()) {
    if (domains_[c].ids != nullptr ||
        table_.column(c).CodeRange() < kDenseSlotBudget) {
      continue;
    }
    // Sparse column: number the executor's multi-word keys (code, NULL
    // flag) in first-seen order, so NULL is one more id.
    size_t radix = 0;
    ids_[c] = GroupIds(
        table_,
        PlanAggKernel(table_, ColumnSet::Single(c), AggKernel::kMultiWord),
        &radix);
    domains_[c] = {ids_[c].data(), static_cast<uint32_t>(radix)};
  }
  return PlanAggKernel(table_, columns, AggKernel::kDenseArray,
                       domains_.data(), kStatsSlotBudget);
}

uint64_t ExactDistinctCount(const Table& table, ColumnSet columns) {
  ColumnDomains domains(table);
  return ExactDistinctCount(domains, columns);
}

uint64_t ExactDistinctCount(ColumnDomains& domains, ColumnSet columns) {
  const Table& table = domains.table();
  if (columns.empty()) return table.num_rows() > 0 ? 1 : 0;
  const AggKernelPlan plan = domains.Plan(columns);
  // A lone compacted column: numbering it already counted it.
  if (plan.cols.size() == 1 && plan.cols[0].ids != nullptr) {
    return plan.cols[0].range + 1;
  }
  size_t groups = 0;
  const std::vector<uint32_t> ids = GroupIds(table, plan, &groups);
  if (plan.kernel != AggKernel::kDenseArray) return groups;
  // Dense: one bit per slot of the mixed-radix domain, counted by popcount.
  std::vector<uint64_t> seen(groups / 64);
  for (uint32_t slot : ids) seen[slot >> 6] |= 1ull << (slot & 63);
  uint64_t distinct = 0;
  for (uint64_t word : seen) distinct += std::popcount(word);
  return distinct;
}

uint64_t GeeEstimateFromSample(const Table& sample, ColumnSet columns,
                               uint64_t total_rows) {
  ColumnDomains domains(sample);
  return GeeEstimateFromSample(domains, columns, total_rows);
}

uint64_t GeeEstimateFromSample(ColumnDomains& sample_domains,
                               ColumnSet columns, uint64_t total_rows) {
  const Table& sample = sample_domains.table();
  const uint64_t sample_size = sample.num_rows();
  if (sample_size == 0) return 0;
  if (columns.empty()) return total_rows > 0 ? 1 : 0;
  // Rows per group (or dense slot), saturated at 3: f1, f2 and d are all
  // the estimators need.
  size_t groups = 0;
  const std::vector<uint32_t> ids =
      GroupIds(sample, sample_domains.Plan(columns), &groups);
  std::vector<uint8_t> sizes(groups);
  for (uint32_t id : ids) sizes[id] += sizes[id] < 3;
  uint64_t d = 0, f1 = 0, f2 = 0;
  for (uint8_t n : sizes) {
    d += n > 0;
    f1 += n == 1;
    f2 += n == 2;
  }
  const double d_sample = static_cast<double>(d);
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
  } else if (f1 == d && f1 > 0) {
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
    std::vector<size_t> rows(sample_size);
    for (size_t& row : rows) row = rng.Uniform(n_rows);
    for (int c = 0; c < table.schema().num_columns(); ++c) {
      builder.column(c)->AppendGather(table.column(c), rows);
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

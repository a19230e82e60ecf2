// Distinct-value estimation for column sets — the cardinality oracle behind
// both cost models (Section 3.2 of the paper assumes "known techniques for
// estimating number of distinct values such as [13] (Haas et al.)").
//
// Two modes:
//  * exact      — group all rows' keys (what a DBMS does when asked to
//                 CREATE STATISTICS ... WITH FULLSCAN);
//  * sampled    — scan a row sample and scale up with the GEE estimator
//                 (Charikar et al., in the Haas et al. family), the cheap
//                 path a commercial optimizer uses by default.
#ifndef GBMQO_STATS_DISTINCT_ESTIMATOR_H_
#define GBMQO_STATS_DISTINCT_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/column_set.h"
#include "common/status.h"
#include "exec/agg_kernel.h"
#include "storage/table.h"

namespace gbmqo {

/// How distinct counts are obtained.
enum class DistinctMode {
  kExact,    ///< full scan, exact
  kSampled,  ///< uniform row sample + GEE scale-up
};

/// Dense-rung slot budget of statistics. A count spends a bit (exact) or a
/// byte (GEE) per slot, not the executor's 4-byte tag; up to 2^22 slots,
/// clearing and scanning them measured cheaper than hashing 20,000 rows.
inline constexpr uint64_t kStatsSlotBudget = kDenseSlotBudget * 16;

/// Compacted code domains of one table's columns, the keys statistics count
/// on. A column whose code range alone reaches kDenseSlotBudget (DOUBLE bit
/// patterns, sparse INT64) gets a dense per-row id, built on first use: its
/// (code, NULL flag) keys numbered in first-seen order, so rows group by
/// bit pattern exactly as the executor groups them (-0.0 and +0.0, or two
/// NaN payloads, stay apart) and NULL is one more id. Other columns keep
/// code - min. Not thread-safe.
class ColumnDomains {
 public:
  explicit ColumnDomains(const Table& table);
  ColumnDomains(const ColumnDomains&) = delete;  // domains_ point into ids_
  ColumnDomains& operator=(const ColumnDomains&) = delete;

  /// The plan `columns` are counted with: PlanAggKernel over the domains
  /// (building missing ones) with a kStatsSlotBudget dense rung.
  AggKernelPlan Plan(ColumnSet columns);

  const Table& table() const { return table_; }

 private:
  const Table& table_;
  std::vector<std::vector<uint32_t>> ids_;  ///< per column; built lazily
  std::vector<ColumnDomain> domains_;       ///< per column; ids -> ids_
};

/// Exact number of distinct rows of `table` projected to `columns`
/// (NULL == NULL for grouping, matching the executor's semantics).
uint64_t ExactDistinctCount(const Table& table, ColumnSet columns);

/// The same over `domains.table()`, reusing its domains.
uint64_t ExactDistinctCount(ColumnDomains& domains, ColumnSet columns);

/// GEE estimate of the distinct count from a uniform sample of
/// `sample_size` rows (deterministic given `seed`).
///
///   d_hat = sqrt(N/n) * f1 + (d_sample - f1)
///
/// where f1 is the number of values seen exactly once in the sample. For
/// sample_size >= num_rows this degenerates to the exact count.
uint64_t SampledDistinctCount(const Table& table, ColumnSet columns,
                              uint64_t sample_size, uint64_t seed = 0x5EED);

/// Materializes a uniform row sample of `table` (with replacement,
/// deterministic given `seed`) as a compact table. A commercial optimizer
/// creates many statistics from ONE sample (the amortization Section 3.2.2
/// relies on); StatisticsManager does the same via this function.
Result<TablePtr> BuildRowSample(const Table& table, uint64_t sample_size,
                                uint64_t seed = 0x5EED);

/// GEE estimate over a pre-built sample (see BuildRowSample). `total_rows`
/// is the sampled table's full row count.
uint64_t GeeEstimateFromSample(const Table& sample, ColumnSet columns,
                               uint64_t total_rows);

/// The same over `sample_domains.table()`, reusing its domains.
uint64_t GeeEstimateFromSample(ColumnDomains& sample_domains,
                               ColumnSet columns, uint64_t total_rows);

}  // namespace gbmqo

#endif  // GBMQO_STATS_DISTINCT_ESTIMATOR_H_

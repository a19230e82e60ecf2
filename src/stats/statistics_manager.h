// StatisticsManager: the what-if statistics facility of Section 3.2.2.
//
// The optimizer cost model must price queries over *hypothetical* tables —
// group-by results that have not been materialized. A hypothetical node is
// fully described by (cardinality, row width), both derived from statistics
// over the base relation:
//
//   |GroupBy(R, v)| = distinct count of v over R, and since every node u in
//   a logical plan satisfies u ⊇ v for its descendants v, the distinct count
//   of v over u equals the distinct count of v over R — one set of base-
//   relation statistics prices every edge in the search.
//
// Statistics are created lazily per column set, and the creation time is
// metered: Experiment 6.7 reports statistics-creation overhead as a fraction
// of plan savings.
#ifndef GBMQO_STATS_STATISTICS_MANAGER_H_
#define GBMQO_STATS_STATISTICS_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/column_set.h"
#include "common/timer.h"
#include "stats/distinct_estimator.h"
#include "storage/table.h"

namespace gbmqo {

/// Cached statistics for one column set of the base relation.
struct ColumnSetStats {
  double distinct_count = 0;  ///< estimated |GROUP BY columns| over R
  double row_width = 0;       ///< bytes per row of the grouping columns
};

/// Lazily computes and caches per-column-set statistics over one table.
class StatisticsManager {
 public:
  /// `mode` selects exact or sampled distinct estimation; `sample_size`
  /// applies to sampled mode only.
  explicit StatisticsManager(const Table& table,
                             DistinctMode mode = DistinctMode::kExact,
                             uint64_t sample_size = 100000);

  /// Statistics for `columns`, creating them on first request. Thread-safe:
  /// concurrent serving sessions share one manager. The returned reference
  /// stays valid for the manager's lifetime (unordered_map element
  /// references survive rehashing).
  const ColumnSetStats& Get(ColumnSet columns);

  /// True if statistics on `columns` already exist (no side effects).
  bool Has(ColumnSet columns) const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.count(columns) > 0;
  }

  /// Number of statistics objects created so far.
  uint64_t statistics_created() const {
    std::lock_guard<std::mutex> lock(mu_);
    return statistics_created_;
  }
  /// Total wall-clock seconds spent creating statistics (Experiment 6.7).
  double creation_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return creation_seconds_;
  }

  const Table& table() const { return table_; }

 private:
  mutable std::mutex mu_;  ///< guards cache_, sample_, domains_, counters
  const Table& table_;
  DistinctMode mode_;
  uint64_t sample_size_;
  std::unordered_map<ColumnSet, ColumnSetStats, ColumnSetHash> cache_;
  /// Sampled mode builds ONE row sample and derives every statistic from it
  /// — the amortization the paper points out ("the optimizer can create
  /// multiple statistics from one sample"). Built lazily; its build time is
  /// included in creation_seconds_.
  TablePtr sample_;
  /// Compacted column domains of the source every count reads (the table
  /// in exact mode, sample_ in sampled mode), shared by all its statistics
  /// and built lazily, per column, on the first statistic needing one.
  std::unique_ptr<ColumnDomains> domains_;
  uint64_t statistics_created_ = 0;
  double creation_seconds_ = 0;
};

}  // namespace gbmqo

#endif  // GBMQO_STATS_STATISTICS_MANAGER_H_

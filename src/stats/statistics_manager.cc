#include "stats/statistics_manager.h"

namespace gbmqo {

StatisticsManager::StatisticsManager(const Table& table, DistinctMode mode,
                                     uint64_t sample_size)
    : table_(table), mode_(mode), sample_size_(sample_size) {}

const ColumnSetStats& StatisticsManager::Get(ColumnSet columns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(columns);
  if (it != cache_.end()) return it->second;

  WallTimer timer;
  ColumnSetStats stats;
  if (columns.empty()) {
    stats.distinct_count = table_.num_rows() > 0 ? 1 : 0;
    stats.row_width = 0;
  } else {
    if (domains_ == nullptr) {
      if (mode_ == DistinctMode::kSampled && sample_size_ < table_.num_rows()) {
        Result<TablePtr> sample = BuildRowSample(table_, sample_size_);
        if (sample.ok()) sample_ = *sample;
      }
      domains_ = std::make_unique<ColumnDomains>(
          sample_ != nullptr ? *sample_ : table_);
    }
    stats.distinct_count = static_cast<double>(
        sample_ != nullptr
            ? GeeEstimateFromSample(*domains_, columns, table_.num_rows())
            : ExactDistinctCount(*domains_, columns));
    stats.row_width = table_.AvgRowWidth(columns);
  }
  creation_seconds_ += timer.ElapsedSeconds();
  ++statistics_created_;
  return cache_.emplace(columns, stats).first->second;
}

}  // namespace gbmqo

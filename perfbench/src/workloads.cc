// The pieces every workload shares (workloads.h): thread budget, donor
// batches, restarts, the durability probe and the per-layer counter export.
#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "data/tpch_gen.h"

namespace perfbench {

using gbmqo::ColumnSet;
using gbmqo::ExecutionResult;
using gbmqo::GroupByRequest;
using gbmqo::Server;
using gbmqo::ServerOptions;
using gbmqo::ServerStats;
using gbmqo::TablePtr;
using gbmqo::Value;
using gbmqo::WorkCounters;

namespace fs = std::filesystem;

int ThreadBudget() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

TablePtr MakeDonor(uint64_t seed) {
  return gbmqo::GenerateLineitem({.rows = 8000, .seed = seed + 100});
}

std::vector<std::vector<Value>> DonorBatch(const gbmqo::Table& donor, size_t index) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(kBatchRows);
  for (size_t i = 0; i < kBatchRows; ++i) {
    rows.push_back(donor.Row((index * kBatchRows + i) % donor.num_rows()));
  }
  return rows;
}

ServerOptions BaseServerOptions(const std::string& dir, int threads, double cache_budget_bytes) {
  ServerOptions options;
  options.pool_size = std::max(1, threads);
  options.session.parallelism = 1;
  options.session.spill_directory = dir + "/spill";
  options.global_storage_budget_bytes = 4.0 * 1024 * 1024 * 1024;
  options.cache_budget_bytes = cache_budget_bytes;
  options.wal_directory = dir + "/wal";
  options.fsync_mode = gbmqo::FsyncMode::kBatch;
  options.checkpoint_interval_bytes = 0;
  options.recover_on_start = false;
  return options;
}

RestartResult TimeRestarts(const TablePtr& base, const ServerOptions& server_options,
                           uint64_t expected_version,
                           const std::vector<GroupByRequest>& requests, SpeedGauge* gauge,
                           ResponseChecker* checker, Report* report, std::mutex* mu,
                           Tracer* tracer) {
  ServerOptions options = server_options;
  options.recover_on_start = true;
  std::vector<double> times;
  RestartResult out;
  for (int i = 0; i < kRestarts; ++i) {
    Attempt(report, mu, "restart", [&] {
      gauge->Sample();
      Scope span(tracer, "restart");
      const double start = NowSeconds();
      std::unique_ptr<Server> server;
      {
        Scope s(tracer, "ServerStart", span.id());
        server = std::make_unique<Server>(base, options);
      }
      if (!server->recovery_status().ok()) return false;
      gbmqo::Result<ExecutionResult> answer = [&] {
        Scope s(tracer, "FirstQuery", span.id());
        return server->Execute(requests);
      }();
      if (!answer.ok()) return false;
      const double end = NowSeconds();
      gauge->Sample();
      times.push_back(gauge->Scale(end - start, start, end));
      const ServerStats stats = server->stats();
      out.records_applied = stats.recovery_records_applied;
      if (stats.base_version != expected_version || answer->base_version != expected_version) {
        report->Fail("recovered base_version " + std::to_string(stats.base_version) + ", " +
                     std::to_string(expected_version) + " batches acknowledged");
      }
      const std::string diff = checker->OnResponse(-1 - i, requests, *answer);
      if (!diff.empty()) report->Fail("after restart: " + diff);
      return true;
    });
  }
  out.recover_s = Median(times);
  return out;
}

std::vector<GroupByRequest> ProbeRequests() {
  return {GroupByRequest::Count(ColumnSet::Single(gbmqo::kReturnflag).With(gbmqo::kLinestatus)),
          GroupByRequest::Count(ColumnSet::Single(gbmqo::kShipmode))};
}

bool TimedAppend(Server* server, const std::vector<std::vector<Value>>& rows, SpeedGauge* gauge,
                 Tracer* tracer, std::vector<double>* latencies_ms,
                 std::vector<Server::IngestResult>* results) {
  gauge->Sample();
  Scope span(tracer, "AppendBatch");
  const double start = NowSeconds();
  auto result = server->AppendBatch(rows);
  if (!result.ok()) return false;
  const double end = NowSeconds();
  gauge->Sample();
  latencies_ms->push_back(gauge->Scale(end - start, start, end) * 1e3);
  results->push_back(*result);
  span.set_value(static_cast<double>(rows.size()));
  return true;
}

std::unique_ptr<RefTable> ReferenceInput(const gbmqo::Table& base, const gbmqo::Table& donor,
                                         size_t batches) {
  auto input = std::make_unique<RefTable>(base.schema().num_columns());
  AppendRows(base, input.get());
  for (size_t b = 0; b < batches; ++b) {
    for (const std::vector<Value>& row : DonorBatch(donor, b)) input->AppendRow(ToRefRow(row));
  }
  return input;
}

void VerifyAll(ResponseChecker* checker, const RefTable& input, Report* report) {
  std::string error;
  const int64_t checked = checker->VerifyAgainstReference(input, &error);
  if (checked < 0) report->Fail(error);
  report->tables_checked += std::max<int64_t>(checked, 0);
  report->answer_variants += checker->variants();
}

DurabilityProbe::DurabilityProbe(const Options& options, TablePtr base, SpeedGauge* gauge,
                                 Report* report, std::mutex* mu, Tracer* tracer)
    : base_(std::move(base)),
      donor_(MakeDonor(options.seed)),
      dir_(options.work_dir + "/probe"),
      server_options_(BaseServerOptions(dir_, 1, 256.0 * 1024 * 1024)),
      gauge_(gauge),
      report_(report),
      mu_(mu),
      tracer_(tracer),
      checker_(base_->schema(), base_->num_rows(), kBatchRows) {
  fs::remove_all(dir_);
  server_ = std::make_unique<Server>(base_, server_options_);
  const std::vector<GroupByRequest> requests = ProbeRequests();
  Attempt(report_, mu_, "query", [&] {
    auto answer = server_->Execute(requests);
    if (!answer.ok()) return false;
    const std::string diff = checker_.OnResponse(0, requests, *answer);
    if (!diff.empty()) report_->Fail("probe: " + diff);
    return true;
  });
}

DurabilityProbe::~DurabilityProbe() {
  server_.reset();
  fs::remove_all(dir_);
}

void DurabilityProbe::Append() {
  if (done()) return;
  const std::vector<std::vector<Value>> rows = DonorBatch(*donor_, next_batch_++);
  Attempt(report_, mu_, "append_batch",
          [&] { return TimedAppend(server_.get(), rows, gauge_, tracer_, &ingest_ms_, &batches_); });
  if (next_batch_ == kProbeBatches / 2) {
    Attempt(report_, mu_, "checkpoint", [&] {
      Scope span(tracer_, "Checkpoint");
      return server_->Checkpoint().ok();
    });
  }
}

void DurabilityProbe::Finish() {
  while (!done()) Append();
  const ServerStats stats = server_->stats();
  server_.reset();
  restart_ = TimeRestarts(base_, server_options_, batches_.size(), ProbeRequests(), gauge_,
                          &checker_, report_, mu_, tracer_);
  VerifyAll(&checker_, *ReferenceInput(*base_, *donor_, batches_.size()), report_);
  AddIngestLayers(batches_, stats, (kProbeBatches - kProbeBatches / 2) * kBatchRows, restart_,
                  report_);
}

void AddExecLayers(const WorkCounters& c, double sets, Report* report) {
  auto& L = report->layers;
  const auto put = [&](const char* name, double v, const char* unit) {
    L[name] = {v / std::max(sets, 1.0), std::string(unit) + "/set"};
  };
  put("exec.work_units", c.WorkUnits(), "wu");
  put("exec.rows_scanned", static_cast<double>(c.rows_scanned), "rows");
  put("exec.bytes_scanned", static_cast<double>(c.bytes_scanned), "bytes");
  put("exec.hash_probes", static_cast<double>(c.hash_probes), "count");
  put("exec.agg_cpu_units", c.agg_cpu_units, "wu");
  put("exec.bytes_materialized", static_cast<double>(c.bytes_materialized), "bytes");
  put("exec.dense_rows", static_cast<double>(c.dense_kernel_rows), "rows");
  put("exec.packed_rows", static_cast<double>(c.packed_kernel_rows), "rows");
  put("exec.multiword_rows", static_cast<double>(c.multiword_kernel_rows), "rows");
  put("exec.sort_rows", static_cast<double>(c.sort_kernel_rows), "rows");
  put("exec.tasks_retried", static_cast<double>(c.tasks_retried), "count");
  put("exec.tasks_degraded", static_cast<double>(c.tasks_degraded), "count");
}

void AddIngestLayers(const std::vector<Server::IngestResult>& batches, const ServerStats& stats,
                     uint64_t rows_since_checkpoint, const RestartResult& restart,
                     Report* report) {
  auto& L = report->layers;
  double refreshed = 0, recomputed = 0, dropped = 0, rollups = 0;
  for (const Server::IngestResult& b : batches) {
    refreshed += static_cast<double>(b.entries_refreshed);
    recomputed += static_cast<double>(b.entries_recomputed);
    dropped += static_cast<double>(b.entries_dropped);
    rollups += static_cast<double>(b.rollup_reuses);
  }
  const double n = std::max<double>(1.0, static_cast<double>(batches.size()));
  L["ingest.entries_refreshed"] = {refreshed / n, "count/batch"};
  L["ingest.entries_recomputed"] = {recomputed / n, "count/batch"};
  L["ingest.entries_dropped"] = {dropped / n, "count/batch"};
  L["ingest.rollup_reuses"] = {rollups / n, "count/batch"};
  L["wal.appends"] = {static_cast<double>(stats.wal_appends), "count"};
  L["wal.bytes_per_row"] = {static_cast<double>(stats.wal_bytes) /
                                std::max<double>(1.0, static_cast<double>(rows_since_checkpoint)),
                            "bytes/row"};
  L["recovery.records_applied"] = {static_cast<double>(restart.records_applied), "count"};
  L["cache.refreshes"] = {static_cast<double>(stats.cache.refreshes) / n, "count/batch"};
}

}  // namespace perfbench

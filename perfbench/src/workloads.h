// Pieces the workloads share: the thread budget, donor batches for ingest,
// the durability probe with its restart measurement, and the per-layer
// counter export.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/server.h"
#include "checks.h"
#include "harness.h"

namespace perfbench {

/// Set-up is repeated this many times per run and its median reported, so
/// work moved into set-up shows as a steady number.
constexpr int kSetupRepeats = 3;
/// Rows per AppendBatch, everywhere.
constexpr size_t kBatchRows = 400;
/// Restarts timed per run; recover_s is their median.
constexpr int kRestarts = 9;

/// Threads a workload may keep busy: the machine's cores, at most 4.
int ThreadBudget();

/// Batch `index` of `kBatchRows` rows cut cyclically from `donor`.
std::vector<std::vector<gbmqo::Value>> DonorBatch(const gbmqo::Table& donor, size_t index);

/// Donor relation for a workload's appends: lineitem rows from another seed.
gbmqo::TablePtr MakeDonor(uint64_t seed);

/// The request set the durability probe and every restart answer.
std::vector<gbmqo::GroupByRequest> ProbeRequests();

/// AppendBatch of `rows`, timed (scaled by `gauge`, sampled before and
/// after) into `latencies_ms` and `results`; false when the engine refused it.
bool TimedAppend(gbmqo::Server* server, const std::vector<std::vector<gbmqo::Value>>& rows,
                 SpeedGauge* gauge, Tracer* tracer, std::vector<double>* latencies_ms,
                 std::vector<gbmqo::Server::IngestResult>* results);

/// Wall time of a restart: a Server constructed on `server_options`'
/// WAL directory (recovering it), until `requests` is answered. Checks that
/// recovery reached `expected_version` and that the answer is right at that
/// version. Returns the median of kRestarts restarts, each scaled by `gauge`.
struct RestartResult {
  double recover_s = 0;
  uint64_t records_applied = 0;
};
RestartResult TimeRestarts(const gbmqo::TablePtr& base, const gbmqo::ServerOptions& server_options,
                           uint64_t expected_version,
                           const std::vector<gbmqo::GroupByRequest>& requests,
                           SpeedGauge* gauge, ResponseChecker* checker, Report* report,
                           std::mutex* mu, Tracer* tracer);

/// Reference input for a run on `base` that appends `batches` donor
/// batches: the base rows followed by every batch, in order.
std::unique_ptr<RefTable> ReferenceInput(const gbmqo::Table& base, const gbmqo::Table& donor,
                                         size_t batches);

/// Verifies every answer `checker` still holds against `input`, recording
/// the outcome in `report`.
void VerifyAll(ResponseChecker* checker, const RefTable& input, Report* report);

/// The ingest-and-restart measurement of every workload (no timed phase has
/// ingest in it): a fresh durable Server over `base`, outside the timed phase,
/// answers one request set, then takes kProbeBatches appends (Append, one
/// at a time, whenever the workload has a quiet moment) with an explicit
/// checkpoint after half of them, and Finish restarts it on its WAL
/// kRestarts times. Every answer is checked against the reference.
class DurabilityProbe {
 public:
  static constexpr size_t kProbeBatches = 24;

  DurabilityProbe(const Options& options, gbmqo::TablePtr base, SpeedGauge* gauge,
                  Report* report, std::mutex* mu, Tracer* tracer);
  DurabilityProbe(const DurabilityProbe&) = delete;
  DurabilityProbe& operator=(const DurabilityProbe&) = delete;
  ~DurabilityProbe();

  bool done() const { return next_batch_ == kProbeBatches; }
  /// Appends the next batch, timed.
  void Append();
  /// Appends what is left, restarts, verifies, and exports the ingest layers.
  void Finish();

  double ingest_p50_ms() const { return Median(ingest_ms_); }
  double recover_s() const { return restart_.recover_s; }

 private:
  gbmqo::TablePtr base_;
  gbmqo::TablePtr donor_;
  std::string dir_;
  gbmqo::ServerOptions server_options_;
  SpeedGauge* gauge_;
  Report* report_;
  std::mutex* mu_;
  Tracer* tracer_;
  ResponseChecker checker_;
  std::unique_ptr<gbmqo::Server> server_;
  size_t next_batch_ = 0;
  std::vector<double> ingest_ms_;
  std::vector<gbmqo::Server::IngestResult> batches_;
  RestartResult restart_;
};

/// Exports executor counters summed over `sets` request sets as exec.*
/// layer metrics per request set.
void AddExecLayers(const gbmqo::WorkCounters& counters, double sets, Report* report);
/// Exports the ingest, cache-refresh, WAL and recovery layers of the probe.
void AddIngestLayers(const std::vector<gbmqo::Server::IngestResult>& batches,
                     const gbmqo::ServerStats& stats, uint64_t rows_since_checkpoint,
                     const RestartResult& restart, Report* report);

/// The ServerOptions every serving workload starts from: `threads` workers
/// running one-threaded plans, WAL (fsync_mode=batch) and spill files under
/// `dir`, a governor, and no automatic checkpoints.
gbmqo::ServerOptions BaseServerOptions(const std::string& dir, int threads,
                                       double cache_budget_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

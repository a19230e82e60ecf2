// Shared plumbing of the benchmark workloads: options, the in-memory span
// recorder, timing helpers and the report every workload fills in.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space (WAL, spill, span file) in the checkout
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Rescales wall times to a fixed machine speed. The virtual machine the
/// benchmark runs on does not run at one speed: the same work takes 20-40%
/// longer in some minutes than in others, and every wall time follows. A
/// gauge times a yardstick -- a fixed, engine-independent pass of
/// hash-grouping and sorting a fixed array of keys -- between operations,
/// and scales each operation's wall time by kReferencePass over the
/// yardstick passes that bracket it. Speed-ups and slow-downs of the engine
/// stay in the scaled times; the machine's drift largely cancels.
class SpeedGauge {
 public:
  /// The yardstick pass time the scaled times are expressed at.
  static constexpr double kReferencePass = 2.5e-3;

  SpeedGauge();
  /// Times the yardstick now (the fastest of three passes) and records it.
  void Sample();
  /// Samples when `interval` seconds have passed since the last sample.
  void SampleEvery(double interval);
  /// Wall time `seconds`, measured between steady-clock times t0 and t1,
  /// at the reference speed: scaled by kReferencePass over the mean of the
  /// last sample taken at or before t0 and the first taken at or after t1.
  double Scale(double seconds, double t0, double t1) const;
  /// Median yardstick pass over all samples, in seconds.
  double median_pass() const;

 private:
  double Pass();

  std::vector<uint64_t> keys_;
  std::vector<uint64_t> sorted_;
  std::vector<uint64_t> slots_;
  uint64_t sink_ = 0;
  std::vector<std::pair<double, double>> samples_;  ///< (time taken, pass seconds)
};

/// Logs "<what> done at +<seconds since start>" on stderr, to show where a
/// run's wall time goes outside the timed phase.
void LogPhase(const char* what);

/// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb();

/// One recorded span. Times are seconds on the steady clock, relative to the
/// tracer's start.
struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< request id shared by one request's spans; 0 = none
  double value = 0;      ///< optional measurement attached to the span
};

/// Records spans in memory around the benchmark's calls into the engine and
/// writes them out once the run has ended. Disabled (every call a no-op
/// returning 0) unless the run is traced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(NowSeconds()) {}

  /// Opens a span; returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent = 0, uint64_t request = 0);
  /// Closes span `id`, attaching `value`.
  void End(uint64_t id, double value = 0);
  /// Writes every span as one JSON object per line; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; spans_[id - 1] has id `id`
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t parent = 0, uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~Scope() { tracer_->End(id_, value_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint64_t id() const { return id_; }
  void set_value(double v) { value_ = v; }

 private:
  Tracer* tracer_;
  uint64_t id_;
  double value_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What a workload hands back: end-to-end metrics (reported untraced),
/// per-layer counters (reported by the traced run), operation counts per
/// type, and the verdict of the output checks.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::map<std::string, OpCount> ops;
  bool correct = true;
  std::string error;  ///< first check failure, when !correct
  int64_t tables_checked = 0;
  uint64_t answer_variants = 0;  ///< repeats not bit-identical to the first answer

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Runs `op` as one attempt of operation type `type`, counting a failure
/// when it returns false.
template <typename Fn>
bool Attempt(Report* report, std::mutex* mu, const std::string& type, Fn&& op) {
  const bool ok = op();
  const std::lock_guard<std::mutex> lock(*mu);
  OpCount& c = report->ops[type];
  ++c.attempted;
  if (!ok) ++c.failed;
  return ok;
}

Report RunPaperBatch(const Options& options, Tracer* tracer);
Report RunServeRead(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

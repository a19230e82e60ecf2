// paper_batch: the paper's request sets (Tables 2 and 3), each optimized and
// executed cold on a fresh Session, round after round. Statistics creation,
// optimizer search and the executor do all the work; the aggregate cache,
// ingest and WAL do none.
#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/session.h"
#include "checks.h"
#include "core/gbmqo.h"
#include "data/nref_gen.h"
#include "data/sales_gen.h"
#include "data/tpch_gen.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gbmqo::ExecutionResult;
using gbmqo::GroupByRequest;
using gbmqo::OptimizerResult;
using gbmqo::Session;
using gbmqo::SessionOptions;
using gbmqo::TablePtr;
using gbmqo::WorkCounters;

/// The middle of `v`: its middle element, or the mean of its two middle
/// elements when it has an even size; 0 when empty.
double MidValue(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Rows of each of the three relations. Small enough that a round of all
/// four request sets takes well under a second, so a run holds enough
/// request sets for a p90 with ten samples beyond it.
constexpr size_t kRows = 20000;
/// Request-set latency percentile reported as query_tail_ms.
constexpr double kTailPercentile = 0.90;

struct Dataset {
  TablePtr table;
  std::unique_ptr<ResponseChecker> checker;
};

struct RequestSet {
  const char* name;
  int dataset;  ///< index into the datasets
  std::string spec;
};

std::string SingleSpec(const gbmqo::Table& table, const std::vector<int>& columns) {
  std::string spec = "SINGLE(";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) spec += ", ";
    spec += table.schema().column(columns[i]).name;
  }
  return spec + ")";
}

std::vector<RequestSet> PaperRequestSets(const std::vector<Dataset>& data) {
  return {
      {"lineitem_sc", 0, SingleSpec(*data[0].table, gbmqo::LineitemAnalysisColumns())},
      {"lineitem_cont", 0,
       "(l_shipdate), (l_commitdate), (l_receiptdate), (l_shipdate, l_commitdate), "
       "(l_shipdate, l_receiptdate), (l_commitdate, l_receiptdate)"},
      {"sales_sc", 1, SingleSpec(*data[1].table, gbmqo::SalesAllColumns())},
      {"nref_sc", 2, SingleSpec(*data[2].table, gbmqo::NrefAllColumns())},
  };
}

std::vector<Dataset> Generate(uint64_t seed) {
  std::vector<Dataset> data(3);
  data[0].table = gbmqo::GenerateLineitem({.rows = kRows, .seed = seed});
  data[1].table = gbmqo::GenerateSales({.rows = kRows, .seed = seed + 1});
  data[2].table = gbmqo::GenerateNref({.rows = kRows, .seed = seed + 2});
  for (Dataset& d : data) {
    d.checker = std::make_unique<ResponseChecker>(d.table->schema(), d.table->num_rows(), 0);
  }
  return data;
}

SessionOptions PaperSessionOptions() {
  SessionOptions options;
  // One thread: the set is timed on the thread the speed gauge measures.
  options.parallelism = 1;
  return options;
}

/// Sums over the request sets of one round.
struct RoundTotals {
  WorkCounters counters;
  double stats_seconds = 0, cost = 0, naive_cost = 0;
  uint64_t stats_created = 0, candidates_costed = 0, optimizer_calls = 0;
};

/// Everything one cold optimize-and-execute of a request set produced.
struct SetRun {
  bool ok = false;
  std::string error;
  double latency = 0;
  double stats_seconds = 0;
  uint64_t stats_created = 0;
  OptimizerResult opt;
  ExecutionResult exec;
  std::vector<GroupByRequest> requests;
};

/// One request set, cold: fresh Session, Parse, Optimize, ExecutePlan.
SetRun RunSet(const Dataset& data, const RequestSet& set, Tracer* tracer, uint64_t parent,
              uint64_t request_id) {
  SetRun run;
  const double start = NowSeconds();
  Scope span(tracer, "request_set", parent, request_id);
  std::unique_ptr<Session> session;
  {
    Scope s(tracer, "Session", span.id(), request_id);
    session = std::make_unique<Session>(data.table, PaperSessionOptions());
  }
  {
    Scope s(tracer, "Parse", span.id(), request_id);
    auto parsed = session->Parse(set.spec);
    if (!parsed.ok()) {
      run.error = parsed.status().ToString();
      return run;
    }
    run.requests = *std::move(parsed);
  }
  {
    Scope s(tracer, "Optimize", span.id(), request_id);
    auto opt = session->Optimize(run.requests);
    run.stats_seconds = session->stats()->creation_seconds();
    s.set_value(run.stats_seconds);
    if (!opt.ok()) {
      run.error = opt.status().ToString();
      return run;
    }
    run.opt = *std::move(opt);
  }
  {
    Scope s(tracer, "ExecutePlan", span.id(), request_id);
    auto exec = session->ExecutePlan(run.opt.plan, run.requests);
    if (!exec.ok()) {
      run.error = exec.status().ToString();
      return run;
    }
    run.exec = *std::move(exec);
  }
  run.stats_created = session->stats()->statistics_created();
  run.latency = NowSeconds() - start;
  run.ok = true;
  return run;
}

/// Work units of executing `plan` for `requests` on a fresh Session, with
/// its answers checked like any other response.
double BaselineWork(const Dataset& data, const gbmqo::LogicalPlan& plan,
                    const std::vector<GroupByRequest>& requests, Report* report,
                    std::mutex* mu, const char* op) {
  Session session(data.table, PaperSessionOptions());
  double work = 0;
  Attempt(report, mu, op, [&] {
    auto exec = session.ExecutePlan(plan, requests);
    if (!exec.ok()) return false;
    work = exec->counters.WorkUnits();
    const std::string diff = data.checker->OnResponse(0, requests, *exec);
    if (!diff.empty()) report->Fail(std::string(op) + ": " + diff);
    return true;
  });
  return work;
}

}  // namespace

Report RunPaperBatch(const Options& options, Tracer* tracer) {
  Report report;
  std::mutex mu;

  // Set-up: generate the three relations and run one untimed warm-up round
  // of cold sessions; repeated, and the median reported.
  SpeedGauge gauge;
  std::vector<Dataset> data;
  std::vector<double> setup_times;
  gauge.Sample();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double start = NowSeconds();
    data = Generate(options.seed);
    for (const RequestSet& set : PaperRequestSets(data)) {
      Tracer off(false);
      SetRun warm = RunSet(data[static_cast<size_t>(set.dataset)], set, &off, 0, 0);
      if (!warm.ok) report.Fail(std::string("warm-up ") + set.name + ": " + warm.error);
    }
    const double end = NowSeconds();
    gauge.Sample();
    setup_times.push_back(gauge.Scale(end - start, start, end));
  }
  const std::vector<RequestSet> sets = PaperRequestSets(data);
  LogPhase("set-up");

  // Ingest and restart on the lineitem relation: the probe's appends are
  // spread over the run, one after every third round, outside the rounds'
  // timing.
  DurabilityProbe probe(options, data[0].table, &gauge, &report, &mu, tracer);

  // Timed phase: whole rounds of the four request sets until the run length
  // has passed, with the speed gauge sampled between rounds. Latencies are
  // kept raw with their round's bounds and scaled once the run has ended.
  struct Round {
    double start = 0, end = 0;
    std::vector<double> latencies;
  };
  std::vector<Round> rounds;
  RoundTotals last;  // of the last round; every round does the same work
  uint64_t peak_temp_bytes = 0;
  std::vector<std::vector<GroupByRequest>> set_requests(sets.size());
  uint64_t next_request = 1;
  const double phase_start = NowSeconds();
  while (rounds.empty() || NowSeconds() - phase_start < options.seconds) {
    gauge.Sample();
    Scope round(tracer, "round");
    Round r;
    r.start = NowSeconds();
    RoundTotals totals;
    for (size_t s = 0; s < sets.size(); ++s) {
      const Dataset& d = data[static_cast<size_t>(sets[s].dataset)];
      SetRun run;
      Attempt(&report, &mu, "request_set", [&] {
        run = RunSet(d, sets[s], tracer, round.id(), next_request++);
        return run.ok;
      });
      if (!run.ok) continue;
      r.latencies.push_back(run.latency);
      // Checks, outside the timed request.
      const std::string diff = d.checker->OnResponse(0, run.requests, run.exec);
      if (!diff.empty()) report.Fail(std::string(sets[s].name) + ": " + diff);
      if (!(run.opt.cost <= run.opt.naive_cost)) {
        report.Fail(std::string(sets[s].name) + ": GB-MQO cost " + std::to_string(run.opt.cost) +
                    " above naive cost " + std::to_string(run.opt.naive_cost));
      }
      totals.counters += run.exec.counters;
      totals.stats_seconds += run.stats_seconds;
      totals.stats_created += run.stats_created;
      totals.cost += run.opt.cost;
      totals.naive_cost += run.opt.naive_cost;
      totals.candidates_costed += run.opt.stats.candidates_costed;
      totals.optimizer_calls += run.opt.stats.optimizer_calls;
      peak_temp_bytes = std::max(peak_temp_bytes, run.exec.peak_temp_bytes);
      set_requests[s] = run.requests;
    }
    r.end = NowSeconds();
    rounds.push_back(std::move(r));
    last = totals;
    if (rounds.size() % 3 == 0) probe.Append();
  }
  gauge.Sample();
  std::vector<double> latencies, raw_round_times, round_times, round_medians;
  for (const Round& r : rounds) {
    double raw = 0;
    std::vector<double> scaled;
    for (const double l : r.latencies) {
      raw += l;
      scaled.push_back(gauge.Scale(l, r.start, r.end));
    }
    latencies.insert(latencies.end(), scaled.begin(), scaled.end());
    raw_round_times.push_back(raw);
    round_times.push_back(gauge.Scale(raw, r.start, r.end));
    round_medians.push_back(MidValue(scaled));
  }
  report.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  LogPhase("timed phase");

  // Baselines for the work ratios, outside the timed phase: the naive plan
  // and the GROUPING SETS plan of every request set.
  double naive_work = 0, gs_work = 0;
  for (size_t s = 0; s < sets.size(); ++s) {
    const Dataset& d = data[static_cast<size_t>(sets[s].dataset)];
    if (set_requests[s].empty()) continue;
    naive_work += BaselineWork(d, gbmqo::NaivePlan(set_requests[s]), set_requests[s], &report,
                               &mu, "naive_plan");
    auto gs_plan = gbmqo::GroupingSetsPlanner().Plan(set_requests[s], d.table->schema());
    if (!gs_plan.ok()) {
      Attempt(&report, &mu, "gs_plan", [] { return false; });
      continue;
    }
    gs_work += BaselineWork(d, *gs_plan, set_requests[s], &report, &mu, "gs_plan");
  }
  LogPhase("baselines");

  // Reference answers for every first response.
  for (Dataset& d : data) {
    RefTable input(d.table->schema().num_columns());
    AppendRows(*d.table, &input);
    std::string error;
    const int64_t checked = d.checker->VerifyAgainstReference(input, &error);
    if (checked < 0) report.Fail(d.table->name() + ": " + error);
    report.tables_checked += std::max<int64_t>(checked, 0);
    report.answer_variants += d.checker->variants();
  }

  LogPhase("reference check");
  probe.Finish();
  LogPhase("durability probe");

  report.metrics["setup_s"] = {Median(setup_times), "s"};
  report.metrics["run_s"] = {Median(round_times), "s"};
  report.metrics["query_p50_ms"] = {Median(round_medians) * 1e3, "ms"};
  report.metrics["query_tail_ms"] = {Percentile(latencies, kTailPercentile) * 1e3, "ms"};
  report.metrics["ingest_p50_ms"] = {probe.ingest_p50_ms(), "ms"};
  report.metrics["recover_s"] = {probe.recover_s(), "s"};
  const double gbmqo_work = std::max(last.counters.WorkUnits(), 1.0);
  report.metrics["work_speedup_vs_naive"] = {naive_work / gbmqo_work, "ratio"};
  report.metrics["work_speedup_vs_gs"] = {gs_work / gbmqo_work, "ratio"};

  // Per-layer values: means per request set over one round.
  const double n = static_cast<double>(sets.size());
  auto& L = report.layers;
  L["stats.create_s"] = {last.stats_seconds / n, "s/set"};
  L["stats.created"] = {static_cast<double>(last.stats_created) / n, "count/set"};
  L["optimizer.candidates_costed"] = {static_cast<double>(last.candidates_costed) / n,
                                      "count/set"};
  L["optimizer.calls"] = {static_cast<double>(last.optimizer_calls) / n, "count/set"};
  L["optimizer.est_speedup_vs_naive"] = {last.naive_cost / std::max(last.cost, 1e-9), "ratio"};
  L["exec.peak_temp_bytes"] = {static_cast<double>(peak_temp_bytes), "bytes"};
  L["exec.naive_work_units"] = {naive_work / n, "wu/set"};
  L["exec.gs_work_units"] = {gs_work / n, "wu/set"};
  AddExecLayers(last.counters, n, &report);
  L["query.samples"] = {static_cast<double>(latencies.size()), "count"};
  L["timing.raw_run_s"] = {Median(raw_round_times), "s"};
  L["timing.yardstick_ms"] = {gauge.median_pass() * 1e3, "ms"};
  return report;
}

}  // namespace perfbench

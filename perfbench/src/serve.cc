// serve_read: closed-loop clients drawing request sets from a zipf-popular
// pool of lineitem grouping sets through a Server whose aggregate cache is
// smaller than the pool's working set.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "api/server.h"
#include "checks.h"
#include "data/tpch_gen.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

using gbmqo::AggKind;
using gbmqo::AggRequest;
using gbmqo::ColumnSet;
using gbmqo::ExecutionResult;
using gbmqo::GroupByRequest;
using gbmqo::Server;
using gbmqo::ServerOptions;
using gbmqo::ServerStats;
using gbmqo::TablePtr;
using gbmqo::WorkCounters;

namespace fs = std::filesystem;

namespace {

/// Grouping columns the pool draws from: low and mid cardinality, so result
/// tables stay far smaller than the relation.
constexpr int kPoolColumns[] = {
    gbmqo::kReturnflag, gbmqo::kLinestatus, gbmqo::kShipmode,   gbmqo::kShipinstruct,
    gbmqo::kLinenumber, gbmqo::kQuantity,   gbmqo::kDiscount,   gbmqo::kTax,
    gbmqo::kShipdate,   gbmqo::kCommitdate, gbmqo::kReceiptdate};
/// Aggregates a pool member may carry besides COUNT(*).
const AggRequest kExtraAggs[] = {{AggKind::kSum, gbmqo::kQuantity},
                                 {AggKind::kSum, gbmqo::kExtendedprice},
                                 {AggKind::kMin, gbmqo::kDiscount},
                                 {AggKind::kMax, gbmqo::kShipdate}};
/// The pool is part of the workload's definition, not of its seed: every
/// seed serves the same request sets (with different data and draws), so
/// runs on different seeds are comparable.
constexpr uint64_t kPoolSeed = 20050614;
constexpr size_t kPoolSize = 48;
constexpr double kZipfTheta = 0.9;
/// Requests per client per round; a run is whole rounds.
constexpr int kRoundQueries = 20;

/// Deterministic draws (std::mt19937_64's sequence is fixed by the standard;
/// the distributions of <random> are not, so they are not used).
struct Draw {
  explicit Draw(uint64_t seed) : rng(seed) {}
  size_t Below(size_t n) { return static_cast<size_t>(rng() % n); }
  double Unit() { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }
  std::mt19937_64 rng;
};

struct Pool {
  std::vector<std::vector<GroupByRequest>> sets;
  std::vector<double> cdf;  ///< zipf over set ranks

  size_t Pick(Draw* draw) const {
    const double u = draw->Unit();
    return static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()) %
           sets.size();
  }
};

/// Request sets of 1-4 members of 1-2 columns; some members are subsets of
/// earlier ones, and some carry a SUM, MIN or MAX besides COUNT(*).
Pool MakePool() {
  Draw draw(kPoolSeed);
  Pool pool;
  const size_t ncols = std::size(kPoolColumns);
  while (pool.sets.size() < kPoolSize) {
    const size_t members = 1 + draw.Below(4);
    std::vector<GroupByRequest> set;
    for (size_t m = 0; set.size() < members && m < 32; ++m) {
      ColumnSet cols;
      const GroupByRequest* pair = nullptr;
      for (const GroupByRequest& r : set) {
        if (r.columns.size() == 2) pair = &r;
      }
      if (pair != nullptr && draw.Unit() < 0.4) {
        cols = ColumnSet::Single(pair->columns.ToVector()[draw.Below(2)]);
      } else {
        cols = ColumnSet::Single(kPoolColumns[draw.Below(ncols)]);
        if (draw.Unit() < 0.5) cols = cols.With(kPoolColumns[draw.Below(ncols)]);
      }
      bool duplicate = false;
      for (const GroupByRequest& r : set) duplicate = duplicate || r.columns == cols;
      if (duplicate) continue;
      GroupByRequest req = GroupByRequest::Count(cols);
      if (draw.Unit() < 0.35) req.aggs.push_back(kExtraAggs[draw.Below(std::size(kExtraAggs))]);
      set.push_back(req);
    }
    pool.sets.push_back(set);
  }
  double total = 0;
  for (size_t i = 0; i < kPoolSize; ++i) total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
  double acc = 0;
  for (size_t i = 0; i < kPoolSize; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta) / total;
    pool.cdf.push_back(acc);
  }
  return pool;
}

/// What one client saw: every latency, and sums of what the server did.
/// Nothing is kept per query beyond its latency, so the benchmark's own
/// memory does not grow with the number of queries.
struct ClientResult {
  std::vector<double> latencies;  ///< Submit -> Get, per answered query, raw
  std::vector<uint32_t> rounds;   ///< the round of each latency
  WorkCounters counters;
  uint64_t peak_temp_bytes = 0;
};

/// Start and end (steady clock) of each round of the timed phase.
struct RoundBounds {
  std::vector<double> start, end;
};

/// A closed-loop client: submits one request set, waits for its answer,
/// checks it, and submits the next. After each round of kRoundQueries it
/// waits at `sync` for the other clients; it stops once `stop` is set.
template <typename Barrier>
ClientResult RunClient(int client, Server* server, const Pool& pool, uint64_t seed,
                       ResponseChecker* checker, Report* report, std::mutex* mu, Tracer* tracer,
                       std::atomic<uint64_t>* next_request, Barrier* sync,
                       const std::atomic<bool>* stop) {
  ClientResult out;
  Draw draw(seed * 1000003 + static_cast<uint64_t>(client));
  for (uint32_t round = 0;; ++round) {
    for (int q = 0; q < kRoundQueries; ++q) {
      const std::vector<GroupByRequest>& requests = pool.sets[pool.Pick(&draw)];
      const uint64_t rid = next_request->fetch_add(1);
      double latency = 0;
      gbmqo::Result<ExecutionResult> answer = gbmqo::Status::Internal("not run");
      Attempt(report, mu, "query", [&] {
        const uint64_t span = tracer->Begin("query", 0, rid);
        const double start = NowSeconds();
        Server::Ticket ticket;
        {
          Scope s(tracer, "Submit", span, rid);
          ticket = server->Submit(requests);
        }
        {
          Scope s(tracer, "Get", span, rid);
          answer = ticket.Get();
          if (answer.ok()) s.set_value(answer->wall_seconds);
        }
        latency = NowSeconds() - start;
        tracer->End(span);
        return answer.ok();
      });
      if (answer.ok()) {
        out.latencies.push_back(latency);
        out.rounds.push_back(round);
        out.counters += answer->counters;
        out.peak_temp_bytes = std::max(out.peak_temp_bytes, answer->peak_temp_bytes);
        const std::string diff = checker->OnResponse(client, requests, *answer);
        if (!diff.empty()) {
          const std::lock_guard<std::mutex> lock(*mu);
          report->Fail(diff);
        }
      }
    }
    sync->arrive_and_wait();
    if (stop->load()) break;
  }
  return out;
}

/// Folds the clients' records into the query metrics and exec/cache/api
/// layers; every time is scaled by `gauge` over its round.
void ReportQueries(const std::vector<ClientResult>& clients, const RoundBounds& bounds,
                   const SpeedGauge& gauge, double tail_percentile, const ServerStats& before,
                   const ServerStats& after, Report* report) {
  std::vector<double> latencies, rounds, raw_rounds;
  WorkCounters counters;
  uint64_t peak_temp = 0;
  for (const ClientResult& c : clients) {
    for (size_t i = 0; i < c.latencies.size(); ++i) {
      const uint32_t r = c.rounds[i];
      latencies.push_back(gauge.Scale(c.latencies[i], bounds.start[r], bounds.end[r]));
    }
    counters += c.counters;
    peak_temp = std::max(peak_temp, c.peak_temp_bytes);
  }
  for (size_t r = 0; r < bounds.end.size(); ++r) {
    const double wall = bounds.end[r] - bounds.start[r];
    raw_rounds.push_back(wall);
    rounds.push_back(gauge.Scale(wall, bounds.start[r], bounds.end[r]));
  }
  const double n = static_cast<double>(latencies.size());
  report->metrics["run_s"] = {Median(rounds), "s"};
  report->metrics["query_p50_ms"] = {Median(latencies) * 1e3, "ms"};
  report->metrics["query_tail_ms"] = {Percentile(latencies, tail_percentile) * 1e3, "ms"};
  auto& L = report->layers;
  AddExecLayers(counters, n, report);
  L["exec.peak_temp_bytes"] = {static_cast<double>(peak_temp), "bytes"};
  L["query.samples"] = {n, "count"};
  L["timing.raw_run_s"] = {Median(raw_rounds), "s"};
  L["timing.yardstick_ms"] = {gauge.median_pass() * 1e3, "ms"};
  const auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const double hits = delta(after.cache.hits, before.cache.hits);
  const double misses = delta(after.cache.misses, before.cache.misses);
  L["cache.hits"] = {hits / std::max(n, 1.0), "count/set"};
  L["cache.misses"] = {misses / std::max(n, 1.0), "count/set"};
  L["cache.hit_rate"] = {hits / std::max(hits + misses, 1.0), "ratio"};
  L["cache.evictions"] = {delta(after.cache.evictions, before.cache.evictions) / std::max(n, 1.0),
                          "count/set"};
  L["cache.admissions"] = {
      delta(after.cache.admissions, before.cache.admissions) / std::max(n, 1.0), "count/set"};
  L["cache.declined"] = {delta(after.cache.declined, before.cache.declined) / std::max(n, 1.0),
                         "count/set"};
  L["cache.pinned_mb"] = {static_cast<double>(after.cache.pinned_bytes) / (1024.0 * 1024.0), "MB"};
  L["api.requests_coalesced"] = {
      delta(after.requests_coalesced, before.requests_coalesced) / std::max(n, 1.0),
      "count/set"};
  L["governor.reserved_mb"] = {after.governor_reserved_bytes / (1024.0 * 1024.0), "MB"};
}

/// The paper's work ratios over the serving pool: every pool set optimized
/// and executed cold on a Session at base version 0 (no cache), against its
/// naive and GROUPING SETS plans, each weighted by its zipf probability.
/// Outputs are checked like the served answers; GB-MQO's estimated cost must
/// not exceed the naive plan's.
void ReportWorkRatios(const TablePtr& base, const Pool& pool, ResponseChecker* checker,
                      Report* report, std::mutex* mu) {
  double gbmqo = 0, naive = 0, gs = 0, cost = 0, naive_cost = 0;
  gbmqo::Session session(base);
  const auto run = [&](const char* op, const gbmqo::LogicalPlan& plan,
                       const std::vector<GroupByRequest>& requests, double weight, double* sum) {
    Attempt(report, mu, op, [&] {
      auto exec = session.ExecutePlan(plan, requests);
      if (!exec.ok()) return false;
      *sum += weight * exec->counters.WorkUnits();
      const std::string diff = checker->OnResponse(-100, requests, *exec);
      if (!diff.empty()) report->Fail(std::string(op) + ": " + diff);
      return true;
    });
  };
  for (size_t s = 0; s < pool.sets.size(); ++s) {
    const std::vector<GroupByRequest>& requests = pool.sets[s];
    const double weight = pool.cdf[s] - (s == 0 ? 0.0 : pool.cdf[s - 1]);
    auto opt = session.Optimize(requests);
    auto gs_plan = gbmqo::GroupingSetsPlanner().Plan(requests, base->schema());
    if (!opt.ok() || !gs_plan.ok()) {
      Attempt(report, mu, "optimize", [] { return false; });
      continue;
    }
    if (!(opt->cost <= opt->naive_cost)) {
      report->Fail("GB-MQO cost above naive cost for pool set " + std::to_string(s));
    }
    cost += weight * opt->cost;
    naive_cost += weight * opt->naive_cost;
    run("request_set", opt->plan, requests, weight, &gbmqo);
    run("naive_plan", gbmqo::NaivePlan(requests), requests, weight, &naive);
    run("gs_plan", *gs_plan, requests, weight, &gs);
  }
  report->metrics["work_speedup_vs_naive"] = {naive / std::max(gbmqo, 1.0), "ratio"};
  report->metrics["work_speedup_vs_gs"] = {gs / std::max(gbmqo, 1.0), "ratio"};
  report->layers["exec.naive_work_units"] = {naive, "wu/set"};
  report->layers["exec.gs_work_units"] = {gs, "wu/set"};
  report->layers["optimizer.est_speedup_vs_naive"] = {naive_cost / std::max(cost, 1e-9), "ratio"};
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the first `n` CPUs it is allowed to run on. False when the affinity could
/// not be read or set (the run then goes on unpinned).
bool PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int kept = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && kept < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++kept;
    }
  }
  return sched_setaffinity(0, sizeof(chosen), &chosen) == 0;
}

/// Submits every pool set once, in pool order, on one client: warms the
/// statistics and the cache before timing.
void WarmUp(Server* server, const Pool& pool, Report* report) {
  for (const std::vector<GroupByRequest>& set : pool.sets) {
    auto answer = server->Execute(set);
    if (!answer.ok()) report->Fail("warm-up: " + answer.status().ToString());
  }
}

}  // namespace

// serve_read: two closed-loop clients, cache budget below the pool's pinned
// working set, no ingest during the timed phase.
Report RunServeRead(const Options& options, Tracer* tracer) {
  constexpr size_t kRows = 50000;
  constexpr double kCacheBudget = 0.5 * 1024 * 1024;
  constexpr int kClients = 2;
  // p99, not p99.9: the ~30 samples beyond p99.9 in a 40 s run are queries
  // delayed by thread scheduling, and their median moved 33% between two
  // ten-seed sets while run_s moved 20%.
  constexpr double kTail = 0.99;
  // Clients and server workers share two CPUs. Every query hands work from
  // a client to a worker and back; spread over four virtual CPUs those
  // wake-ups made the median latency of whole runs swing 2-4x with the
  // host's load, while on two CPUs it stayed within about 10%.
  constexpr int kCpus = 2;
  Report report;
  std::mutex mu;
  if (!PinToCpus(kCpus)) std::fprintf(stderr, "[perfbench] CPU affinity not set\n");
  const Pool pool = MakePool();
  const std::string dir = options.work_dir + "/serve_read";
  const ServerOptions server_options =
      BaseServerOptions(dir, ThreadBudget() - kClients, kCacheBudget);

  SpeedGauge gauge;
  TablePtr base;
  std::unique_ptr<Server> server;
  std::vector<double> setup_times;
  gauge.Sample();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double start = NowSeconds();
    server.reset();
    fs::remove_all(dir);
    base = gbmqo::GenerateLineitem({.rows = kRows, .seed = options.seed});
    server = std::make_unique<Server>(base, server_options);
    WarmUp(server.get(), pool, &report);
    const double end = NowSeconds();
    gauge.Sample();
    setup_times.push_back(gauge.Scale(end - start, start, end));
  }
  report.metrics["setup_s"] = {Median(setup_times), "s"};
  LogPhase("set-up");

  ResponseChecker checker(base->schema(), base->num_rows(), kBatchRows);
  std::atomic<uint64_t> next_request{1};
  const ServerStats before = server->stats();
  // Rounds of kRoundQueries per client; between rounds, while the clients
  // wait at the barrier, the gauge is sampled every quarter second.
  RoundBounds bounds;
  std::atomic<bool> stop{false};
  gauge.Sample();
  const double phase_start = NowSeconds();
  bounds.start.push_back(phase_start);
  const auto on_round_end = [&]() noexcept {
    bounds.end.push_back(NowSeconds());
    if (bounds.end.back() - phase_start >= options.seconds) {
      stop = true;
      return;
    }
    gauge.SampleEvery(0.25);
    bounds.start.push_back(NowSeconds());
  };
  std::barrier sync(kClients, on_round_end);
  std::vector<ClientResult> clients(kClients);
  std::thread second([&] {
    clients[1] = RunClient(1, server.get(), pool, options.seed, &checker, &report, &mu, tracer,
                           &next_request, &sync, &stop);
  });
  clients[0] = RunClient(0, server.get(), pool, options.seed, &checker, &report, &mu, tracer,
                         &next_request, &sync, &stop);
  second.join();
  gauge.Sample();
  const ServerStats after = server->stats();
  report.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  LogPhase("timed phase");
  server.reset();
  fs::remove_all(dir);

  ReportQueries(clients, bounds, gauge, kTail, before, after, &report);
  ReportWorkRatios(base, pool, &checker, &report, &mu);
  LogPhase("work ratios");
  VerifyAll(&checker, *ReferenceInput(*base, *MakeDonor(options.seed), 0), &report);
  LogPhase("reference check");

  DurabilityProbe probe(options, base, &gauge, &report, &mu, tracer);
  probe.Finish();
  LogPhase("durability probe");
  report.metrics["ingest_p50_ms"] = {probe.ingest_p50_ms(), "ms"};
  report.metrics["recover_s"] = {probe.recover_s(), "s"};
  return report;
}

}  // namespace perfbench

#include "core/plan_executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/timer.h"
#include "core/aggregate_cache.h"
#include "core/storage_scheduler.h"
#include "exec/task_runner.h"
#include "storage/storage_governor.h"

namespace gbmqo {

namespace {

/// Resolves base-relation grouping columns to ordinals of `input` (temp
/// tables keep R's column names, so resolution is by name).
Result<ColumnSet> ResolveGroupingOver(const Table& input,
                                      const Schema& base_schema,
                                      ColumnSet base_cols) {
  ColumnSet out;
  for (int c : base_cols.ToVector()) {
    const int ord = input.schema().FindColumn(base_schema.column(c).name);
    if (ord < 0) {
      return Status::Internal("column '" + base_schema.column(c).name +
                              "' missing from " + input.name());
    }
    out = out.With(ord);
  }
  return out;
}

/// Translates an AggRequest into an executor AggregateSpec against
/// `input`. From the base relation the aggregate applies to the raw
/// column; from an intermediate it re-aggregates the carried column
/// (COUNT(*) -> SUM(cnt), SUM -> SUM(sum_x), MIN -> MIN(min_x), ...).
Result<AggregateSpec> ResolveAggOver(const Table& input, bool input_is_base,
                                     const Schema& base_schema,
                                     const AggRequest& agg) {
  const std::string out_name = AggOutputName(agg, base_schema);
  if (input_is_base) {
    switch (agg.kind) {
      case AggKind::kCountStar:
        return AggregateSpec::CountStar(out_name);
      case AggKind::kSum:
        return AggregateSpec::Sum(agg.column, out_name);
      case AggKind::kMin:
        return AggregateSpec::Min(agg.column, out_name);
      case AggKind::kMax:
        return AggregateSpec::Max(agg.column, out_name);
    }
    return Status::Internal("unknown aggregate kind");
  }
  const int ord = input.schema().FindColumn(out_name);
  if (ord < 0) {
    return Status::Internal("intermediate " + input.name() +
                            " does not carry aggregate column '" + out_name +
                            "'");
  }
  switch (agg.kind) {
    case AggKind::kCountStar:
    case AggKind::kSum:
      return AggregateSpec::Sum(ord, out_name);
    case AggKind::kMin:
      return AggregateSpec::Min(ord, out_name);
    case AggKind::kMax:
      return AggregateSpec::Max(ord, out_name);
  }
  return Status::Internal("unknown aggregate kind");
}

}  // namespace

Result<GroupByQuery> BuildGroupByOver(const Table& input, bool input_is_base,
                                      const Schema& base_schema,
                                      ColumnSet base_cols,
                                      const std::vector<AggRequest>& aggs) {
  Result<ColumnSet> grouping =
      ResolveGroupingOver(input, base_schema, base_cols);
  if (!grouping.ok()) return grouping.status();
  GroupByQuery query;
  query.grouping = *grouping;
  for (const AggRequest& agg : aggs) {
    Result<AggregateSpec> spec =
        ResolveAggOver(input, input_is_base, base_schema, agg);
    if (!spec.ok()) return spec.status();
    query.aggregates.push_back(std::move(spec).ValueOrDie());
  }
  return query;
}

namespace {

// ---- shared per-Execute environment ---------------------------------------

/// Immutable state shared by every task of one Execute call: the base
/// relation (for name mapping — temp tables keep R's column names) and the
/// execution knobs forwarded to each task's QueryExecutor.
struct ExecEnv {
  Catalog* catalog;
  TablePtr base;
  Schema base_schema;
  ScanMode scan_mode;
  std::optional<AggKernel> forced_kernel;
  bool force_scalar = false;
  /// Out-of-core aggregation knobs (governor already defaulted by Execute).
  SpillOptions spill;

  /// Builds the executor-level query `SELECT cols, aggs GROUP BY cols`
  /// against `input` (base or intermediate) — see BuildGroupByOver.
  Result<GroupByQuery> BuildQuery(const Table& input, ColumnSet base_cols,
                                  const std::vector<AggRequest>& aggs) const {
    return BuildGroupByOver(input, /*input_is_base=*/&input == base.get(),
                            base_schema, base_cols, aggs);
  }

  std::string TempNameFor(ColumnSet base_cols) const {
    std::string name = "tmp";
    for (int c : base_cols.ToVector()) {
      name += "_" + base_schema.column(c).name;
    }
    return catalog->NextTempName(name);
  }

  static std::string LeafNameFor(ColumnSet cols) {
    return "result" + cols.ToString();
  }
};

// ---- composite subtrees (CUBE / ROLLUP / multi-copy) ----------------------

/// Sequential fallback executor for one composite subtree: CUBE/ROLLUP
/// expansion and multi-copy nodes manage their own materializations, so the
/// DAG runs the whole subtree as one task. Intermediates are
/// reference-counted and dropped as soon as their last consumer has read
/// them (plain nested Group By nodes keep the recursive BF/DF sequencing).
class SubtreeRunner {
 public:
  SubtreeRunner(const ExecEnv& env, ExecContext* ctx, int parallelism,
                std::optional<AggKernel> forced_kernel,
                const SpillOptions& spill)
      : env_(env), ctx_(ctx), exec_(ctx, env.scan_mode, parallelism) {
    exec_.set_forced_kernel(forced_kernel);
    exec_.set_force_scalar(env.force_scalar);
    exec_.set_spill(spill);
  }

  Status RunSubPlan(const PlanNode& node, const TablePtr& parent) {
    GBMQO_RETURN_NOT_OK(ctx_->CheckCancelled());
    if (node.kind == NodeKind::kCube) return RunCube(node, parent);
    if (node.kind == NodeKind::kRollup) return RunRollup(node, parent);
    if (!node.agg_copies.empty()) return RunMultiCopy(node, parent);
    Result<TablePtr> table = Materialize(node, *parent);
    if (!table.ok()) return table.status();
    return Descend(node, *table);
  }

  std::map<ColumnSet, TablePtr>& results() { return results_; }

  /// Failure path: drops every temp this subtree registered and has not
  /// yet released, so an error (or exception) mid-subtree cannot strand
  /// intermediates in the Catalog. A completed subtree has already dropped
  /// all of them, making this a no-op on success.
  void DropRemainingTemps() {
    for (const std::string& name : registered_) {
      if (env_.catalog->Exists(name)) {
        const Status dropped = env_.catalog->Drop(name);
        (void)dropped;
      }
    }
  }

  /// RAII cleanup for one subtree run: calls DropRemainingTemps unless
  /// dismissed, covering both Status returns and exceptions thrown from
  /// inside a task (e.g. std::bad_alloc while growing a group table).
  class TempGuard {
   public:
    explicit TempGuard(SubtreeRunner* runner) : runner_(runner) {}
    ~TempGuard() {
      if (runner_ != nullptr) runner_->DropRemainingTemps();
    }
    void Dismiss() { runner_ = nullptr; }

    TempGuard(const TempGuard&) = delete;
    TempGuard& operator=(const TempGuard&) = delete;

   private:
    SubtreeRunner* runner_;
  };

 private:
  /// Fault site: temp-table registration. Keyed by the task's stable fault
  /// salt and the (sequential) registration ordinal, so injected decisions
  /// do not depend on scheduling.
  Status InjectRegisterFault() {
    if (GBMQO_INJECT_FAULT(
            FaultSite::kTempRegister,
            FaultKey(ctx_->fault_salt(), registered_.size()))) {
      return Status::ResourceExhausted(
          "injected temp-table registration failure");
    }
    return Status::OK();
  }
  Result<TablePtr> RunQuery(const Table& input, ColumnSet base_cols,
                            const std::vector<AggRequest>& aggs,
                            const std::string& output, AggStrategy strategy) {
    Result<GroupByQuery> query = env_.BuildQuery(input, base_cols, aggs);
    if (!query.ok()) return query.status();
    return exec_.ExecuteGroupBy(input, *query, output, strategy);
  }

  /// Registers an intermediate with `refs` pending consumers (Release drops
  /// it after the last one). An intermediate nobody consumes is registered
  /// and dropped right away — it still counts toward the measured peak
  /// while momentarily live, since it really was materialized.
  Status RegisterCounted(const TablePtr& table, int refs) {
    GBMQO_RETURN_NOT_OK(InjectRegisterFault());
    ctx_->counters().bytes_materialized += table->ByteSize();
    if (refs > 0) {
      registered_.push_back(table->name());
      return env_.catalog->RegisterTempWithRefs(table, refs);
    }
    GBMQO_RETURN_NOT_OK(env_.catalog->RegisterTemp(table));
    return env_.catalog->Drop(table->name());
  }

  Status Release(const TablePtr& table) {
    Result<bool> dropped = env_.catalog->ReleaseTempRef(table->name());
    if (!dropped.ok()) return dropped.status();
    return Status::OK();
  }

  /// Computes one plain plan node from its parent table: registers it as a
  /// temp table if it is materialized, and records it as a result if
  /// required.
  Result<TablePtr> Materialize(const PlanNode& node, const Table& parent) {
    if (node.kind != NodeKind::kGroupBy || !node.agg_copies.empty()) {
      return Status::Internal(
          "Materialize called on CUBE/ROLLUP/multi-copy node");
    }
    const std::string name = node.materialized()
                                 ? env_.TempNameFor(node.columns)
                                 : ExecEnv::LeafNameFor(node.columns);
    Result<TablePtr> table =
        RunQuery(parent, node.columns, node.aggs, name, node.strategy_hint);
    if (!table.ok()) return table.status();
    if (node.materialized()) {
      GBMQO_RETURN_NOT_OK(InjectRegisterFault());
      ctx_->counters().bytes_materialized += (*table)->ByteSize();
      registered_.push_back((*table)->name());
      GBMQO_RETURN_NOT_OK(env_.catalog->RegisterTemp(*table));
    }
    if (node.required) results_[node.columns] = *table;
    return table;
  }

  Status DropIfTemp(const PlanNode& node, const TablePtr& table) {
    if (node.materialized()) return env_.catalog->Drop(table->name());
    return Status::OK();
  }

  /// Section 7.2: one temp table per aggregate copy; each copy serves the
  /// children that read it and is dropped the moment the last of them has
  /// been computed (not at node end).
  Status RunMultiCopy(const PlanNode& node, const TablePtr& parent) {
    std::vector<int> copy_of(node.children.size(), -1);
    std::vector<int> serves(node.agg_copies.size(), 0);
    for (size_t i = 0; i < node.children.size(); ++i) {
      const int copy = node.CopyFor(node.children[i].aggs);
      if (copy < 0) {
        return Status::Internal("no copy serves child " +
                                node.children[i].columns.ToString());
      }
      copy_of[i] = copy;
      ++serves[static_cast<size_t>(copy)];
    }
    std::vector<TablePtr> copies;
    for (size_t c = 0; c < node.agg_copies.size(); ++c) {
      Result<TablePtr> t =
          RunQuery(*parent, node.columns, node.agg_copies[c],
                   env_.TempNameFor(node.columns), node.strategy_hint);
      if (!t.ok()) return t.status();
      GBMQO_RETURN_NOT_OK(RegisterCounted(*t, serves[c]));
      copies.push_back(*t);
    }
    for (size_t i = 0; i < node.children.size(); ++i) {
      const size_t copy = static_cast<size_t>(copy_of[i]);
      GBMQO_RETURN_NOT_OK(RunSubPlan(node.children[i], copies[copy]));
      GBMQO_RETURN_NOT_OK(Release(copies[copy]));
    }
    return Status::OK();
  }

  /// Processes `node`'s children per its BF/DF mark, then drops `node`'s
  /// temp table (Section 4.4.1 sequencing).
  Status Descend(const PlanNode& node, const TablePtr& table) {
    if (node.children.empty()) return Status::OK();
    if (node.mark == TraversalMark::kDepthFirst) {
      for (const PlanNode& child : node.children) {
        GBMQO_RETURN_NOT_OK(RunSubPlan(child, table));
      }
      return DropIfTemp(node, table);
    }
    // Breadth-first: compute every child, drop this node, then descend.
    std::vector<TablePtr> child_tables;
    for (const PlanNode& child : node.children) {
      if (child.kind != NodeKind::kGroupBy || !child.agg_copies.empty()) {
        // Mixed BF over CUBE/ROLLUP/multi-copy children degenerates to DF
        // for that child (it manages its own materializations).
        child_tables.push_back(nullptr);
        continue;
      }
      Result<TablePtr> t = Materialize(child, *table);
      if (!t.ok()) return t.status();
      child_tables.push_back(*t);
    }
    GBMQO_RETURN_NOT_OK(DropIfTemp(node, table));
    for (size_t i = 0; i < node.children.size(); ++i) {
      const PlanNode& child = node.children[i];
      if (child_tables[i] == nullptr) {
        GBMQO_RETURN_NOT_OK(RunSubPlan(child, table));
      } else {
        GBMQO_RETURN_NOT_OK(Descend(child, child_tables[i]));
      }
    }
    return Status::OK();
  }

  // ---- CUBE / ROLLUP expansion (Section 7.1) ------------------------------

  Status RunCube(const PlanNode& node, const TablePtr& parent) {
    // Bottom-up over the lattice: subsets in decreasing size; each proper
    // subset computed from (subset + lowest missing column), which was
    // produced earlier. Matches CostCube's spanning tree exactly. Every
    // lattice table is dropped once its last consumer subset has been
    // computed, so the live set tracks the spanning-tree frontier instead
    // of holding the whole lattice to the end.
    const uint64_t full = node.columns.mask();
    std::vector<uint64_t> subsets;
    uint64_t sub = full;
    while (true) {
      subsets.push_back(sub);
      if (sub == 0) break;
      sub = (sub - 1) & full;
    }
    std::sort(subsets.begin(), subsets.end(), [](uint64_t a, uint64_t b) {
      const int pa = std::popcount(a), pb = std::popcount(b);
      if (pa != pb) return pa > pb;
      return a < b;
    });

    std::map<uint64_t, int> consumers;
    for (uint64_t mask : subsets) {
      if (mask == full) continue;
      const ColumnSet s(mask);
      const ColumnSet sp = s.With(node.columns.Minus(s).ToVector().front());
      ++consumers[sp.mask()];
    }

    std::map<uint64_t, TablePtr> produced;
    for (uint64_t mask : subsets) {
      const ColumnSet s(mask);
      TablePtr source;
      if (mask == full) {
        source = parent;
      } else {
        const ColumnSet sp = s.With(node.columns.Minus(s).ToVector().front());
        source = produced.at(sp.mask());
      }
      Result<TablePtr> t = RunQuery(*source, s, node.aggs, env_.TempNameFor(s),
                                    AggStrategy::kAuto);
      if (!t.ok()) return t.status();
      const auto it = consumers.find(mask);
      GBMQO_RETURN_NOT_OK(
          RegisterCounted(*t, it == consumers.end() ? 0 : it->second));
      produced[mask] = *t;
      if (mask != full) GBMQO_RETURN_NOT_OK(Release(source));
    }
    for (const PlanNode& child : node.children) {
      if (child.required) {
        results_[child.columns] = produced.at(child.columns.mask());
      }
    }
    if (node.required) results_[node.columns] = produced.at(full);
    return Status::OK();
  }

  Status RunRollup(const PlanNode& node, const TablePtr& parent) {
    // Prefix chain: full set from the parent, then each level from the
    // previous one; the previous level is dropped as soon as the next has
    // been computed, so at most two adjacent levels are ever live — the
    // peak the scheduler's ExpandedBytes estimate accounts for.
    std::map<uint64_t, TablePtr> produced;
    const int levels = static_cast<int>(node.rollup_order.size());
    ColumnSet level = node.columns;
    Result<TablePtr> top = RunQuery(*parent, level, node.aggs,
                                    env_.TempNameFor(level), AggStrategy::kSort);
    if (!top.ok()) return top.status();
    GBMQO_RETURN_NOT_OK(RegisterCounted(*top, levels > 0 ? 1 : 0));
    produced[level.mask()] = *top;
    TablePtr prev = *top;
    for (int i = levels - 1; i >= 0; --i) {
      level = level.Without(node.rollup_order[static_cast<size_t>(i)]);
      Result<TablePtr> t = RunQuery(*prev, level, node.aggs,
                                    env_.TempNameFor(level), AggStrategy::kAuto);
      if (!t.ok()) return t.status();
      GBMQO_RETURN_NOT_OK(RegisterCounted(*t, i > 0 ? 1 : 0));
      produced[level.mask()] = *t;
      GBMQO_RETURN_NOT_OK(Release(prev));
      prev = *t;
    }
    if (node.required) {
      results_[node.columns] = produced.at(node.columns.mask());
    }
    for (const PlanNode& child : node.children) {
      auto it = produced.find(child.columns.mask());
      if (it == produced.end()) {
        return Status::Internal("rollup did not produce required prefix " +
                                child.columns.ToString());
      }
      if (child.required) results_[child.columns] = it->second;
    }
    return Status::OK();
  }

  const ExecEnv& env_;
  ExecContext* ctx_;
  QueryExecutor exec_;
  std::map<ColumnSet, TablePtr> results_;
  /// Names of every temp registered by this subtree, in registration order
  /// (the cleanup set for DropRemainingTemps; most are long dropped by the
  /// refcounted release path before the subtree completes).
  std::vector<std::string> registered_;
};

// ---- DAG construction -----------------------------------------------------

/// One schedulable unit of the plan DAG.
struct TaskSpec {
  enum class Kind {
    kQuery,      ///< one plain node computed from its parent table
    kFused,      ///< >= 2 sibling nodes via one shared scan of the parent
    kComposite,  ///< a CUBE/ROLLUP/multi-copy subtree (runs sequentially)
  };
  Kind kind = Kind::kQuery;
  const PlanNode* node = nullptr;       // kQuery / kComposite
  std::vector<const PlanNode*> fused;   // kFused members, in sibling order
  const PlanNode* input = nullptr;      // producing node; nullptr = base R
  /// Whether this task holds a consumer reference on its input table (BF
  /// composite children read the parent after its drop, as the recursion
  /// did, so they hold none).
  bool holds_input_ref = false;
  /// Estimated bytes this task's live output adds (admission reservation).
  double est_bytes = 0;
};

struct TaskGraph {
  std::vector<TaskSpec> tasks;
  std::vector<std::vector<int>> deps;  ///< predecessor ids per task
  /// Consumer-task count per materialized node — the temp-table refcount.
  std::unordered_map<const PlanNode*, int> consumers;
};

/// Flattens a LogicalPlan into a TaskGraph. The emission order is the
/// canonical schedule: it replicates the recursive executor's BF/DF
/// traversal (sub-plans in order, then children per their parent's mark),
/// every dependency points at a lower index, and RunTaskGraph dispatches
/// lowest-index-first — so one worker reproduces the recursive order
/// exactly and the BF/DF marks act as scheduling priorities under
/// parallelism.
class GraphBuilder {
 public:
  GraphBuilder(bool fusion, const Table* base,
               const std::unordered_map<const PlanNode*, double>* node_bytes)
      : fusion_(fusion), base_(base), node_bytes_(node_bytes) {}

  TaskGraph Build(const LogicalPlan& plan) {
    EmitLevel(nullptr, -1, TraversalMark::kDepthFirst, plan.subplans);
    return std::move(graph_);
  }

 private:
  static bool Composite(const PlanNode& n) {
    return n.kind != NodeKind::kGroupBy || !n.agg_copies.empty();
  }

  double EstOf(const PlanNode& n) const {
    if (node_bytes_ == nullptr) return 0;
    const auto it = node_bytes_->find(&n);
    return it == node_bytes_->end() ? 0 : it->second;
  }

  /// A child may join its siblings' shared scan iff it is a plain
  /// single-copy Group By that would hash-aggregate over the parent anyway:
  /// kSort hints (the GROUPING SETS baseline's shared-sort chains) and
  /// kAuto edges served by a covering base index keep their own pass, so
  /// fusion never changes what a query computes or which kernel runs it.
  bool Eligible(const PlanNode& child, bool parent_is_base) const {
    if (Composite(child)) return false;
    if (child.strategy_hint != AggStrategy::kAuto &&
        child.strategy_hint != AggStrategy::kHash) {
      return false;
    }
    if (parent_is_base && child.strategy_hint == AggStrategy::kAuto &&
        base_->FindCoveringIndex(child.columns) != nullptr) {
      return false;
    }
    return true;
  }

  int Emit(TaskSpec spec, int dep) {
    const int id = static_cast<int>(graph_.tasks.size());
    graph_.tasks.push_back(std::move(spec));
    graph_.deps.emplace_back();
    if (dep >= 0) graph_.deps.back().push_back(dep);
    return id;
  }

  /// Emits the tasks computing `children` from their common parent
  /// (`parent == nullptr` means the base relation, whose "children" are the
  /// sub-plan roots; `parent_task` is the task producing the parent table).
  void EmitLevel(const PlanNode* parent, int parent_task, TraversalMark mark,
                 const std::vector<PlanNode>& children) {
    if (children.empty()) return;
    std::vector<const PlanNode*> group;
    if (fusion_) {
      for (const PlanNode& c : children) {
        if (Eligible(c, parent == nullptr)) group.push_back(&c);
      }
      if (group.size() < 2) group.clear();  // one member shares nothing
    }
    int fused_task = -1;
    auto materialization = [&](const PlanNode& c, bool holds_ref) -> int {
      if (std::find(group.begin(), group.end(), &c) != group.end()) {
        if (fused_task < 0) {
          TaskSpec spec;
          spec.kind = TaskSpec::Kind::kFused;
          spec.fused = group;
          spec.input = parent;
          spec.holds_input_ref = holds_ref && parent != nullptr;
          for (const PlanNode* m : group) spec.est_bytes += EstOf(*m);
          fused_task = Emit(std::move(spec), parent_task);
        }
        return fused_task;
      }
      TaskSpec spec;
      spec.kind =
          Composite(c) ? TaskSpec::Kind::kComposite : TaskSpec::Kind::kQuery;
      spec.node = &c;
      spec.input = parent;
      spec.holds_input_ref = holds_ref && parent != nullptr;
      spec.est_bytes = EstOf(c);
      return Emit(std::move(spec), parent_task);
    };

    std::vector<int> mat(children.size(), -1);
    std::set<int> holders;
    if (mark == TraversalMark::kBreadthFirst) {
      // BF: every plain child materializes before anything descends; those
      // tasks are the parent's only consumers, so the parent drops exactly
      // where the recursion dropped it (composite children then read the
      // parent's data through the produced-table map, past the drop).
      for (size_t i = 0; i < children.size(); ++i) {
        if (!Composite(children[i])) {
          mat[i] = materialization(children[i], /*holds_ref=*/true);
          holders.insert(mat[i]);
        }
      }
      for (size_t i = 0; i < children.size(); ++i) {
        const PlanNode& c = children[i];
        if (Composite(c)) {
          mat[i] = materialization(c, /*holds_ref=*/false);
        } else {
          EmitLevel(&c, mat[i], c.mark, c.children);
        }
      }
    } else {
      // DF: one child chain at a time; every child task (composite ones
      // included) holds the parent until it finishes, as the recursion did.
      for (size_t i = 0; i < children.size(); ++i) {
        const PlanNode& c = children[i];
        mat[i] = materialization(c, /*holds_ref=*/true);
        holders.insert(mat[i]);
        if (!Composite(c)) EmitLevel(&c, mat[i], c.mark, c.children);
      }
    }
    if (parent != nullptr) {
      graph_.consumers[parent] = static_cast<int>(holders.size());
    }
  }

  bool fusion_;
  const Table* base_;
  const std::unordered_map<const PlanNode*, double>* node_bytes_;
  TaskGraph graph_;
};

// ---- DAG execution --------------------------------------------------------

/// Per-task committed state. Counters live per task and are folded in task
/// order afterwards, so totals are bit-identical across worker counts. Only
/// the *successful* attempt's context is committed here; failed attempts are
/// rolled back and discarded wholesale, so recovered runs keep clean
/// counters (plus the explicit tasks_retried / tasks_degraded attribution).
struct TaskState {
  ExecContext ctx;
  Status status;
  std::map<ColumnSet, TablePtr> results;
};

class DagRunner {
 public:
  DagRunner(const ExecEnv& env, const TaskGraph& graph,
            const std::unordered_map<const PlanNode*, double>* node_bytes,
            int total_parallelism, double budget, bool gated, int max_retries,
            double backoff_ms, const CancellationToken* cancel,
            AggregateCache* cache, StorageGovernor* governor)
      : env_(env),
        graph_(graph),
        node_bytes_(node_bytes),
        total_parallelism_(total_parallelism),
        budget_(budget),
        gated_(gated),
        max_retries_(max_retries),
        backoff_ms_(backoff_ms),
        cancel_(cancel),
        cache_(cache),
        governor_(governor),
        states_(graph.tasks.size()) {}

  Status Run(int workers) {
    std::function<bool(int, bool)> admit;
    if (gated_) {
      admit = [this](int id, bool forced) { return Admit(id, forced); };
    }
    try {
      RunTaskGraph(static_cast<int>(graph_.tasks.size()), graph_.deps, workers,
                   admit, [this](int id, int active) { RunTask(id, active); });
    } catch (const std::exception& e) {
      // Defensive: task bodies convert their own exceptions to Statuses, so
      // only scheduler-level failures (e.g. thread creation) land here.
      Cleanup();
      FlushGovernor();
      return Status::Internal(std::string("plan execution threw: ") + e.what());
    }
    for (const TaskState& st : states_) {
      if (!st.status.ok()) {
        Cleanup();
        FlushGovernor();
        return st.status;
      }
    }
    FlushGovernor();
    return Status::OK();
  }

  /// Canonical fold: results and counters merged in task-index order — the
  /// same order for any worker count — keeping totals (including the
  /// double-valued agg_cpu_units, where addition order matters)
  /// bit-identical no matter which worker ran which task.
  void FoldInto(ExecutionResult* out) {
    for (TaskState& st : states_) {
      for (auto& [cols, table] : st.results) {
        out->results.emplace(cols, std::move(table));
      }
      out->counters += st.ctx.counters();
    }
  }

 private:
  double EstOf(const PlanNode& n) const {
    if (node_bytes_ == nullptr) return 0;
    const auto it = node_bytes_->find(&n);
    return it == node_bytes_->end() ? 0 : it->second;
  }

  /// Admission gate, called under the scheduler lock: refuse a task while
  /// its reservation on top of the estimated live bytes would exceed the
  /// per-plan budget — or while the global governor (shared with concurrent
  /// plans and the aggregate cache) refuses the same reservation. Admitting
  /// commits the reservation to both books. Forced admissions (nothing
  /// running, everything refused) reserve too — unconditionally on the
  /// governor, so one starved plan cannot deadlock while the books stay
  /// balanced.
  bool Admit(int id, bool forced) {
    const double est = graph_.tasks[static_cast<size_t>(id)].est_bytes;
    std::lock_guard<std::mutex> lock(mu_);
    if (!forced && est > 0) {
      if (est_live_ + est > budget_) return false;
      if (governor_ != nullptr && !governor_->TryReserve(est)) return false;
    } else if (governor_ != nullptr && est > 0) {
      governor_->ForceReserve(est);
    }
    est_live_ += est;
    gov_outstanding_ += est;
    return true;
  }

  /// Mirrors an est_live_ decrement to the governor. Caller holds mu_.
  void GovReleaseLocked(double bytes) {
    if (governor_ == nullptr || bytes <= 0) return;
    const double r = std::min(bytes, gov_outstanding_);
    if (r > 0) {
      gov_outstanding_ -= r;
      governor_->Release(r);
    }
  }

  /// Returns whatever this Execute still holds on the governor — called on
  /// every Run exit so reservations are strictly per-plan-scoped (cache
  /// pins are charged by the cache itself and survive).
  void FlushGovernor() {
    std::lock_guard<std::mutex> lock(mu_);
    if (governor_ != nullptr && gov_outstanding_ > 0) {
      governor_->Release(gov_outstanding_);
    }
    gov_outstanding_ = 0;
  }

  /// One in-flight attempt at a task: a fresh ExecContext (salted for
  /// deterministic fault keys), the attempt's results, the nodes whose
  /// outputs it registered (the rollback set), and the reservation bytes
  /// handed to live temp tables. A failed attempt is rolled back and the
  /// whole object discarded; only a successful attempt is committed into
  /// the task's TaskState.
  /// A node answered from the aggregate cache during this attempt, with the
  /// consumer references the lookup took on the pinned table (rolled back
  /// if the attempt fails).
  struct ServedNode {
    const PlanNode* node = nullptr;
    TablePtr table;
    int refs = 0;
  };

  struct Attempt {
    ExecContext ctx;
    std::map<ColumnSet, TablePtr> results;
    std::vector<const PlanNode*> registered;
    std::vector<ServedNode> served;
    /// Tables not registered in the Catalog (required leaves, consumer-less
    /// materializations) offered to the cache at commit.
    std::vector<std::pair<const PlanNode*, TablePtr>> offers;
    double retained = 0;
  };

  void RunTask(int id, int active) {
    const TaskSpec& t = graph_.tasks[static_cast<size_t>(id)];
    TaskState& st = states_[static_cast<size_t>(id)];
    // Reservation bytes handed over to live temp tables (released when the
    // tables drop); the rest returns to the gate when the task ends.
    double retained = 0;
    if (!aborted_.load(std::memory_order_relaxed)) {
      // Intra-query parallelism takes the share of the budget not used by
      // concurrently running tasks; a lone task gets the whole budget.
      const int intra =
          std::max(1, total_parallelism_ / std::max(1, active));
      const Status s = RunWithRetries(id, t, &st, intra, &retained);
      if (!s.ok()) {
        st.status = s;
        aborted_.store(true, std::memory_order_relaxed);
      }
    }
    if (gated_ && t.est_bytes > retained) {
      std::lock_guard<std::mutex> lock(mu_);
      est_live_ -= t.est_bytes - retained;
      GovReleaseLocked(t.est_bytes - retained);
    }
  }

  /// The retry loop with the degradation ladder. Attempt 0 runs the planned
  /// shape; each re-attempt (up to max_retries_) first degrades the plan
  /// along GB-MQO equivalences before replaying:
  ///   - a failed fused task re-runs its members as independent per-query
  ///     passes over the same input (no shared scan);
  ///   - a failed task whose input is a temp table recomputes directly from
  ///     the base relation R (every node is derivable from R);
  ///   - a ResourceExhausted failure first retries with out-of-core
  ///     aggregation forced (when spill is configured) — results are
  ///     bit-identical, only RAM drops — and only if that still exhausts
  ///     resources serializes the task's intra-parallelism and forces the
  ///     low-footprint multi-word kernel.
  /// Cancellation / deadline failures are terminal: no retry, immediate
  /// unwind. Fault salts are FaultKey(task id, attempt), so injected
  /// decisions — and therefore tasks_retried / tasks_degraded — are pure
  /// functions of (plan, seed) independent of the worker count.
  Status RunWithRetries(int id, const TaskSpec& t, TaskState* st, int intra,
                        double* retained) {
    bool split_fused = false;
    bool from_base = false;
    bool memory_pressure = false;
    // Admission downgrade: a task whose own reservation exceeds the whole
    // storage budget could never be admitted un-forced; with spill
    // configured it runs out-of-core from the first attempt instead of
    // relying on the forced-admission overshoot.
    bool use_spill =
        gated_ && env_.spill.enabled() && t.est_bytes > budget_;
    Status last;
    for (int attempt = 0; attempt <= max_retries_; ++attempt) {
      if (attempt > 0 && backoff_ms_ > 0) {
        GBMQO_RETURN_NOT_OK(BackoffSleep(attempt));
      }
      Attempt a;
      a.ctx.set_cancellation(cancel_);
      a.ctx.set_fault_salt(FaultKey(static_cast<uint64_t>(id),
                                    static_cast<uint64_t>(attempt)));
      const int eff_intra = memory_pressure ? 1 : intra;
      const std::optional<AggKernel> kernel =
          memory_pressure ? std::optional<AggKernel>(AggKernel::kMultiWord)
                          : env_.forced_kernel;
      const Status s = RunAttempt(t, &a, eff_intra, split_fused, from_base,
                                  kernel, use_spill);
      if (s.ok()) {
        const bool degraded =
            split_fused || from_base || memory_pressure || use_spill;
        a.ctx.counters().tasks_retried += static_cast<uint64_t>(attempt);
        if (degraded) a.ctx.counters().tasks_degraded += 1;
        CommitAttempt(&a);
        st->ctx = std::move(a.ctx);
        st->results = std::move(a.results);
        *retained = a.retained;
        return ReleaseInput(t);
      }
      RollbackAttempt(&a);
      last = s;
      if (s.IsCancelled() || s.IsDeadlineExceeded()) return s;
      if (aborted_.load(std::memory_order_relaxed)) return s;
      // A corrupt spill record (surfaced when SpillOptions::recover_corrupt
      // is off) indicts the disk, not the plan shape: the next attempt gets
      // fresh spill files under a fresh fault salt, so replay the same
      // shape instead of walking a degradation rung.
      const bool corrupt_spill =
          s.IsInternal() &&
          s.message().find("spill: corrupt record") != std::string::npos;
      // Walk one rung down the ladder for the next attempt.
      if (!corrupt_spill) {
        if (t.kind == TaskSpec::Kind::kFused && !split_fused) {
          split_fused = true;
        } else if (t.input != nullptr && !from_base) {
          from_base = true;
        }
      }
      if (s.IsResourceExhausted()) {
        if (env_.spill.enabled() && !use_spill) {
          use_spill = true;
        } else {
          memory_pressure = true;
        }
      }
    }
    return last;
  }

  /// Sleeps attempt * backoff_ms_ before a re-attempt, staying responsive
  /// to cancellation: a full linear-backoff sleep used to run to completion
  /// even after the token fired, making Cancel() latency grow with the
  /// backoff knob. The wait is bounded by the remaining deadline (no point
  /// sleeping past it) and sliced so Cancel() from another thread unwinds
  /// within one slice.
  Status BackoffSleep(int attempt) const {
    GBMQO_RETURN_NOT_OK(cancel_ != nullptr ? cancel_->Check() : Status::OK());
    double wait_ms = attempt * backoff_ms_;
    if (cancel_ != nullptr) {
      if (const auto left = cancel_->RemainingMs(); left.has_value()) {
        wait_ms = std::min(wait_ms, *left);
      }
    }
    constexpr double kSliceMs = 5.0;
    while (wait_ms > 0) {
      const double slice = std::min(wait_ms, kSliceMs);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice));
      wait_ms -= slice;
      if (cancel_ != nullptr) GBMQO_RETURN_NOT_OK(cancel_->Check());
    }
    return Status::OK();
  }

  /// Runs one attempt body, converting every exception to a Status
  /// (std::bad_alloc — real or injected — maps to ResourceExhausted so the
  /// ladder engages its memory-pressure rung).
  Status RunAttempt(const TaskSpec& t, Attempt* a, int intra, bool split_fused,
                    bool from_base, std::optional<AggKernel> kernel,
                    bool use_spill) {
    GBMQO_RETURN_NOT_OK(a->ctx.CheckCancelled());
    if (GBMQO_INJECT_FAULT(FaultSite::kTaskStart, a->ctx.fault_salt())) {
      return Status::Internal("injected task-start failure");
    }
    try {
      switch (t.kind) {
        case TaskSpec::Kind::kQuery:
          return RunQueryTask(t, a, intra, from_base, kernel, use_spill);
        case TaskSpec::Kind::kFused:
          if (split_fused) {
            return RunFusedAsQueries(t, a, intra, from_base, kernel, use_spill);
          }
          return RunFusedTask(t, a, intra, from_base, kernel, use_spill);
        case TaskSpec::Kind::kComposite:
          return RunCompositeTask(t, a, intra, from_base, kernel, use_spill);
      }
    } catch (const std::bad_alloc&) {
      return Status::ResourceExhausted("allocation failure in plan task");
    } catch (const std::exception& e) {
      return Status::Internal(std::string("plan task threw: ") + e.what());
    }
    return Status::Internal("unknown task kind");
  }

  /// The attempt's effective spill configuration: the executor-level knobs
  /// with force OR-ed in when this attempt sits on the spill rung.
  SpillOptions EffectiveSpill(bool use_spill) const {
    SpillOptions s = env_.spill;
    s.force = s.force || use_spill;
    return s;
  }

  /// Commits a successful attempt's cache interactions, before the task is
  /// marked complete (so consumer tasks cannot start earlier): publishes
  /// cache-served materialized nodes into produced_ for their consumers,
  /// then offers everything this attempt materialized for admission.
  /// Admission failure is never a task failure — the offer is simply
  /// declined and life continues.
  void CommitAttempt(Attempt* a) {
    for (const ServedNode& s : a->served) {
      if (s.node->materialized()) {
        std::lock_guard<std::mutex> lock(mu_);
        produced_[s.node] = ProducedTable{s.table, 0, s.refs};
      }
    }
    if (cache_ == nullptr) return;
    for (const PlanNode* node : a->registered) {
      TablePtr table;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = produced_.find(node);
        if (it == produced_.end()) continue;
        table = it->second.table;
      }
      // Consumer-less materializations skipped Catalog registration and sit
      // in a->offers instead; only Catalog-registered tables go here.
      if (table == nullptr || !env_.catalog->Exists(table->name())) continue;
      cache_->AcceptPinned(node->columns, node->aggs, table,
                           /*registered=*/true);
    }
    for (const auto& [node, table] : a->offers) {
      cache_->AcceptPinned(node->columns, node->aggs, table,
                           /*registered=*/false);
    }
  }

  /// Undoes a failed attempt: drops every temp table the attempt registered,
  /// returns the consumer references its cache hits took, and forgets its
  /// produced_ entries, so the next attempt (or the DAG Cleanup) sees a
  /// clean slate. The admission-gate reservation stays with the task —
  /// RunTask returns it when the task finally ends.
  void RollbackAttempt(Attempt* a) {
    for (const PlanNode* node : a->registered) {
      TablePtr table;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = produced_.find(node);
        if (it != produced_.end()) {
          table = it->second.table;
          produced_.erase(it);
        }
      }
      if (table != nullptr && env_.catalog->Exists(table->name())) {
        const Status dropped = env_.catalog->Drop(table->name());
        (void)dropped;
      }
    }
    for (const ServedNode& s : a->served) {
      for (int i = 0; i < s.refs; ++i) {
        const Result<bool> released =
            env_.catalog->ReleaseTempRef(s.table->name());
        if (!released.ok()) break;
      }
    }
    a->registered.clear();
    a->served.clear();
    a->offers.clear();
    a->results.clear();
    a->retained = 0;
  }

  TablePtr InputTable(const TaskSpec& t) {
    if (t.input == nullptr) return env_.base;
    // The producer completed (dependency edge) before this task started,
    // and produced_ entries survive the catalog drop, so BF composite
    // children still see the data.
    std::lock_guard<std::mutex> lock(mu_);
    return produced_.at(t.input).table;
  }

  Status ReleaseInput(const TaskSpec& t) {
    if (!t.holds_input_ref || t.input == nullptr) return Status::OK();
    std::string name;
    double est = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ProducedTable& p = produced_.at(t.input);
      name = p.table->name();
      est = p.est_bytes;
      if (p.outstanding > 0) --p.outstanding;
    }
    Result<bool> dropped = env_.catalog->ReleaseTempRef(name);
    if (!dropped.ok()) return dropped.status();
    if (*dropped && gated_ && est > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      est_live_ -= est;
      GovReleaseLocked(est);
    }
    return Status::OK();
  }

  /// Registers a materialized node's output, hands the admission
  /// reservation over to the live table, and records it for consumer
  /// tasks and for attempt rollback. A node with no consumer tasks (every
  /// child a BF composite) is registered and dropped immediately, as the
  /// recursion did. Fault site: temp-table registration, keyed by the
  /// attempt's salt and the registration ordinal within the attempt.
  Status RegisterOutput(const PlanNode* node, const TablePtr& table,
                        Attempt* a) {
    if (GBMQO_INJECT_FAULT(
            FaultSite::kTempRegister,
            FaultKey(a->ctx.fault_salt(), a->registered.size()))) {
      return Status::ResourceExhausted(
          "injected temp-table registration failure");
    }
    a->ctx.counters().bytes_materialized += table->ByteSize();
    const double est = gated_ ? EstOf(*node) : 0;
    const auto it = graph_.consumers.find(node);
    const int refs = it == graph_.consumers.end() ? 0 : it->second;
    {
      std::lock_guard<std::mutex> lock(mu_);
      produced_[node] = ProducedTable{table, est, refs};
    }
    a->registered.push_back(node);
    if (refs > 0) {
      GBMQO_RETURN_NOT_OK(env_.catalog->RegisterTempWithRefs(table, refs));
      a->retained += est;
      return Status::OK();
    }
    if (cache_ != nullptr) {
      // Consumer-less output (every child a BF composite): instead of the
      // register-and-drop flicker, defer to commit and let the cache decide
      // whether to register-and-pin it.
      a->offers.emplace_back(node, table);
      return Status::OK();
    }
    // Register-and-drop so the momentarily-live bytes count toward the
    // measured peak. Under concurrent serving another plan may hold the
    // same deterministic leaf name; the accounting flicker is then skipped
    // rather than failing the task.
    const Status registered = env_.catalog->RegisterTemp(table);
    if (registered.IsAlreadyExists()) return Status::OK();
    GBMQO_RETURN_NOT_OK(registered);
    return env_.catalog->Drop(table->name());
  }

  /// Attempts to answer a plain node from the aggregate cache. On a hit the
  /// pinned table stands in for the node's output — consumer references are
  /// taken atomically with the lookup and the node is published to
  /// produced_ at commit — and the node's queries never run. Counts a miss
  /// only when a cache is attached.
  bool TryServeFromCache(const PlanNode& node, Attempt* a) {
    if (cache_ == nullptr) return false;
    int refs = 0;
    if (node.materialized()) {
      const auto it = graph_.consumers.find(&node);
      refs = it == graph_.consumers.end() ? 0 : it->second;
    }
    TablePtr table = cache_->Lookup(node.columns, node.aggs, refs);
    if (table == nullptr) {
      a->ctx.counters().cache_misses += 1;
      return false;
    }
    a->ctx.counters().cache_hits += 1;
    a->served.push_back(ServedNode{&node, table, refs});
    if (node.required) a->results[node.columns] = table;
    return true;
  }

  /// Computes one plain node from `input` (the planned parent table, or the
  /// base relation on the from-base rung — BuildQuery re-resolves the
  /// aggregates to their raw forms automatically in that case).
  Status RunNodeQuery(const PlanNode& node, const TablePtr& input, Attempt* a,
                      int intra, std::optional<AggKernel> kernel,
                      bool use_spill) {
    QueryExecutor exec(&a->ctx, env_.scan_mode, intra);
    exec.set_forced_kernel(kernel);
    exec.set_force_scalar(env_.force_scalar);
    exec.set_spill(EffectiveSpill(use_spill));
    const std::string name = node.materialized()
                                 ? env_.TempNameFor(node.columns)
                                 : ExecEnv::LeafNameFor(node.columns);
    Result<GroupByQuery> query =
        env_.BuildQuery(*input, node.columns, node.aggs);
    if (!query.ok()) return query.status();
    Result<TablePtr> table =
        exec.ExecuteGroupBy(*input, *query, name, node.strategy_hint);
    if (!table.ok()) return table.status();
    if (node.materialized()) {
      GBMQO_RETURN_NOT_OK(RegisterOutput(&node, *table, a));
    } else if (node.required && cache_ != nullptr) {
      a->offers.emplace_back(&node, *table);
    }
    if (node.required) a->results[node.columns] = *table;
    return Status::OK();
  }

  Status RunQueryTask(const TaskSpec& t, Attempt* a, int intra, bool from_base,
                      std::optional<AggKernel> kernel, bool use_spill) {
    if (TryServeFromCache(*t.node, a)) return Status::OK();
    const TablePtr input = from_base ? env_.base : InputTable(t);
    return RunNodeQuery(*t.node, input, a, intra, kernel, use_spill);
  }

  Status RunFusedTask(const TaskSpec& t, Attempt* a, int intra, bool from_base,
                      std::optional<AggKernel> kernel, bool use_spill) {
    // Cache-served members leave the shared scan; only the rest pay for a
    // pass over the input (none hit -> the planned scan, all hit -> none).
    std::vector<const PlanNode*> pending;
    pending.reserve(t.fused.size());
    for (const PlanNode* m : t.fused) {
      if (!TryServeFromCache(*m, a)) pending.push_back(m);
    }
    if (pending.empty()) return Status::OK();
    const TablePtr input = from_base ? env_.base : InputTable(t);
    QueryExecutor exec(&a->ctx, env_.scan_mode, intra);
    exec.set_forced_kernel(kernel);
    exec.set_force_scalar(env_.force_scalar);
    // Shared scans cannot spill; with a memory budget set the executor
    // meters them anyway and fails with ResourceExhausted on a trip, which
    // walks this task down the split_fused rung into spillable per-query
    // passes.
    exec.set_spill(EffectiveSpill(use_spill));
    std::vector<GroupByQuery> queries;
    std::vector<std::string> names;
    queries.reserve(pending.size());
    names.reserve(pending.size());
    for (const PlanNode* m : pending) {
      Result<GroupByQuery> q = env_.BuildQuery(*input, m->columns, m->aggs);
      if (!q.ok()) return q.status();
      queries.push_back(std::move(q).ValueOrDie());
      names.push_back(m->materialized() ? env_.TempNameFor(m->columns)
                                        : ExecEnv::LeafNameFor(m->columns));
    }
    Result<std::vector<TablePtr>> tables =
        exec.ExecuteSharedScan(*input, queries, names);
    if (!tables.ok()) return tables.status();
    for (size_t i = 0; i < pending.size(); ++i) {
      const PlanNode& m = *pending[i];
      const TablePtr& table = (*tables)[i];
      if (m.materialized()) {
        GBMQO_RETURN_NOT_OK(RegisterOutput(&m, table, a));
      } else if (m.required && cache_ != nullptr) {
        a->offers.emplace_back(&m, table);
      }
      if (m.required) a->results[m.columns] = table;
    }
    return Status::OK();
  }

  /// Degraded replay of a fused task: each member runs as an independent
  /// per-query pass over the input (one scan per member instead of the
  /// shared scan). Results are identical — fusion never changes what a
  /// query computes — only the scan counters differ.
  Status RunFusedAsQueries(const TaskSpec& t, Attempt* a, int intra,
                           bool from_base, std::optional<AggKernel> kernel,
                           bool use_spill) {
    const TablePtr input = from_base ? env_.base : InputTable(t);
    for (const PlanNode* m : t.fused) {
      GBMQO_RETURN_NOT_OK(a->ctx.CheckCancelled());
      if (TryServeFromCache(*m, a)) continue;
      GBMQO_RETURN_NOT_OK(RunNodeQuery(*m, input, a, intra, kernel, use_spill));
    }
    return Status::OK();
  }

  Status RunCompositeTask(const TaskSpec& t, Attempt* a, int intra,
                          bool from_base, std::optional<AggKernel> kernel,
                          bool use_spill) {
    const TablePtr input = from_base ? env_.base : InputTable(t);
    SubtreeRunner runner(env_, &a->ctx, intra, kernel,
                         EffectiveSpill(use_spill));
    // Drops any temps the subtree leaves behind on error or exception
    // unwind; a completed subtree has released all of them (no-op).
    SubtreeRunner::TempGuard guard(&runner);
    GBMQO_RETURN_NOT_OK(runner.RunSubPlan(*t.node, input));
    a->results = std::move(runner.results());
    return Status::OK();
  }

  /// Failure path: clean up produced temps whose consumers never ran.
  /// Without a cache this drops them outright (the seed behaviour). With a
  /// cache attached it releases exactly this plan's outstanding consumer
  /// references instead — a table the cache admitted keeps its pin and
  /// survives the failed plan; everything else drops on its last release.
  void Cleanup() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [node, p] : produced_) {
      if (p.table == nullptr) continue;
      if (cache_ != nullptr) {
        while (p.outstanding > 0) {
          const Result<bool> released =
              env_.catalog->ReleaseTempRef(p.table->name());
          --p.outstanding;
          if (!released.ok() || *released) break;
        }
        continue;
      }
      if (env_.catalog->Exists(p.table->name())) {
        const Status dropped = env_.catalog->Drop(p.table->name());
        (void)dropped;
      }
    }
  }

  struct ProducedTable {
    TablePtr table;
    double est_bytes = 0;
    /// Consumer references this plan still holds on the table (handed out
    /// at registration or taken by a cache hit; returned by ReleaseInput).
    int outstanding = 0;
  };

  const ExecEnv& env_;
  const TaskGraph& graph_;
  const std::unordered_map<const PlanNode*, double>* node_bytes_;
  const int total_parallelism_;
  const double budget_;
  const bool gated_;
  const int max_retries_;
  const double backoff_ms_;
  const CancellationToken* cancel_;
  AggregateCache* const cache_;
  StorageGovernor* const governor_;
  std::vector<TaskState> states_;
  std::atomic<bool> aborted_{false};
  std::mutex mu_;  // guards produced_, est_live_ and gov_outstanding_
  std::unordered_map<const PlanNode*, ProducedTable> produced_;
  double est_live_ = 0;
  /// Bytes this Execute currently holds reserved on the governor.
  double gov_outstanding_ = 0;
};

}  // namespace

Result<ExecutionResult> PlanExecutor::Execute(
    const LogicalPlan& plan, const std::vector<GroupByRequest>& requests) {
  if (cancel_ != nullptr) GBMQO_RETURN_NOT_OK(cancel_->Check());
  Result<TablePtr> base = catalog_->Get(base_table_);
  if (!base.ok()) return base.status();
  GBMQO_RETURN_NOT_OK(ValidateRequests(requests, (*base)->schema()));
  GBMQO_RETURN_NOT_OK(plan.Validate(requests));

  catalog_->ResetPeakTempBytes();
  WallTimer timer;

  const bool gated =
      whatif_ != nullptr &&
      (storage_budget_ < std::numeric_limits<double>::infinity() ||
       governor_ != nullptr);
  std::unordered_map<const PlanNode*, double> node_bytes;
  if (gated) node_bytes = PlanNodeStorage(plan, whatif_);

  SpillOptions spill = spill_;
  if (spill.governor == nullptr) spill.governor = governor_;
  ExecEnv env{catalog_,    *base,          (*base)->schema(),
              scan_mode_,  forced_kernel_, force_scalar_,
              spill};
  GraphBuilder builder(fusion_enabled_, base->get(),
                       gated ? &node_bytes : nullptr);
  const TaskGraph graph = builder.Build(plan);

  DagRunner runner(env, graph, gated ? &node_bytes : nullptr, parallelism_,
                   storage_budget_, gated, max_task_retries_, retry_backoff_ms_,
                   cancel_, cache_, governor_);
  const int workers =
      node_parallel_
          ? std::max(1, std::min(parallelism_,
                                 static_cast<int>(graph.tasks.size())))
          : 1;
  GBMQO_RETURN_NOT_OK(runner.Run(workers));

  ExecutionResult out;
  runner.FoldInto(&out);
  out.wall_seconds = timer.ElapsedSeconds();
  out.peak_temp_bytes = catalog_->peak_temp_bytes();
  out.simd_level = EffectiveSimdLevel(force_scalar_);
  return out;
}

}  // namespace gbmqo

"""Per-layer metrics of a traced run.

Counts come from the engine's own counters, which the workload process
reports under "layers". Times come from the spans the process recorded
around its calls into each layer and wrote to a JSON-lines file: one object
per span with name, start, end (seconds), id, parent id (0 = root), request
id and an optional value. This module reads the spans, computes each span's
self time (its duration minus the part of it that its children cover), and
derives the span-based metrics below. A per-layer metric that a workload
never exercises is reported as 0.

    python3 perfbench/trace_summary.py SPANS.jsonl   # self-time table only
"""

import json
import statistics
import sys


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_table(spans):
    """Span name -> (count, total duration s, total self time s)."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        count, total, own = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (count + 1, total + s["end"] - s["start"], own + selfs[s["id"]])
    return table


def median(values):
    return statistics.median(values) if values else 0.0


def span_metrics(spans):
    """The per-layer metrics that are times measured by spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    sets = len(by_name.get("request_set", []))
    queries = by_name.get("query", [])
    gets = {s["parent"]: s for s in by_name.get("Get", [])}
    out = {}

    # paper_batch: per request set, optimized and executed on a Session.
    if sets:
        opt = by_name.get("Optimize", [])
        out["optimizer.search_s"] = sum(dur(s) - s["value"] for s in opt) / sets
        out["exec.exec_s"] = sum(dur(s) for s in by_name.get("ExecutePlan", [])) / sets

    # Serving: per query, Submit -> Get as the client saw it.
    if queries:
        walls = {q["id"]: gets[q["id"]]["value"] for q in queries if q["id"] in gets}
        out["exec.exec_s"] = sum(walls.values()) / len(queries)
        out["api.handle_ms"] = median(list(walls.values())) * 1e3
        out["api.queue_ms"] = median([dur(q) - walls.get(q["id"], 0.0) for q in queries]) * 1e3

    checkpoints = by_name.get("Checkpoint", [])
    if checkpoints:
        out["checkpoint.write_ms"] = sum(dur(s) for s in checkpoints) / len(checkpoints) * 1e3
    return out


def per_layer(raw, declared):
    """Every declared per-layer metric of one traced run, as name -> {value, unit}.

    `raw` is the workload process's JSON output; `declared` is BENCHMARK.json's
    per_layer list. A name computed here but not declared is an error, so a
    misspelt counter cannot turn into a silent 0.
    """
    spans = load_spans(raw["spans"]) if raw.get("spans") else []
    values = {name: m["value"] for name, m in raw["layers"].items()}
    values.update(span_metrics(spans))
    if values.get("exec.exec_s"):
        values["exec.rows_per_s"] = values.get("exec.rows_scanned", 0.0) / values["exec.exec_s"]
    values["trace.run_s"] = raw["metrics"]["run_s"]["value"]
    values["trace.spans"] = len(spans)

    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise ValueError(f"per-layer metrics not declared in BENCHMARK.json: {unknown}")
    table = self_time_table(spans)
    print("span self times: name count total_s self_s", file=sys.stderr)
    for name, (count, total, own) in sorted(table.items()):
        print(f"  {name:<12} {count:>7} {total:>10.4f} {own:>10.4f}", file=sys.stderr)
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared}


if __name__ == "__main__":
    for name, (count, total, own) in sorted(self_time_table(load_spans(sys.argv[1])).items()):
        print(f"{name:<12} {count:>7} {total:>10.4f} {own:>10.4f}")

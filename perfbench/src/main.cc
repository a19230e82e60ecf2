// perfbench: the end-to-end benchmark of the GB-MQO engine. One process runs
// one workload for a fixed time and prints one JSON object on stdout; run.py
// builds this binary and turns that object into the benchmark's result line.
//
//   perfbench --workload paper_batch|serve_read --seed N
//             --seconds S --trace 0|1 --work-dir DIR
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

void PrintMetrics(const char* key, const std::map<std::string, Metric>& metrics) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  Tracer tracer(options.trace);
  Report report;
  if (options.workload == "paper_batch") {
    report = RunPaperBatch(options, &tracer);
  } else if (options.workload == "serve_read") {
    report = RunServeRead(options, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  std::string spans_path;
  if (options.trace) {
    spans_path = options.work_dir + "/spans.jsonl";
    if (!tracer.Write(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\":%s,\"error\":\"%s\",\"tables_checked\":%lld,"
              "\"answer_variants\":%llu,\"ops\":{",
              report.correct ? "true" : "false", JsonEscape(report.error).c_str(),
              static_cast<long long>(report.tables_checked),
              static_cast<unsigned long long>(report.answer_variants));
  bool first = true;
  for (const auto& [type, c] : report.ops) {
    std::printf("%s\"%s\":{\"attempted\":%llu,\"failed\":%llu}", first ? "" : ",",
                type.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    first = false;
  }
  std::printf("},");
  PrintMetrics("metrics", report.metrics);
  std::printf(",");
  PrintMetrics("layers", report.layers);
  std::printf(",\"spans\":\"%s\"}\n", JsonEscape(spans_path).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

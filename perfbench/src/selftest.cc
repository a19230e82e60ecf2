// Self-test of the benchmark's output checks:
//  1. the reference aggregator against answers written out by hand, on a
//     table holding two distinct keys that collide under a hash;
//  2. the response checks against a real engine answer, which must pass,
//     and the same answer with one cell changed, which must fail.
// Exits 0 when every case behaves, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "api/session.h"
#include "checks.h"
#include "data/tpch_gen.h"
#include "reference.h"
#include "storage/table.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Two distinct strings with the same std::hash would be ideal but are
/// platform-specific; "Aa" and "BB" collide under the classic 31-based
/// string hash (Java's String.hashCode), the bug class the oracle guards
/// against. The check is that they stay two groups.
void HandWrittenTable() {
  auto java_hash = [](const std::string& s) {
    int32_t h = 0;
    for (char c : s) h = static_cast<int32_t>(31u * static_cast<uint32_t>(h) + static_cast<uint32_t>(c));
    return h;
  };
  Expect(java_hash("Aa") == java_hash("BB"), "\"Aa\" and \"BB\" collide under the 31-based hash");

  // columns: key (string), n (int64), x (double)
  RefTable t(3);
  t.AppendRow({std::string("Aa"), int64_t{5}, 0.5});
  t.AppendRow({std::string("BB"), int64_t{-2}, 0.25});
  t.AppendRow({std::string("Aa"), int64_t{7}, 1.0});
  t.AppendRow({std::string("BB"), int64_t{3}, -0.75});
  t.AppendRow({std::string("Aa"), int64_t{5}, 2.0});

  RefAggregator agg({0}, {{RefAggKind::kCount, -1},
                          {RefAggKind::kSum, 1},
                          {RefAggKind::kMin, 1},
                          {RefAggKind::kMax, 1},
                          {RefAggKind::kSum, 2}});
  agg.Advance(t, 3);  // version with the first three rows
  const RefResult& r3 = agg.result();
  Expect(r3.size() == 2, "three rows: two groups");
  const RefGroup& aa3 = r3.at({std::string("Aa")});
  Expect(aa3.count == 2 && aa3.accs[1].int_sum == 12, "three rows: Aa count 2, SUM(n) 12");
  agg.Advance(t, 5);
  const RefResult& r = agg.result();
  Expect(r.size() == 2, "five rows: two groups, not merged");
  const RefGroup& aa = r.at({std::string("Aa")});
  const RefGroup& bb = r.at({std::string("BB")});
  Expect(aa.count == 3 && bb.count == 2, "COUNT: Aa 3, BB 2");
  Expect(aa.accs[1].int_sum == 17 && bb.accs[1].int_sum == 1, "SUM(n): Aa 17, BB 1");
  Expect(std::get<int64_t>(aa.accs[2].extreme) == 5 && std::get<int64_t>(bb.accs[2].extreme) == -2,
         "MIN(n): Aa 5, BB -2");
  Expect(std::get<int64_t>(aa.accs[3].extreme) == 7 && std::get<int64_t>(bb.accs[3].extreme) == 3,
         "MAX(n): Aa 7, BB 3");
  Expect(aa.accs[4].dbl_sum == 3.5L && bb.accs[4].dbl_sum == -0.5L, "SUM(x): Aa 3.5, BB -0.5");
  Expect(aa.accs[4].abs_sum == 3.5L && bb.accs[4].abs_sum == 1.0L, "sum |x|: Aa 3.5, BB 1.0");
  Expect(SumBound(3, 3.5L, 3.5L) < 1e-14L, "double SUM bound is tight for short sums");

  // Grouping on two columns keys on the whole tuple.
  RefAggregator pair({0, 1}, {{RefAggKind::kCount, -1}});
  pair.Advance(t, 5);
  Expect(pair.result().size() == 4, "(key, n): four groups");
  Expect(pair.result().at({std::string("Aa"), int64_t{5}}).count == 2, "(Aa, 5) counted twice");
}

/// Rewrites one cell of `table` through `edit` and returns the new table.
gbmqo::TablePtr WithCell(const gbmqo::Table& table, size_t row, int column,
                         const std::function<gbmqo::Value(const gbmqo::Value&)>& edit) {
  gbmqo::TableBuilder builder(table.schema());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<gbmqo::Value> values = table.Row(r);
    if (r == row) values[static_cast<size_t>(column)] = edit(values[static_cast<size_t>(column)]);
    if (!builder.AppendRow(values).ok()) return nullptr;
  }
  auto built = builder.Build(table.name());
  return built.ok() ? *built : nullptr;
}

void PerturbedResponse() {
  const gbmqo::TablePtr base = gbmqo::GenerateLineitem({.rows = 3000, .seed = 7});
  gbmqo::Session session(base);
  std::vector<gbmqo::GroupByRequest> requests = {
      gbmqo::GroupByRequest::Count(gbmqo::ColumnSet::Single(gbmqo::kShipmode)),
      gbmqo::GroupByRequest{gbmqo::ColumnSet::Single(gbmqo::kReturnflag).With(gbmqo::kLinestatus),
                            {{gbmqo::AggKind::kCountStar, -1},
                             {gbmqo::AggKind::kSum, gbmqo::kExtendedprice}}}};
  auto answer = session.Execute(requests);
  Expect(answer.ok(), "engine answers the request set");
  if (!answer.ok()) return;

  RefTable input(base->schema().num_columns());
  AppendRows(*base, &input);
  auto verify = [&](const gbmqo::ExecutionResult& result, std::string* error) {
    ResponseChecker checker(base->schema(), base->num_rows(), 0);
    const std::string arrival = checker.OnResponse(0, requests, result);
    if (!arrival.empty()) {
      *error = arrival;
      return false;
    }
    return checker.VerifyAgainstReference(input, error) == 2;
  };
  std::string error;
  const bool clean = verify(*answer, &error);
  Expect(clean, "engine answer passes the checks" + (error.empty() ? "" : ": " + error));

  const gbmqo::ColumnSet pair = requests[1].columns;
  const gbmqo::Table& table = *answer->results.at(pair);
  const int sum_col = table.schema().FindColumn("sum_l_extendedprice");
  const int cnt_col = table.schema().FindColumn("cnt");

  // One double SUM cell, moved by far more than the rounding bound.
  gbmqo::ExecutionResult bad_sum = *answer;
  bad_sum.results[pair] = WithCell(table, 0, sum_col, [](const gbmqo::Value& v) {
    return gbmqo::Value(v.dbl() + 0.01);
  });
  error.clear();
  const bool sum_passes = verify(bad_sum, &error);
  Expect(!sum_passes, "SUM cell + 0.01 is caught: " + error);

  // One COUNT cell moved from one group to another keeps the total.
  gbmqo::ExecutionResult bad_count = *answer;
  gbmqo::TablePtr moved = WithCell(table, 0, cnt_col, [](const gbmqo::Value& v) {
    return gbmqo::Value(v.int64() + 1);
  });
  moved = WithCell(*moved, 1, cnt_col, [](const gbmqo::Value& v) {
    return gbmqo::Value(v.int64() - 1);
  });
  bad_count.results[pair] = moved;
  error.clear();
  const bool count_passes = verify(bad_count, &error);
  Expect(!count_passes, "COUNT moved between groups is caught: " + error);

  // A repeat that differs from the first response is answered by the
  // reference too: caught when the difference is real, kept when it is a
  // double SUM folded in another order (one unit in the last place).
  {
    ResponseChecker checker(base->schema(), base->num_rows(), 0);
    Expect(checker.OnResponse(0, requests, *answer).empty(), "first response accepted");
    Expect(checker.OnResponse(0, requests, bad_sum).empty(), "differing repeat kept");
    error.clear();
    const int64_t checked = checker.VerifyAgainstReference(input, &error);
    Expect(checked < 0 && checker.variants() == 1, "differing repeat is caught: " + error);
  }
  {
    gbmqo::ExecutionResult ulp = *answer;
    ulp.results[pair] = WithCell(table, 0, sum_col, [](const gbmqo::Value& v) {
      return gbmqo::Value(std::nextafter(v.dbl(), 1e300));
    });
    ResponseChecker checker(base->schema(), base->num_rows(), 0);
    checker.OnResponse(0, requests, *answer);
    checker.OnResponse(0, requests, ulp);
    error.clear();
    const int64_t checked = checker.VerifyAgainstReference(input, &error);
    Expect(checked == 3 && checker.variants() == 1,
           "repeat one ulp off in a double SUM passes" + (error.empty() ? "" : ": " + error));
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::HandWrittenTable();
  perfbench::PerturbedResponse();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest passed" : "selftest FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}

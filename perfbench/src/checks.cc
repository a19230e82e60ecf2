#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <sstream>
#include <type_traits>

namespace perfbench {
namespace {

using gbmqo::AggKind;
using gbmqo::AggRequest;
using gbmqo::GroupByRequest;
using gbmqo::Table;
using gbmqo::Value;

std::string Describe(const std::vector<RefValue>& key) {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out << ", ";
    std::visit(
        [&out](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::monostate>) {
            out << "NULL";
          } else {
            out << v;
          }
        },
        key[i]);
  }
  out << ")";
  return out.str();
}

std::string Describe(long double v) {
  std::ostringstream out;
  out.precision(21);
  out << v;
  return out.str();
}

RefAggKind ToRefKind(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar: return RefAggKind::kCount;
    case AggKind::kSum: return RefAggKind::kSum;
    case AggKind::kMin: return RefAggKind::kMin;
    case AggKind::kMax: return RefAggKind::kMax;
  }
  return RefAggKind::kCount;
}

/// "" when the engine's aggregate value `got` matches the reference state.
std::string CompareAgg(const Value& got, const RefAgg& agg, const RefGroup& group,
                       const RefAccum& acc) {
  if (agg.kind != RefAggKind::kCount && !acc.seen) {
    return got.is_null() ? "" : "value where the reference has NULL";
  }
  if (got.is_null() || got.is_string()) return "non-numeric aggregate";
  const long double g = got.is_int64() ? static_cast<long double>(got.int64())
                                       : static_cast<long double>(got.dbl());
  long double want = 0;
  switch (agg.kind) {
    case RefAggKind::kCount:
      want = static_cast<long double>(group.count);
      break;
    case RefAggKind::kSum:
      if (!acc.double_sum) {
        want = static_cast<long double>(acc.int_sum);
        break;
      }
      want = acc.dbl_sum;
      if (std::fabs(g - want) > SumBound(group.count, acc.abs_sum, want)) {
        return "SUM " + Describe(g) + " vs reference " + Describe(want) +
               " beyond bound " + Describe(SumBound(group.count, acc.abs_sum, want));
      }
      return "";
    case RefAggKind::kMin:
    case RefAggKind::kMax:
      want = RefNumeric(acc.extreme);
      break;
  }
  if (g != want) return "got " + Describe(g) + ", reference " + Describe(want);
  return "";
}

void AppendCanonical(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back('N');
  } else if (v.is_int64()) {
    out->push_back('I');
    *out += std::to_string(v.int64());
  } else if (v.is_double()) {
    uint64_t bits = 0;
    const double d = v.dbl();
    std::memcpy(&bits, &d, sizeof(bits));
    out->push_back('D');
    *out += std::to_string(bits);
  } else {
    out->push_back('S');
    *out += std::to_string(v.str().size());
    out->push_back(':');
    *out += v.str();
  }
  out->push_back('|');
}

}  // namespace

std::vector<RefValue> ToRefRow(const std::vector<Value>& row) {
  std::vector<RefValue> out;
  out.reserve(row.size());
  for (const Value& v : row) {
    if (v.is_null()) {
      out.emplace_back(std::monostate{});
    } else if (v.is_int64()) {
      out.emplace_back(v.int64());
    } else if (v.is_double()) {
      out.emplace_back(v.dbl());
    } else {
      out.emplace_back(v.str());
    }
  }
  return out;
}

void AppendRows(const Table& table, RefTable* out) {
  for (size_t r = 0; r < table.num_rows(); ++r) out->AppendRow(ToRefRow(table.Row(r)));
}

std::string AggSignature(const std::vector<AggRequest>& aggs) {
  std::string sig;
  for (const AggRequest& a : aggs) {
    sig += std::to_string(static_cast<int>(a.kind)) + ":" + std::to_string(a.column) + ";";
  }
  return sig;
}

std::string CompareWithReference(const Table& got, const gbmqo::Schema& base_schema,
                                 const GroupByRequest& request, const RefResult& want) {
  const std::vector<int> cols = request.columns.ToVector();
  std::vector<int> key_pos;
  for (int c : cols) {
    const int pos = got.schema().FindColumn(base_schema.column(c).name);
    if (pos < 0) return "missing grouping column " + base_schema.column(c).name;
    key_pos.push_back(pos);
  }
  std::vector<int> agg_pos;
  std::vector<RefAgg> ref_aggs;
  for (const AggRequest& a : request.aggs) {
    const std::string name = gbmqo::AggOutputName(a, base_schema);
    const int pos = got.schema().FindColumn(name);
    if (pos < 0) return "missing aggregate column " + name;
    agg_pos.push_back(pos);
    ref_aggs.push_back(RefAgg{ToRefKind(a.kind), a.column});
  }
  if (got.num_rows() != want.size()) {
    return "group count " + std::to_string(got.num_rows()) + ", reference " +
           std::to_string(want.size());
  }
  std::map<std::vector<RefValue>, bool> seen;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    const std::vector<RefValue> row = ToRefRow(got.Row(r));
    std::vector<RefValue> key;
    for (int pos : key_pos) key.push_back(row[static_cast<size_t>(pos)]);
    const auto it = want.find(key);
    if (it == want.end()) return "group " + Describe(key) + " not in reference";
    if (seen[key]) return "group " + Describe(key) + " appears twice";
    seen[key] = true;
    for (size_t a = 0; a < ref_aggs.size(); ++a) {
      // The reference aggregator was built with the request's aggregate
      // list in the same order, so accs[a] belongs to request.aggs[a].
      const std::string diff = CompareAgg(got.column(agg_pos[a]).ValueAt(r), ref_aggs[a],
                                          it->second, it->second.accs[a]);
      if (!diff.empty()) {
        return "group " + Describe(key) + " " +
               gbmqo::AggOutputName(request.aggs[a], base_schema) + ": " + diff;
      }
    }
  }
  return "";
}

std::vector<std::string> CanonicalRows(const Table& table, const gbmqo::Schema& base_schema,
                                       const GroupByRequest& request) {
  std::vector<int> positions;
  for (int c : request.columns.ToVector()) {
    positions.push_back(table.schema().FindColumn(base_schema.column(c).name));
  }
  for (const AggRequest& a : request.aggs) {
    positions.push_back(table.schema().FindColumn(gbmqo::AggOutputName(a, base_schema)));
  }
  std::vector<std::string> rows(table.num_rows());
  for (int pos : positions) {
    if (pos < 0) return {"missing column"};
    const gbmqo::Column& col = table.column(pos);
    for (size_t r = 0; r < rows.size(); ++r) AppendCanonical(col.ValueAt(r), &rows[r]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string ResponseChecker::OnResponse(int client, const std::vector<GroupByRequest>& requests,
                                        const gbmqo::ExecutionResult& result) {
  const uint64_t version = result.base_version;
  if (result.results.size() != requests.size()) {
    return "expected " + std::to_string(requests.size()) + " result tables, got " +
           std::to_string(result.results.size());
  }
  struct Repeat {
    Key key;
    const GroupByRequest* request;
    gbmqo::TablePtr table;
  };
  std::vector<Repeat> repeats;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    uint64_t& last = client_version_[client];
    if (version < last) {
      return "base_version went back from " + std::to_string(last) + " to " +
             std::to_string(version);
    }
    last = version;
    for (const GroupByRequest& req : requests) {
      const auto found = result.results.find(req.columns);
      if (found == result.results.end() || found->second == nullptr) {
        return "no result table for " + req.columns.ToString();
      }
      const Key key{req.columns.mask(), AggSignature(req.aggs), version};
      auto [it, inserted] = first_.try_emplace(key, First{req, {found->second}, {{}}});
      const std::vector<gbmqo::TablePtr>& known = it->second.tables;
      if (!inserted && std::find(known.begin(), known.end(), found->second) == known.end()) {
        repeats.push_back({key, &req, found->second});
      }
    }
  }
  for (const GroupByRequest& req : requests) {
    const Table& table = *result.results.at(req.columns);
    const int pos = table.schema().FindColumn("cnt");
    if (pos < 0) return "no COUNT(*) column for " + req.columns.ToString();
    int64_t total = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) total += table.column(pos).Int64At(r);
    if (static_cast<uint64_t>(total) != RowsAt(version)) {
      return "COUNT(*) total " + std::to_string(total) + " for " + req.columns.ToString() +
             ", |R_v| = " + std::to_string(RowsAt(version));
    }
  }
  // A repeat must hold exactly the rows of an answer already kept for this
  // (request, version). One that differs — double SUMs folded in another
  // order by another plan — is kept as a further answer and checked against
  // the reference like the first.
  for (const Repeat& repeat : repeats) {
    std::vector<std::string> rows = CanonicalRows(*repeat.table, schema_, *repeat.request);
    const std::lock_guard<std::mutex> lock(mu_);
    First& first = first_.at(repeat.key);  // looked up again: the lock was released
    bool same = false;
    for (size_t i = 0; i < first.tables.size() && !same; ++i) {
      if (first.canonical[i].empty()) {
        first.canonical[i] = CanonicalRows(*first.tables[i], schema_, first.request);
      }
      same = first.canonical[i] == rows;
    }
    if (!same) {
      first.tables.push_back(repeat.table);
      first.canonical.push_back(std::move(rows));
      ++variants_;
    }
  }
  return "";
}

int64_t ResponseChecker::VerifyAgainstReference(const RefTable& input, std::string* error) {
  const std::lock_guard<std::mutex> lock(mu_);
  // first_ is ordered by (request, version), so each request's reference
  // advances through its versions in order, folding every input row once.
  std::map<std::pair<uint64_t, std::string>, RefAggregator> refs;
  int64_t checked = 0;
  for (const auto& [key, first] : first_) {
    const auto& [mask, aggs_sig, version] = key;
    const size_t rows = RowsAt(version);
    if (rows > input.num_rows()) {
      *error = "reference input holds " + std::to_string(input.num_rows()) +
               " rows, response needs " + std::to_string(rows);
      return -1;
    }
    std::vector<RefAgg> aggs;
    for (const AggRequest& a : first.request.aggs) {
      aggs.push_back(RefAgg{ToRefKind(a.kind), a.column});
    }
    RefAggregator& ref =
        refs.try_emplace({mask, aggs_sig}, first.request.columns.ToVector(), aggs).first->second;
    ref.Advance(input, rows);
    for (const gbmqo::TablePtr& table : first.tables) {
      const std::string diff = CompareWithReference(*table, schema_, first.request, ref.result());
      if (!diff.empty()) {
        *error = first.request.columns.ToString() + " at " + std::to_string(rows) +
                 " rows: " + diff;
        return -1;
      }
      ++checked;
    }
  }
  first_.clear();
  return checked;
}

}  // namespace perfbench

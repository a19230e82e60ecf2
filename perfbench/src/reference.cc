#include "reference.h"

#include <cmath>

namespace perfbench {

long double RefNumeric(const RefValue& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    return static_cast<long double>(*i);
  }
  return static_cast<long double>(std::get<double>(v));
}

void RefTable::AppendRow(const std::vector<RefValue>& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    col.kind.push_back(static_cast<uint8_t>(row[c].index()));
    col.ints.push_back(std::holds_alternative<int64_t>(row[c]) ? std::get<int64_t>(row[c]) : 0);
    if (std::holds_alternative<double>(row[c])) {
      col.doubles.resize(rows_ + 1);
      col.doubles[rows_] = std::get<double>(row[c]);
    }
    if (std::holds_alternative<std::string>(row[c])) {
      col.strings.resize(rows_ + 1);
      col.strings[rows_] = std::get<std::string>(row[c]);
    }
  }
  ++rows_;
}

RefValue RefTable::at(size_t row, int column) const {
  const Column& col = columns_[static_cast<size_t>(column)];
  switch (col.kind[row]) {
    case 1: return col.ints[row];
    case 2: return col.doubles[row];
    case 3: return col.strings[row];
    default: return std::monostate{};
  }
}

void RefAggregator::Advance(const RefTable& input, size_t end) {
  std::vector<RefValue> key(group_columns_.size());
  for (size_t row = rows_folded_; row < end; ++row) {
    for (size_t k = 0; k < group_columns_.size(); ++k) {
      key[k] = input.at(row, group_columns_[k]);
    }
    RefGroup& group = result_[key];
    if (group.accs.empty()) group.accs.resize(aggs_.size());
    ++group.count;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const RefAgg& agg = aggs_[a];
      if (agg.kind == RefAggKind::kCount) continue;
      const RefValue v = input.at(row, agg.column);
      if (std::holds_alternative<std::monostate>(v)) continue;
      RefAccum& acc = group.accs[a];
      switch (agg.kind) {
        case RefAggKind::kSum:
          if (const int64_t* i = std::get_if<int64_t>(&v)) {
            acc.int_sum += *i;
          } else {
            const long double x = std::get<double>(v);
            acc.dbl_sum += x;
            acc.abs_sum += std::fabs(x);
            acc.double_sum = true;
          }
          break;
        case RefAggKind::kMin:
          if (!acc.seen || RefNumeric(v) < RefNumeric(acc.extreme)) acc.extreme = v;
          break;
        case RefAggKind::kMax:
          if (!acc.seen || RefNumeric(v) > RefNumeric(acc.extreme)) acc.extreme = v;
          break;
        case RefAggKind::kCount:
          break;
      }
      acc.seen = true;
    }
  }
  if (end > rows_folded_) rows_folded_ = end;
}

long double SumBound(int64_t count, long double abs_sum, long double value) {
  const long double u = std::ldexp(1.0L, -53);
  const long double ulp = std::ldexp(1.0L, std::ilogb(std::fabs(value) + 1e-300L) - 52);
  return 2.0L * static_cast<long double>(count > 0 ? count - 1 : 0) * u * abs_sum +
         ulp;
}

}  // namespace perfbench

// Reference aggregator: an engine-independent, row-at-a-time Group By that
// every benchmark response is checked against.
//
// It shares no code with the engine. Input values are copied once into its
// own row store (RefTable), groups are keyed on the full tuple of grouping
// values in an ordered map (never on a hash), and every aggregate is
// accumulated exactly where exactness is possible:
//   COUNT(*)            int64, exact;
//   SUM over INT64      __int128, exact;
//   MIN / MAX           the input value itself, exact;
//   SUM over DOUBLE     long double, compared with the bound in SumBound().
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace perfbench {

/// One cell; std::monostate is NULL. NULLs form one group, like SQL's
/// GROUP BY, and are skipped by SUM, MIN and MAX.
using RefValue = std::variant<std::monostate, int64_t, double, std::string>;

/// Numeric view of an INT64 or DOUBLE cell (strings are never summed).
long double RefNumeric(const RefValue& v);

/// Column-major copy of an input relation, stored by type so a copy of a
/// relation costs about what the relation does. Rows are only ever
/// appended, so the relation at base version v is a prefix of the rows.
class RefTable {
 public:
  explicit RefTable(int num_columns) : columns_(static_cast<size_t>(num_columns)) {}

  void AppendRow(const std::vector<RefValue>& row);
  size_t num_rows() const { return rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  RefValue at(size_t row, int column) const;

 private:
  struct Column {
    std::vector<uint8_t> kind;  ///< RefValue index per row
    std::vector<int64_t> ints;  ///< per row; 0 unless kind is INT64
    std::vector<double> doubles;
    std::vector<std::string> strings;
  };
  std::vector<Column> columns_;
  size_t rows_ = 0;
};

enum class RefAggKind { kCount, kSum, kMin, kMax };

struct RefAgg {
  RefAggKind kind = RefAggKind::kCount;
  int column = -1;  ///< input ordinal; -1 for COUNT(*)
};

/// Accumulator of one aggregate in one group.
struct RefAccum {
  __int128 int_sum = 0;       ///< SUM over INT64 inputs
  long double dbl_sum = 0;    ///< SUM over DOUBLE inputs
  long double abs_sum = 0;    ///< sum of |x|, for the double SUM bound
  RefValue extreme;           ///< MIN / MAX; NULL until a value is seen
  bool seen = false;
  bool double_sum = false;    ///< SUM saw DOUBLE inputs (else INT64)
};

struct RefGroup {
  int64_t count = 0;
  std::vector<RefAccum> accs;  ///< parallel to the query's aggregates
};

/// Result of one Group By: full grouping tuple (in ascending column order)
/// -> group state.
using RefResult = std::map<std::vector<RefValue>, RefGroup>;

/// A Group By over a growing RefTable: Advance(n) folds rows up to n, so the
/// answer at each base version is produced by one pass over the rows.
class RefAggregator {
 public:
  RefAggregator(std::vector<int> group_columns, std::vector<RefAgg> aggs)
      : group_columns_(std::move(group_columns)), aggs_(std::move(aggs)) {}

  /// Folds rows [rows_folded(), end) of `input`, one row at a time.
  void Advance(const RefTable& input, size_t end);
  size_t rows_folded() const { return rows_folded_; }
  const RefResult& result() const { return result_; }
  const std::vector<int>& group_columns() const { return group_columns_; }
  const std::vector<RefAgg>& aggs() const { return aggs_; }

 private:
  std::vector<int> group_columns_;
  std::vector<RefAgg> aggs_;
  RefResult result_;
  size_t rows_folded_ = 0;
};

/// Largest error a double-precision sum of `count` terms whose absolute
/// values add up to `abs_sum` can carry, in any summation order or
/// partitioning: (count - 1) * u * abs_sum with u = 2^-53 (Higham, Accuracy
/// and Stability of Numerical Algorithms, eq. 4.4), doubled to cover the
/// long double reference's own rounding, plus one unit in the last place.
long double SumBound(int64_t count, long double abs_sum, long double value);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

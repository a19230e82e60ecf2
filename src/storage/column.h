// Column: typed, append-only columnar storage with a null bitmap.
//
// Group-by execution works on *group codes*: every column exposes a 64-bit
// code per row such that two non-null rows have equal codes iff their values
// are equal. For INT64/DOUBLE the code is the bit pattern; for STRING it is
// a dictionary code (strings are interned on append). NULLs are tracked in a
// separate bitmap and folded into group keys by the executor.
#ifndef GBMQO_STORAGE_COLUMN_H_
#define GBMQO_STORAGE_COLUMN_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/value.h"

namespace gbmqo {

/// One column of a table. Owned by Table via shared_ptr so projected /
/// derived tables can share storage without copying.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return rows_; }

  // ---- Append interface (used by data generators and materialization) ----

  /// Appends a typed value. The overload must match the column type.
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  /// Appends a Value, checking type compatibility.
  Status AppendValue(const Value& v);

  /// Appends row `row` of `other` (same type required). Used when
  /// materializing group-by output from an input column.
  void AppendFrom(const Column& other, size_t row);

  /// Bulk-appends rows [begin, begin+count) of `other` (same type
  /// required). Equivalent to count AppendFrom calls but copies the typed
  /// value arrays wholesale, so the copy-on-append ingestion path
  /// (storage/ingest.h) pays memcpy rates instead of per-row dispatch.
  /// Strings intern per row (the dictionaries differ), except when the
  /// whole of `other` goes into an empty column: then its dictionary is
  /// copied as is.
  void AppendRangeFrom(const Column& other, size_t begin, size_t count);

  /// Appends rows[0], rows[1], ... of `other` (same type required); equal
  /// to one AppendFrom per row, dictionary order included, but with one
  /// type dispatch per gather and one intern per distinct string.
  void AppendGather(const Column& other, const std::vector<size_t>& rows);

  /// Reserves space for n rows.
  void Reserve(size_t n);

  // ---- Read interface ----

  bool IsNull(size_t row) const {
    if (null_bitmap_.empty()) return false;
    return (null_bitmap_[row >> 6] >> (row & 63)) & 1;
  }
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  /// 64-bit group code for the row; meaningless if IsNull(row).
  uint64_t CodeAt(size_t row) const {
    switch (type_) {
      case DataType::kInt64:
        return static_cast<uint64_t>(int64_data_[row]);
      case DataType::kDouble:
        return std::bit_cast<uint64_t>(double_data_[row]);
      case DataType::kString:
        return string_codes_[row];
    }
    return 0;
  }

  int64_t Int64At(size_t row) const { return int64_data_[row]; }
  double DoubleAt(size_t row) const { return double_data_[row]; }
  const std::string& StringAt(size_t row) const {
    return dictionary_[string_codes_[row]];
  }
  /// Numeric view of the row (int64 widened to double); 0 for NULL/string.
  double NumericAt(size_t row) const {
    if (IsNull(row)) return 0.0;
    if (type_ == DataType::kInt64) return static_cast<double>(int64_data_[row]);
    if (type_ == DataType::kDouble) return double_data_[row];
    return 0.0;
  }

  /// Dynamically-typed cell (boundary/test use only).
  Value ValueAt(size_t row) const;

  // ---- Raw typed storage (vectorized execution) ----
  //
  // Direct pointers into the value arrays for block-at-a-time kernels
  // (exec/simd.h consumers). Valid for size() rows of the matching type;
  // NULL rows hold their placeholders (0 / 0.0 / the ""-code), so callers
  // must mask with the null bitmap.
  const int64_t* int64_data() const { return int64_data_.data(); }
  const double* double_data() const { return double_data_.data(); }
  const uint32_t* string_codes() const { return string_codes_.data(); }

  /// Null-bitmap words: bit (row & 63) of word (row >> 6) is set iff the
  /// row is NULL; bits past size() are clear. nullptr when no NULL was ever
  /// appended (the bitmap is lazily allocated).
  const uint64_t* null_words() const {
    return null_bitmap_.empty() ? nullptr : null_bitmap_.data();
  }

  /// The null bits of rows [begin, begin+count), count <= 64, packed into
  /// bits 0..count-1 of the result (bit i = row begin+i is NULL). 0 when
  /// the column has no bitmap. Lets block loops test "any NULL in this
  /// chunk" in one word even when begin is not word-aligned.
  uint64_t NullWord(size_t begin, size_t count) const;

  /// The interned string for a dictionary code (STRING columns only).
  const std::string& DictEntry(uint64_t code) const { return dictionary_[code]; }
  size_t dict_size() const { return dictionary_.size(); }

  // ---- Code-domain metadata (aggregation kernel selection) ----
  //
  // Appends maintain the min/max group code over non-NULL rows, so the
  // executor can compute an exact per-column code bit-width and pick a
  // packed or dense aggregation kernel (see exec/agg_kernel.h). The
  // min/max are raw 64-bit codes compared in type order: signed for INT64
  // (bit patterns of INT64_MIN and INT64_MAX bracket correctly), unsigned
  // for DOUBLE bit patterns and dictionary codes.

  /// True once at least one non-NULL value has been appended. While false,
  /// CodeRangeMin()/CodeRange() are 0 and CodeBits() is 0 (an empty or
  /// all-NULL column contributes no value bits to a packed key).
  bool HasCodeRange() const { return has_code_range_; }

  /// Smallest group code among non-NULL rows — the offset the packed and
  /// dense kernels subtract before packing. For INT64 this is the bit
  /// pattern of the signed minimum, so CodeAt(row) - CodeRangeMin() in
  /// wrapping uint64 arithmetic always lands in [0, CodeRange()].
  uint64_t CodeRangeMin() const { return code_min_; }

  /// Largest offset code: max code - min code in wrapping uint64
  /// arithmetic. 0 when the column is empty, all-NULL, or single-valued.
  uint64_t CodeRange() const { return code_max_ - code_min_; }

  /// Exact bits needed to represent CodeAt(row) - CodeRangeMin() for every
  /// non-NULL row: 0 (no bits needed) through 64 (full-range INT64).
  int CodeBits() const {
    const uint64_t range = CodeRange();
    return range == 0 ? 0 : std::bit_width(range);
  }

  /// Writes CodeAt(row) for rows [begin, begin+count) into out[0..count),
  /// with one type dispatch for the whole block instead of one per row.
  /// NULL rows yield their placeholder code; callers mask them via IsNull.
  void CodeBlock(size_t begin, size_t count, uint64_t* out) const;

  /// Approximate in-memory footprint of the column data in bytes, used for
  /// temp-table storage accounting and the optimizer's row-width estimates.
  /// Counts the null bitmap, the typed value array (placeholders included,
  /// so all-NULL columns still have a width), and for STRING columns the
  /// 4-byte dictionary codes plus the referenced payload bytes counted once
  /// per row *occurrence* — modelling the row-store width a DBMS temp table
  /// would have, not this engine's dictionary-compressed footprint.
  size_t ByteSize() const;

  /// Average bytes per row: ByteSize() / size(), clamped to >= 1. Empty
  /// columns (size() == 0 — nothing to divide by) report the type's nominal
  /// width instead: FixedWidthBytes for numerics, 16 bytes for strings.
  double AvgWidthBytes() const;

 private:
  void AppendNotNull();
  void NoteCode(uint64_t code);
  uint32_t InternString(std::string_view v);

  DataType type_;
  size_t rows_ = 0;
  size_t null_count_ = 0;

  // Min/max group code over non-NULL rows (see HasCodeRange()).
  bool has_code_range_ = false;
  uint64_t code_min_ = 0;
  uint64_t code_max_ = 0;

  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;

  // STRING: dictionary-encoded. codes index into dictionary_.
  std::vector<uint32_t> string_codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, uint32_t> intern_;
  size_t string_bytes_ = 0;  // total interned bytes referenced by rows

  // Lazily allocated: empty means "no nulls so far".
  std::vector<uint64_t> null_bitmap_;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace gbmqo

#endif  // GBMQO_STORAGE_COLUMN_H_

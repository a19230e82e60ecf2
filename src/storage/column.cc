#include "storage/column.h"

#include <cassert>
#include <cstring>

namespace gbmqo {

void Column::AppendNotNull() {
  if (!null_bitmap_.empty()) {
    // Bitmap exists; grow it with a cleared bit for this row.
    const size_t word = rows_ >> 6;
    if (word >= null_bitmap_.size()) null_bitmap_.push_back(0);
  }
  ++rows_;
}

void Column::NoteCode(uint64_t code) {
  if (!has_code_range_) {
    code_min_ = code_max_ = code;
    has_code_range_ = true;
    return;
  }
  if (type_ == DataType::kInt64) {
    // Signed order: INT64_MIN's bit pattern must compare below INT64_MAX's.
    const int64_t s = static_cast<int64_t>(code);
    if (s < static_cast<int64_t>(code_min_)) code_min_ = code;
    if (s > static_cast<int64_t>(code_max_)) code_max_ = code;
  } else {
    if (code < code_min_) code_min_ = code;
    if (code > code_max_) code_max_ = code;
  }
}

uint32_t Column::InternString(std::string_view v) {
  auto it = intern_.find(std::string(v));
  if (it != intern_.end()) return it->second;
  const uint32_t code = static_cast<uint32_t>(dictionary_.size());
  dictionary_.emplace_back(v);
  intern_.emplace(dictionary_.back(), code);
  return code;
}

void Column::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  int64_data_.push_back(v);
  NoteCode(static_cast<uint64_t>(v));
  AppendNotNull();
}

void Column::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  double_data_.push_back(v);
  NoteCode(std::bit_cast<uint64_t>(v));
  AppendNotNull();
}

void Column::AppendString(std::string_view v) {
  assert(type_ == DataType::kString);
  const uint32_t code = InternString(v);
  string_codes_.push_back(code);
  string_bytes_ += v.size();
  NoteCode(code);
  AppendNotNull();
}

void Column::AppendNull() {
  // Lazily materialize the bitmap covering all rows so far.
  if (null_bitmap_.empty()) {
    null_bitmap_.assign((rows_ >> 6) + 1, 0);
  }
  const size_t row = rows_;
  const size_t word = row >> 6;
  while (word >= null_bitmap_.size()) null_bitmap_.push_back(0);
  null_bitmap_[word] |= 1ULL << (row & 63);
  ++null_count_;
  // Keep the value arrays aligned with row indices using a placeholder.
  switch (type_) {
    case DataType::kInt64:
      int64_data_.push_back(0);
      break;
    case DataType::kDouble:
      double_data_.push_back(0.0);
      break;
    case DataType::kString:
      // Intern the empty string as the NULL placeholder; the null bitmap is
      // what distinguishes NULL from an actual empty string at read time.
      // The placeholder is excluded from the code range (NoteCode is not
      // called) so an all-NULL column keeps CodeBits() == 0.
      string_codes_.push_back(InternString(""));
      break;
  }
  ++rows_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) {
        return Status::InvalidArgument("expected INT64 value");
      }
      AppendInt64(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.dbl());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.int64()));
      } else {
        return Status::InvalidArgument("expected DOUBLE value");
      }
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) {
        return Status::InvalidArgument("expected STRING value");
      }
      AppendString(v.str());
      return Status::OK();
  }
  return Status::Internal("unreachable column type");
}

void Column::AppendFrom(const Column& other, size_t row) {
  assert(other.type_ == type_);
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(other.int64_data_[row]);
      break;
    case DataType::kDouble:
      AppendDouble(other.double_data_[row]);
      break;
    case DataType::kString:
      AppendString(other.StringAt(row));
      break;
  }
}

void Column::AppendRangeFrom(const Column& other, size_t begin, size_t count) {
  assert(other.type_ == type_);
  if (count == 0) return;
  if (rows_ == 0 && begin == 0 && count == other.rows_) {
    // Whole column into an empty one (copy-on-append ingestion): the
    // row-by-row result would equal `other`, dictionary codes included, so
    // copy its state wholesale instead of re-interning every string. The
    // vectors keep any capacity already reserved here.
    *this = other;
    return;
  }
  Reserve(rows_ + count);
  // The slow path handles NULLs and string re-interning row by row; the
  // numeric no-NULL case is the one worth making a bulk copy.
  if (other.has_nulls() || type_ == DataType::kString) {
    for (size_t i = 0; i < count; ++i) AppendFrom(other, begin + i);
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      int64_data_.insert(int64_data_.end(), other.int64_data_.begin() + begin,
                         other.int64_data_.begin() + begin + count);
      break;
    case DataType::kDouble:
      double_data_.insert(double_data_.end(),
                          other.double_data_.begin() + begin,
                          other.double_data_.begin() + begin + count);
      break;
    case DataType::kString:
      break;  // handled above
  }
  // Fold the source's code range in once instead of per row. The source
  // range over [begin, begin+count) is bounded by its whole-column range;
  // using the whole range only widens CodeBits, never breaks the "every
  // offset code fits" contract the kernels rely on.
  if (other.has_code_range_) {
    NoteCode(other.code_min_);
    NoteCode(other.code_max_);
  }
  if (!null_bitmap_.empty()) {
    // This column tracked NULLs before; extend the bitmap with cleared bits.
    const size_t words = ((rows_ + count) >> 6) + 1;
    null_bitmap_.resize(words, 0);
  }
  rows_ += count;
}

void Column::AppendGather(const Column& other,
                          const std::vector<size_t>& rows) {
  assert(other.type_ == type_);
  Reserve(rows_ + rows.size());
  const auto gather = [&](auto append_value) {
    for (size_t r : rows) other.IsNull(r) ? AppendNull() : append_value(r);
  };
  switch (type_) {
    case DataType::kInt64:
      gather([&](size_t r) { AppendInt64(other.int64_data_[r]); });
      break;
    case DataType::kDouble:
      gather([&](size_t r) { AppendDouble(other.double_data_[r]); });
      break;
    case DataType::kString: {
      // other's code -> this column's, interned on first sight (where
      // AppendString would first have interned it).
      std::vector<uint32_t> remap(other.dictionary_.size(), UINT32_MAX);
      gather([&](size_t r) {
        const uint32_t src = other.string_codes_[r];
        if (remap[src] == UINT32_MAX) {
          remap[src] = InternString(other.dictionary_[src]);
        }
        string_codes_.push_back(remap[src]);
        string_bytes_ += other.dictionary_[src].size();
        NoteCode(remap[src]);
        AppendNotNull();
      });
      break;
    }
  }
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      int64_data_.reserve(n);
      break;
    case DataType::kDouble:
      double_data_.reserve(n);
      break;
    case DataType::kString:
      string_codes_.reserve(n);
      break;
  }
  if (!null_bitmap_.empty()) null_bitmap_.reserve(((rows_ + n) >> 6) + 1);
}

uint64_t Column::NullWord(size_t begin, size_t count) const {
  assert(count <= 64);
  if (null_bitmap_.empty() || count == 0) return 0;
  const size_t w0 = begin >> 6;
  const int off = static_cast<int>(begin & 63);
  uint64_t w = null_bitmap_[w0] >> off;
  if (off != 0 && w0 + 1 < null_bitmap_.size()) {
    w |= null_bitmap_[w0 + 1] << (64 - off);
  }
  if (count < 64) w &= (uint64_t{1} << count) - 1;
  return w;
}

void Column::CodeBlock(size_t begin, size_t count, uint64_t* out) const {
  switch (type_) {
    case DataType::kInt64:
      // int64/double codes are the 8-byte bit patterns: one memcpy.
      std::memcpy(out, int64_data_.data() + begin, count * sizeof(uint64_t));
      break;
    case DataType::kDouble:
      std::memcpy(out, double_data_.data() + begin, count * sizeof(uint64_t));
      break;
    case DataType::kString:
      for (size_t i = 0; i < count; ++i) {
        out[i] = string_codes_[begin + i];
      }
      break;
  }
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value(Null{});
  switch (type_) {
    case DataType::kInt64:
      return Value(int64_data_[row]);
    case DataType::kDouble:
      return Value(double_data_[row]);
    case DataType::kString:
      return Value(StringAt(row));
  }
  return Value(Null{});
}

size_t Column::ByteSize() const {
  size_t bytes = null_bitmap_.size() * sizeof(uint64_t);
  switch (type_) {
    case DataType::kInt64:
      bytes += int64_data_.size() * sizeof(int64_t);
      break;
    case DataType::kDouble:
      bytes += double_data_.size() * sizeof(double);
      break;
    case DataType::kString:
      bytes += string_codes_.size() * sizeof(uint32_t);
      // Count referenced string payload once per row occurrence (this models
      // the row-store width a DBMS temp table would have).
      bytes += string_bytes_;
      break;
  }
  return bytes;
}

double Column::AvgWidthBytes() const {
  if (rows_ == 0) {
    // Nothing stored to average over (ByteSize()/rows_ would divide by
    // zero): report the type's nominal width. 16 bytes for strings matches
    // the generators' typical interned length.
    return type_ == DataType::kString ? 16.0
                                      : static_cast<double>(FixedWidthBytes(type_));
  }
  // Includes the per-row storage of NULL rows (placeholder slots + bitmap),
  // so an all-NULL string column is ~4.x bytes/row (codes + bitmap, no
  // payload) rather than 0 — the dictionary payload is never double-counted
  // because ByteSize() charges it per occurrence, not per dictionary entry.
  const double w = static_cast<double>(ByteSize()) / static_cast<double>(rows_);
  return w < 1.0 ? 1.0 : w;
}

}  // namespace gbmqo

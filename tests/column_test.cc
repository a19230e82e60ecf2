#include "storage/column.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace gbmqo {
namespace {

TEST(ColumnTest, Int64AppendAndRead) {
  Column col(DataType::kInt64);
  col.AppendInt64(5);
  col.AppendInt64(-3);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.Int64At(0), 5);
  EXPECT_EQ(col.Int64At(1), -3);
  EXPECT_FALSE(col.has_nulls());
}

TEST(ColumnTest, DoubleAppendAndRead) {
  Column col(DataType::kDouble);
  col.AppendDouble(1.5);
  EXPECT_DOUBLE_EQ(col.DoubleAt(0), 1.5);
}

TEST(ColumnTest, StringInterning) {
  Column col(DataType::kString);
  col.AppendString("alpha");
  col.AppendString("beta");
  col.AppendString("alpha");
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.StringAt(0), "alpha");
  EXPECT_EQ(col.StringAt(2), "alpha");
  EXPECT_EQ(col.dict_size(), 2u);
  // Equal strings share a group code; distinct strings differ.
  EXPECT_EQ(col.CodeAt(0), col.CodeAt(2));
  EXPECT_NE(col.CodeAt(0), col.CodeAt(1));
}

TEST(ColumnTest, NullTracking) {
  Column col(DataType::kInt64);
  col.AppendInt64(1);
  col.AppendNull();
  col.AppendInt64(3);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_TRUE(col.ValueAt(1).is_null());
}

TEST(ColumnTest, NullAfterManyRows) {
  // Exercises lazy bitmap materialization past one 64-bit word.
  Column col(DataType::kInt64);
  for (int i = 0; i < 100; ++i) col.AppendInt64(i);
  col.AppendNull();
  for (int i = 0; i < 100; ++i) col.AppendInt64(i);
  EXPECT_TRUE(col.IsNull(100));
  EXPECT_FALSE(col.IsNull(99));
  EXPECT_FALSE(col.IsNull(101));
  EXPECT_FALSE(col.IsNull(200));
  EXPECT_EQ(col.null_count(), 1u);
}

TEST(ColumnTest, NullStringVsEmptyString) {
  Column col(DataType::kString);
  col.AppendString("");
  col.AppendNull();
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.StringAt(0), "");
}

TEST(ColumnTest, GroupCodesInjectivePerType) {
  Column col(DataType::kInt64);
  col.AppendInt64(0);
  col.AppendInt64(-1);
  col.AppendInt64(1);
  EXPECT_NE(col.CodeAt(0), col.CodeAt(1));
  EXPECT_NE(col.CodeAt(0), col.CodeAt(2));
  EXPECT_NE(col.CodeAt(1), col.CodeAt(2));
}

TEST(ColumnTest, DoubleCodesDistinguishValues) {
  Column col(DataType::kDouble);
  col.AppendDouble(0.1);
  col.AppendDouble(0.2);
  col.AppendDouble(0.1);
  EXPECT_EQ(col.CodeAt(0), col.CodeAt(2));
  EXPECT_NE(col.CodeAt(0), col.CodeAt(1));
}

TEST(ColumnTest, AppendValueTypeChecks) {
  Column col(DataType::kInt64);
  EXPECT_TRUE(col.AppendValue(Value(1)).ok());
  EXPECT_TRUE(col.AppendValue(Value(Null{})).ok());
  EXPECT_FALSE(col.AppendValue(Value("s")).ok());
  Column dcol(DataType::kDouble);
  EXPECT_TRUE(dcol.AppendValue(Value(2.0)).ok());
  EXPECT_TRUE(dcol.AppendValue(Value(7)).ok());  // int widens to double
  EXPECT_DOUBLE_EQ(dcol.DoubleAt(1), 7.0);
}

TEST(ColumnTest, AppendFromCopiesValuesAndNulls) {
  Column src(DataType::kString);
  src.AppendString("x");
  src.AppendNull();
  Column dst(DataType::kString);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_EQ(dst.StringAt(0), "x");
  EXPECT_TRUE(dst.IsNull(1));
}

TEST(ColumnTest, ByteSizeGrowsWithData) {
  Column col(DataType::kInt64);
  const size_t empty = col.ByteSize();
  for (int i = 0; i < 1000; ++i) col.AppendInt64(i);
  EXPECT_GE(col.ByteSize(), empty + 8000);
}

TEST(ColumnTest, AvgWidthStringsReflectLength) {
  Column col(DataType::kString);
  for (int i = 0; i < 100; ++i) col.AppendString("0123456789");  // 10 bytes
  // width >= payload (10) and includes the 4-byte code.
  EXPECT_GE(col.AvgWidthBytes(), 10.0);
}

TEST(ColumnTest, NumericAt) {
  Column icol(DataType::kInt64);
  icol.AppendInt64(4);
  EXPECT_DOUBLE_EQ(icol.NumericAt(0), 4.0);
  Column dcol(DataType::kDouble);
  dcol.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(dcol.NumericAt(0), 2.5);
}

// ---- Byte accounting edge cases (pinned: the optimizer's row-width
// estimates and temp-table accounting depend on these exact numbers) ----

TEST(ColumnWidthTest, EmptyColumnsReportNominalWidth) {
  // size() == 0: nothing to average, so AvgWidthBytes falls back to the
  // type's nominal width instead of dividing by zero.
  Column icol(DataType::kInt64);
  EXPECT_EQ(icol.ByteSize(), 0u);
  EXPECT_DOUBLE_EQ(icol.AvgWidthBytes(), 8.0);
  Column dcol(DataType::kDouble);
  EXPECT_DOUBLE_EQ(dcol.AvgWidthBytes(), 8.0);
  Column scol(DataType::kString);
  EXPECT_EQ(scol.ByteSize(), 0u);
  EXPECT_DOUBLE_EQ(scol.AvgWidthBytes(), 16.0);
}

TEST(ColumnWidthTest, AllNullStringColumnChargesCodesAndBitmap) {
  // 100 NULLs: per-row storage is the 4-byte placeholder code plus the null
  // bitmap (two 64-bit words), and no string payload — so the width is a
  // small positive number, not 0 and not the 16-byte nominal width.
  Column col(DataType::kString);
  for (int i = 0; i < 100; ++i) col.AppendNull();
  EXPECT_EQ(col.ByteSize(), 100 * 4 + 2 * 8u);
  EXPECT_DOUBLE_EQ(col.AvgWidthBytes(), 4.16);
  EXPECT_EQ(col.null_count(), 100u);
}

TEST(ColumnWidthTest, StringPayloadChargedPerOccurrenceNotPerDictEntry) {
  // The same 8-byte string appended 100 times interns once but must be
  // charged per row occurrence (row-store width model) — and never double-
  // counted through the dictionary.
  Column col(DataType::kString);
  for (int i = 0; i < 100; ++i) col.AppendString("abcdefgh");
  EXPECT_EQ(col.dict_size(), 1u);
  EXPECT_EQ(col.ByteSize(), 100 * 4 + 100 * 8u);
  EXPECT_DOUBLE_EQ(col.AvgWidthBytes(), 12.0);
}

// ---- Code-domain metadata (aggregation kernel selection) ----

TEST(ColumnCodeRangeTest, EmptyAndAllNullColumnsHaveNoRange) {
  Column empty(DataType::kInt64);
  EXPECT_FALSE(empty.HasCodeRange());
  EXPECT_EQ(empty.CodeRange(), 0u);
  EXPECT_EQ(empty.CodeBits(), 0);
  Column nulls(DataType::kInt64);
  nulls.AppendNull();
  nulls.AppendNull();
  EXPECT_FALSE(nulls.HasCodeRange());
  EXPECT_EQ(nulls.CodeBits(), 0);
}

TEST(ColumnCodeRangeTest, SingleValueColumnNeedsZeroBits) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendInt64(42);
  EXPECT_TRUE(col.HasCodeRange());
  EXPECT_EQ(col.CodeRange(), 0u);
  EXPECT_EQ(col.CodeBits(), 0);
}

TEST(ColumnCodeRangeTest, SignedInt64RangeBracketsNegatives) {
  // min/max compare as signed for INT64, so -3 (huge unsigned bit pattern)
  // is the minimum and every offset code lands in [0, range].
  Column col(DataType::kInt64);
  col.AppendInt64(5);
  col.AppendInt64(-3);
  col.AppendInt64(10);
  EXPECT_EQ(col.CodeRangeMin(), static_cast<uint64_t>(int64_t{-3}));
  EXPECT_EQ(col.CodeRange(), 13u);
  EXPECT_EQ(col.CodeBits(), 4);
  for (size_t r = 0; r < col.size(); ++r) {
    EXPECT_LE(col.CodeAt(r) - col.CodeRangeMin(), col.CodeRange()) << r;
  }
}

TEST(ColumnCodeRangeTest, FullInt64DomainNeedsSixtyFourBits) {
  Column col(DataType::kInt64);
  col.AppendInt64(std::numeric_limits<int64_t>::min());
  col.AppendInt64(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(col.CodeRange(), ~uint64_t{0});
  EXPECT_EQ(col.CodeBits(), 64);
}

TEST(ColumnCodeRangeTest, NullPlaceholderExcludedFromStringRange) {
  // AppendNull interns "" as dictionary code 0, but the placeholder must
  // not widen the code range: only real values count.
  Column col(DataType::kString);
  col.AppendNull();
  col.AppendString("a");
  col.AppendString("b");
  EXPECT_EQ(col.dict_size(), 3u);  // "", "a", "b"
  EXPECT_EQ(col.CodeRangeMin(), 1u);
  EXPECT_EQ(col.CodeRange(), 1u);
  EXPECT_EQ(col.CodeBits(), 1);
}

TEST(ColumnCodeRangeTest, CodeBlockMatchesCodeAt) {
  Column icol(DataType::kInt64);
  Column dcol(DataType::kDouble);
  Column scol(DataType::kString);
  for (int i = 0; i < 200; ++i) {
    icol.AppendInt64(i * 37 - 1000);
    dcol.AppendDouble(static_cast<double>(i) / 8.0);
    scol.AppendString("s" + std::to_string(i % 13));
  }
  icol.AppendNull();
  for (const Column* col : {&icol, &dcol, &scol}) {
    const size_t begin = 50;
    const size_t count = col->size() - begin;
    std::vector<uint64_t> codes(count);
    col->CodeBlock(begin, count, codes.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(codes[i], col->CodeAt(begin + i)) << i;
    }
  }
}

// A whole column copied into an empty one takes the source's state as is;
// it must read exactly like the row-by-row copy, before and after further
// appends.
TEST(ColumnAppendRangeTest, WholeColumnCopyMatchesRowByRow) {
  for (const DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    Column src(type), extra(type);
    const auto fill = [type](Column* col, int row) {
      if (row % 7 == 3) {
        col->AppendNull();
      } else if (type == DataType::kInt64) {
        col->AppendInt64(row % 5 - 2);
      } else if (type == DataType::kDouble) {
        col->AppendDouble(row % 4 == 0 ? -0.0 : row * 0.5);
      } else {
        col->AppendString("value " + std::to_string(row % 6));
      }
    };
    for (int row = 0; row < 150; ++row) fill(&src, row);
    for (int row = 150; row < 170; ++row) fill(&extra, row);

    Column bulk(type), rows(type);
    bulk.Reserve(src.size() + extra.size());
    bulk.AppendRangeFrom(src, 0, src.size());
    bulk.AppendRangeFrom(extra, 0, extra.size());
    for (size_t r = 0; r < src.size(); ++r) rows.AppendFrom(src, r);
    for (size_t r = 0; r < extra.size(); ++r) rows.AppendFrom(extra, r);

    ASSERT_EQ(bulk.size(), rows.size());
    EXPECT_EQ(bulk.null_count(), rows.null_count());
    EXPECT_EQ(bulk.dict_size(), rows.dict_size());
    EXPECT_EQ(bulk.CodeRangeMin(), rows.CodeRangeMin());
    EXPECT_EQ(bulk.CodeRange(), rows.CodeRange());
    EXPECT_EQ(bulk.ByteSize(), rows.ByteSize());
    for (size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(bulk.IsNull(r), rows.IsNull(r)) << "row " << r;
      if (rows.IsNull(r)) continue;
      EXPECT_EQ(bulk.CodeAt(r), rows.CodeAt(r)) << "row " << r;
      EXPECT_EQ(bulk.ValueAt(r), rows.ValueAt(r)) << "row " << r;
    }
  }
}

TEST(ColumnAppendGatherTest, GatherMatchesRowByRow) {
  for (const DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    Column src(type);
    for (int row = 0; row < 90; ++row) {
      if (row % 7 == 3) {
        src.AppendNull();
      } else if (type == DataType::kInt64) {
        src.AppendInt64(row % 5 - 2);
      } else if (type == DataType::kDouble) {
        src.AppendDouble(row % 4 == 0 ? -0.0 : row * 0.5);
      } else {
        src.AppendString(row % 9 == 0 ? "" : "value " + std::to_string(row % 6));
      }
    }
    // Repeats and out-of-order rows, so strings first seen late and NULLs
    // before any value exercise the dictionary order; a second gather
    // appends to a non-empty column.
    const std::vector<size_t> first = {3, 17, 0, 0, 45, 10, 3, 89, 9, 24};
    const std::vector<size_t> second = {31, 8, 8, 52, 66, 1};
    Column gathered(type), rows(type);
    gathered.AppendGather(src, first);
    gathered.AppendGather(src, second);
    for (size_t r : first) rows.AppendFrom(src, r);
    for (size_t r : second) rows.AppendFrom(src, r);

    ASSERT_EQ(gathered.size(), rows.size());
    EXPECT_EQ(gathered.null_count(), rows.null_count());
    EXPECT_EQ(gathered.dict_size(), rows.dict_size());
    EXPECT_EQ(gathered.CodeRangeMin(), rows.CodeRangeMin());
    EXPECT_EQ(gathered.CodeRange(), rows.CodeRange());
    EXPECT_EQ(gathered.ByteSize(), rows.ByteSize());
    for (size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(gathered.IsNull(r), rows.IsNull(r)) << "row " << r;
      EXPECT_EQ(gathered.CodeAt(r), rows.CodeAt(r)) << "row " << r;
      if (!rows.IsNull(r)) {
        EXPECT_EQ(gathered.ValueAt(r), rows.ValueAt(r)) << "row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace gbmqo

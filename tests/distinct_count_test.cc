// Differential test of the statistics' distinct counter. ExactDistinctCount
// forms keys with the executor's aggregation-kernel ladder (dense slots,
// packed words, multi-word keys); here it is compared against a reference
// that shares no code with it: a std::set of per-row (null flag, CodeAt)
// tuples. The tables are built so every rung is taken, including a dense
// NULL slot, a packed key with all 64 bits set, multi-word DOUBLE keys,
// an all-NULL column and -0.0 next to +0.0 (distinct codes). The sampled
// estimators are pinned to golden values on fixed seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/agg_kernel.h"
#include "stats/distinct_estimator.h"

namespace gbmqo {
namespace {

constexpr int kColumns = 7;

/// Seven columns, one per key shape:
///   0 tiny    INT64 0..6, 10% NULL        dense, with the NULL slot
///   1 str     STRING of 20 values, 5% NULL
///   2 mid     INT64 0..4999               13 bits
///   3 wide    INT64 pool incl. INT64_MIN and INT64_MAX: 64 bits
///   4 dbl     DOUBLE pool incl. -0.0 and +0.0, 5% NULL: 64 bits + NULL
///   5 rate    DOUBLE 0.00..0.10            62 bits
///   6 allnull INT64, every row NULL        0 bits + NULL
TablePtr RandomTable(size_t rows, uint64_t seed) {
  TableBuilder b(Schema({{"tiny", DataType::kInt64, true},
                         {"str", DataType::kString, true},
                         {"mid", DataType::kInt64, false},
                         {"wide", DataType::kInt64, false},
                         {"dbl", DataType::kDouble, true},
                         {"rate", DataType::kDouble, false},
                         {"allnull", DataType::kInt64, true}}));
  Rng rng(seed);
  std::vector<int64_t> wide = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max()};
  for (int i = 0; i < 40; ++i) wide.push_back(static_cast<int64_t>(rng.Next()));
  std::vector<double> dbl = {-0.0, 0.0};
  for (int i = 0; i < 30; ++i) {
    dbl.push_back((rng.NextDouble() - 0.5) * static_cast<double>(1ull << (i % 40)));
  }
  for (size_t r = 0; r < rows; ++r) {
    const Value tiny = rng.Bernoulli(0.10)
                           ? Value(Null{})
                           : Value(static_cast<int64_t>(rng.Uniform(7)));
    const Value str = rng.Bernoulli(0.05)
                          ? Value(Null{})
                          : Value("s" + std::to_string(rng.Uniform(20)));
    const Value mid = Value(static_cast<int64_t>(rng.Uniform(5000)));
    const Value w = Value(wide[rng.Uniform(wide.size())]);
    const Value d =
        rng.Bernoulli(0.05) ? Value(Null{}) : Value(dbl[rng.Uniform(dbl.size())]);
    const Value rate = Value(static_cast<double>(rng.Uniform(11)) / 100.0);
    EXPECT_TRUE(b.AppendRow({tiny, str, mid, w, d, rate, Value(Null{})}).ok());
  }
  return *b.Build("r");
}

/// Reference count: distinct (null flag, code) tuples, codes of NULLs
/// ignored.
uint64_t ReferenceCount(const Table& t, ColumnSet columns) {
  std::set<std::vector<uint64_t>> seen;
  const std::vector<int> cols = columns.ToVector();
  for (size_t row = 0; row < t.num_rows(); ++row) {
    std::vector<uint64_t> tuple;
    for (int c : cols) {
      const Column& col = t.column(c);
      const bool null = col.IsNull(row);
      tuple.push_back(null ? 1 : 0);
      tuple.push_back(null ? 0 : col.CodeAt(row));
    }
    seen.insert(std::move(tuple));
  }
  return seen.size();
}

TEST(DistinctCountTest, MatchesReferenceOnEveryColumnSetAndRung) {
  std::set<AggKernel> rungs;
  for (uint64_t seed : {1, 2, 3}) {
    TablePtr t = RandomTable(3000, seed);
    for (uint64_t mask = 0; mask < (1u << kColumns); ++mask) {
      const ColumnSet cols = ColumnSet(mask);
      if (!cols.empty()) rungs.insert(PlanAggKernel(*t, cols).kernel);
      EXPECT_EQ(ExactDistinctCount(*t, cols), ReferenceCount(*t, cols))
          << "seed " << seed << " columns " << cols.ToString();
    }
  }
  EXPECT_TRUE(rungs.count(AggKernel::kDenseArray));
  EXPECT_TRUE(rungs.count(AggKernel::kPackedKey));
  EXPECT_TRUE(rungs.count(AggKernel::kMultiWord));
}

TEST(DistinctCountTest, DenseRungCountsTheNullSlot) {
  TablePtr t = RandomTable(500, 9);
  const AggKernelPlan plan = PlanAggKernel(*t, ColumnSet{0});
  ASSERT_EQ(plan.kernel, AggKernel::kDenseArray);
  ASSERT_TRUE(plan.cols[0].nullable);
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet{0}), 8u);  // 0..6 and NULL
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet{6}), 1u);  // all NULL
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet{0, 6}), 8u);
}

TEST(DistinctCountTest, PackedKeyWithAllBitsSet) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  TableBuilder b(Schema({{"v", DataType::kInt64, false}}));
  for (int64_t v : {hi, lo, int64_t{0}, hi, hi, int64_t{0}}) {
    ASSERT_TRUE(b.AppendRow({Value(v)}).ok());
  }
  TablePtr t = *b.Build("w");
  const AggKernelPlan plan = PlanAggKernel(*t, ColumnSet{0});
  ASSERT_EQ(plan.kernel, AggKernel::kPackedKey);
  ASSERT_EQ(plan.total_bits, 64);  // hi - lo packs to 0xFFFF'FFFF'FFFF'FFFF
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet{0}), 3u);
  EXPECT_EQ(GeeEstimateFromSample(*t, ColumnSet{0}, 6), 3u);
}

TEST(DistinctCountTest, NegativeZeroIsItsOwnCode) {
  TableBuilder b(Schema({{"d", DataType::kDouble, false},
                         {"n", DataType::kDouble, true}}));
  ASSERT_TRUE(b.AppendRow({Value(-0.0), Value(-0.0)}).ok());
  ASSERT_TRUE(b.AppendRow({Value(0.0), Value(0.0)}).ok());
  ASSERT_TRUE(b.AppendRow({Value(-0.0), Value(Null{})}).ok());
  TablePtr t = *b.Build("z");
  // -0.0 and +0.0 differ in the sign bit: a 64-bit code range, so the
  // non-null column packs into a full word and the nullable one (64 value
  // bits + a NULL bit) needs multi-word keys.
  EXPECT_EQ(PlanAggKernel(*t, ColumnSet{0}).kernel, AggKernel::kPackedKey);
  EXPECT_EQ(PlanAggKernel(*t, ColumnSet{1}).kernel, AggKernel::kMultiWord);
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet{0}), 2u);
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet{1}), 3u);
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet{0, 1}), 3u);
}

TEST(DistinctCountTest, EmptyTableAndEmptyColumnSet) {
  TablePtr empty = RandomTable(0, 1);
  for (uint64_t mask = 0; mask < (1u << kColumns); ++mask) {
    EXPECT_EQ(ExactDistinctCount(*empty, ColumnSet(mask)), 0u) << mask;
    EXPECT_EQ(GeeEstimateFromSample(*empty, ColumnSet(mask), 100), 0u) << mask;
  }
  TablePtr t = RandomTable(10, 1);
  EXPECT_EQ(ExactDistinctCount(*t, ColumnSet()), 1u);
  EXPECT_EQ(GeeEstimateFromSample(*t, ColumnSet(), 1000), 1u);
}

/// One pinned estimate: both GeeEstimateFromSample over
/// BuildRowSample(table, sample, seed) and SampledDistinctCount(table, cols,
/// sample, seed) must return it, for the 20,000-row RandomTable of seed 5.
struct Golden {
  uint64_t mask;
  uint64_t sample;
  uint64_t seed;
  uint64_t estimate;
};

// Computed with the row-at-a-time key builder that preceded the block
// kernels; the estimators must stay bit-identical.
constexpr Golden kGoldens[] = {
    {0x01, 500, 1, 8},
    {0x01, 2000, 0x5EED, 8},
    {0x02, 500, 1, 21},
    {0x02, 2000, 0x5EED, 21},
    {0x04, 500, 1, 3605},
    {0x04, 2000, 0x5EED, 4408},
    {0x08, 500, 1, 42},
    {0x08, 2000, 0x5EED, 42},
    {0x10, 500, 1, 33},
    {0x10, 2000, 0x5EED, 33},
    {0x20, 500, 1, 11},
    {0x20, 2000, 0x5EED, 11},
    {0x40, 500, 1, 1},
    {0x40, 2000, 0x5EED, 1},
    {0x03, 500, 1, 275},
    {0x03, 2000, 0x5EED, 168},
    {0x05, 500, 1, 9928},
    {0x05, 2000, 0x5EED, 15228},
    {0x0c, 500, 1, 15133},
    {0x0c, 2000, 0x5EED, 20000},
    {0x30, 500, 1, 1039},
    {0x30, 2000, 0x5EED, 388},
    {0x50, 500, 1, 33},
    {0x50, 2000, 0x5EED, 33},
    {0x13, 500, 1, 3942},
    {0x13, 2000, 0x5EED, 4625},
    {0x24, 500, 1, 10874},
    {0x24, 2000, 0x5EED, 17112},
    {0x7f, 500, 1, 17364},
    {0x7f, 2000, 0x5EED, 20000},
};

TEST(DistinctCountTest, SampledEstimatesMatchGoldens) {
  TablePtr t = RandomTable(20000, 5);
  for (const Golden& g : kGoldens) {
    const ColumnSet cols = ColumnSet(g.mask);
    Result<TablePtr> sample = BuildRowSample(*t, g.sample, g.seed);
    ASSERT_TRUE(sample.ok());
    const uint64_t gee = GeeEstimateFromSample(**sample, cols, t->num_rows());
    const uint64_t sampled = SampledDistinctCount(*t, cols, g.sample, g.seed);
    EXPECT_EQ(gee, g.estimate) << cols.ToString() << " sample " << g.sample;
    EXPECT_EQ(sampled, g.estimate) << cols.ToString() << " sample " << g.sample;
  }
}

}  // namespace
}  // namespace gbmqo

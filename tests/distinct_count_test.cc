// Differential test of the statistics' distinct counter. ExactDistinctCount
// forms keys with the executor's aggregation-kernel ladder (dense slots,
// packed words, multi-word keys) over compacted column domains (a dense id
// per row for DOUBLE and other sparse columns); here it is compared against
// a reference that shares no code with it: a std::set of per-row (null
// flag, CodeAt) tuples. The tables are built so every rung is taken,
// including a dense NULL slot, a packed key with all 64 bits set, an
// all-NULL column, -0.0 next to +0.0 and two NaN payloads (distinct codes),
// and compacted products on either side of both dense budgets. GEE over
// compacted columns is checked against INT64 mirror columns that group the
// rows identically but key on raw codes, and the sampled estimators are
// pinned to golden values on fixed seeds.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/tpch_gen.h"
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

/// Few-valued doubles, each beside an INT64 mirror holding the same row
/// partition (value index k for the double's k-th value):
///   0 disc  DOUBLE 0.00..0.10        1 disc_k  INT64 0..10
///   2 tax   DOUBLE 0.00..0.08        3 tax_k   INT64 0..8
///   4 nd    DOUBLE of 6, 10% NULL    5 nd_k    INT64 0..5, NULL alike
///   6 qty   INT64 1..50              7 mode    STRING of 7
constexpr int kMirrorColumns = 8;
TablePtr MirrorTable(size_t rows, uint64_t seed) {
  TableBuilder b(Schema({{"disc", DataType::kDouble, false},
                         {"disc_k", DataType::kInt64, false},
                         {"tax", DataType::kDouble, false},
                         {"tax_k", DataType::kInt64, false},
                         {"nd", DataType::kDouble, true},
                         {"nd_k", DataType::kInt64, true},
                         {"qty", DataType::kInt64, false},
                         {"mode", DataType::kString, false}}));
  const std::vector<double> nd = {-1.5, 0.25, 3.0, 1e300, -0.0, 7.5};
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int64_t disc = static_cast<int64_t>(rng.Uniform(11));
    const int64_t tax = static_cast<int64_t>(rng.Uniform(9));
    const bool null = rng.Bernoulli(0.10);
    const int64_t k = static_cast<int64_t>(rng.Uniform(nd.size()));
    EXPECT_TRUE(
        b.AppendRow({Value(static_cast<double>(disc) / 100.0), Value(disc),
                     Value(static_cast<double>(tax) / 100.0), Value(tax),
                     null ? Value(Null{}) : Value(nd[static_cast<size_t>(k)]),
                     null ? Value(Null{}) : Value(k),
                     Value(static_cast<int64_t>(1 + rng.Uniform(50))),
                     Value("m" + std::to_string(rng.Uniform(7)))})
            .ok());
  }
  return *b.Build("mirror");
}

/// `cols` with every double swapped for its INT64 mirror.
ColumnSet Mirror(ColumnSet cols) {
  ColumnSet out;
  for (int c : cols.ToVector()) out = out.With(c < 6 ? (c | 1) : c);
  return out;
}

TEST(CompactedDomainTest, FewValuedDoublesMatchReferenceAndMirror) {
  TablePtr t = MirrorTable(4000, 11);
  ColumnDomains domains(*t);
  Result<TablePtr> sample = BuildRowSample(*t, 700, 3);
  ASSERT_TRUE(sample.ok());
  ColumnDomains sample_domains(**sample);
  for (uint64_t mask = 1; mask < (1u << kMirrorColumns); ++mask) {
    const ColumnSet cols = ColumnSet(mask);
    const uint64_t exact = ExactDistinctCount(domains, cols);
    EXPECT_EQ(exact, ReferenceCount(*t, cols)) << cols.ToString();
    EXPECT_EQ(exact, ExactDistinctCount(*t, Mirror(cols))) << cols.ToString();
    EXPECT_EQ(GeeEstimateFromSample(sample_domains, cols, t->num_rows()),
              GeeEstimateFromSample(**sample, Mirror(cols), t->num_rows()))
        << cols.ToString();
  }
  // Alone, paired with each other and with INT64/STRING columns, the
  // doubles' compacted radixes (11, 9, 6 + NULL) put them on the dense rung.
  for (ColumnSet cols : {ColumnSet{0}, ColumnSet{4}, ColumnSet{0, 2},
                         ColumnSet{0, 2, 4}, ColumnSet{0, 6}, ColumnSet{2, 7},
                         ColumnSet{0, 2, 4, 6, 7}}) {
    EXPECT_EQ(domains.Plan(cols).kernel, AggKernel::kDenseArray)
        << cols.ToString();
  }
  EXPECT_EQ(ExactDistinctCount(domains, ColumnSet{4}), 7u);  // 6 and NULL
}

TEST(CompactedDomainTest, LineitemDiscountAndTaxTakeTheDenseBitmap) {
  TablePtr t = GenerateLineitem({.rows = 20000, .seed = 1});
  const ColumnSet cols{kDiscount, kTax};
  // Raw codes: two 62-bit DOUBLE patterns, too wide even to pack.
  EXPECT_EQ(PlanAggKernel(*t, cols).kernel, AggKernel::kMultiWord);
  ColumnDomains domains(*t);
  const AggKernelPlan plan = domains.Plan(cols);
  EXPECT_EQ(plan.kernel, AggKernel::kDenseArray);
  EXPECT_EQ(plan.dense_capacity, 128u);  // 11 * 9 = 99 slots
  EXPECT_EQ(ExactDistinctCount(domains, cols), ReferenceCount(*t, cols));
}

TEST(CompactedDomainTest, BitPatternsStayDistinctGroups) {
  const double nan1 = std::bit_cast<double>(uint64_t{0x7FF8000000000001});
  const double nan2 = std::bit_cast<double>(uint64_t{0x7FF8000000000002});
  TableBuilder b(Schema({{"d", DataType::kDouble, true},
                         {"i", DataType::kInt64, false}}));
  const std::vector<Value> values = {Value(-0.0), Value(0.0), Value(nan1),
                                     Value(nan2), Value(1.0), Value(Null{})};
  for (size_t r = 0; r < 60; ++r) {
    ASSERT_TRUE(b.AppendRow({values[r % values.size()],
                             Value(static_cast<int64_t>(r % 4))})
                    .ok());
  }
  TablePtr t = *b.Build("bits");
  ASSERT_EQ(std::bit_cast<uint64_t>(t->column(0).DoubleAt(3)),
            uint64_t{0x7FF8000000000002});  // payload survived the append
  ColumnDomains domains(*t);
  EXPECT_EQ(domains.Plan(ColumnSet{0, 1}).kernel, AggKernel::kDenseArray);
  EXPECT_EQ(ExactDistinctCount(domains, ColumnSet{0}), 6u);
  EXPECT_EQ(ExactDistinctCount(domains, ColumnSet{0, 1}),
            ReferenceCount(*t, ColumnSet{0, 1}));
  EXPECT_EQ(GeeEstimateFromSample(domains, ColumnSet{0}, 60), 6u);
}

/// Two DOUBLE columns with `a` and `b` distinct values over max(a, b)
/// rows, so both are compacted and their product is exactly a * b.
TablePtr ProductTable(uint64_t a, uint64_t b) {
  TableBuilder builder(Schema({{"x", DataType::kDouble, false},
                               {"y", DataType::kDouble, false}}));
  const uint64_t rows = std::max(a, b);
  for (uint64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(builder
                    .AppendRow({Value(0.5 + static_cast<double>(r % a)),
                                Value(-0.25 - static_cast<double>(r % b))})
                    .ok());
  }
  return *builder.Build("product");
}

TEST(CompactedDomainTest, ProductOnEitherSideOfTheDenseBudgets) {
  struct Case {
    uint64_t a, b;
    AggKernel kernel;
  };
  // Statistics spend a bit or a byte per slot, so their dense rung reaches
  // past the executor's kDenseSlotBudget (2^18) up to kStatsSlotBudget.
  static_assert(kStatsSlotBudget == uint64_t{1} << 22);
  const Case cases[] = {
      {512, 512, AggKernel::kDenseArray},    // == kDenseSlotBudget
      {513, 512, AggKernel::kDenseArray},    // just past it
      {2048, 2048, AggKernel::kDenseArray},  // == kStatsSlotBudget
      {2049, 2048, AggKernel::kPackedKey},   // just past it
  };
  for (const Case& c : cases) {
    TablePtr t = ProductTable(c.a, c.b);
    ColumnDomains domains(*t);
    const ColumnSet cols{0, 1};
    const AggKernelPlan plan = domains.Plan(cols);
    EXPECT_EQ(plan.kernel, c.kernel) << c.a << " x " << c.b;
    if (plan.kernel == AggKernel::kDenseArray) {
      EXPECT_EQ(plan.dense_capacity, std::bit_ceil(c.a * c.b));
    }
    EXPECT_EQ(ExactDistinctCount(domains, cols), ReferenceCount(*t, cols))
        << c.a << " x " << c.b;
    // Every row its own group: GEE sees only singletons and scales to N.
    EXPECT_EQ(GeeEstimateFromSample(domains, cols, 1000000), 1000000u);
  }
  // The executor keys on raw codes and keeps its own budget: the same
  // 513 x 512 doubles (two 62-bit patterns) cannot even pack.
  TablePtr t = ProductTable(513, 512);
  EXPECT_EQ(PlanAggKernel(*t, ColumnSet{0, 1}).kernel, AggKernel::kMultiWord);
}

}  // namespace
}  // namespace gbmqo

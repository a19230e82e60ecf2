// Plan goldens: statistics unchanged => plans unchanged. The four request
// sets of the paper's Tables 2-3 (lineitem SC and CONT, sales SC, nref SC)
// are optimized and executed cold, each on a fresh Session over 20,000-row
// relations (lineitem seed 1, sales seed 2, nref seed 3), with exact and
// with sampled statistics. Plan cost, naive cost, candidates costed, the
// EXPLAIN text and the executed work units are pinned to values captured
// before the statistics keyed on compacted column domains: any change in
// a distinct count or GEE estimate would move at least one of them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "data/nref_gen.h"
#include "data/sales_gen.h"
#include "data/tpch_gen.h"

namespace gbmqo {
namespace {

constexpr size_t kRows = 20000;
/// Sampled mode draws a 5,000-row sample; at the default (100,000) a
/// 20,000-row relation would fall back to exact counts.
constexpr uint64_t kSampleRows = 5000;

struct Golden {
  const char* set;
  DistinctMode mode;
  double cost;
  double naive_cost;
  uint64_t candidates_costed;
  double work_units;
  const char* explain;
};

std::string SingleSpec(const Table& table, const std::vector<int>& columns) {
  std::string spec = "SINGLE(";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) spec += ", ";
    spec += table.schema().column(columns[i]).name;
  }
  return spec + ")";
}

/// (relation, spec) of the named request set.
std::pair<TablePtr, std::string> RequestSet(const std::string& name) {
  if (name == "lineitem_sc" || name == "lineitem_cont") {
    TablePtr t = GenerateLineitem({.rows = kRows, .seed = 1});
    if (name == "lineitem_sc") {
      return {t, SingleSpec(*t, LineitemAnalysisColumns())};
    }
    return {t,
            "(l_shipdate), (l_commitdate), (l_receiptdate), "
            "(l_shipdate, l_commitdate), (l_shipdate, l_receiptdate), "
            "(l_commitdate, l_receiptdate)"};
  }
  if (name == "sales_sc") {
    TablePtr t = GenerateSales({.rows = kRows, .seed = 2});
    return {t, SingleSpec(*t, SalesAllColumns())};
  }
  TablePtr t = GenerateNref({.rows = kRows, .seed = 3});
  return {t, SingleSpec(*t, NrefAllColumns())};
}

// Captured with the row-by-row sample copy and raw-code statistics keys
// that preceded compacted domains (exact and GEE counts are unchanged).
constexpr Golden kGoldens[] = {
    {"lineitem_sc", DistinctMode::kExact,
     15975324.033209499, 34984687.939403087, 164, 15662646.062009502,
     R"(R (20000 rows, 143 B/row) total-cost≈1.598e+07
├─ {l_comment}* rows≈10651 subtree-cost≈3.07e+06
├─ {l_discount,l_tax} rows≈99 subtree-cost≈2.97e+06 spool≈2.4KB [DF]
│  ├─ {l_discount}* rows≈11 subtree-cost≈2.75e+03
│  └─ {l_tax}* rows≈9 subtree-cost≈2.72e+03
├─ {l_shipdate,l_receiptdate} rows≈1920 subtree-cost≈3.12e+06 spool≈46.1KB [DF]
│  ├─ {l_shipdate}* rows≈64 subtree-cost≈5e+04
│  └─ {l_receiptdate}* rows≈93 subtree-cost≈5.04e+04
├─ {l_quantity,l_returnflag,l_linestatus,l_shipinstruct} rows≈1200 subtree-cost≈3.13e+06 spool≈50.3KB [BF]
│  ├─ {l_quantity}* rows≈50 subtree-cost≈5.29e+04
│  └─ {l_returnflag,l_linestatus,l_shipinstruct} rows≈24 subtree-cost≈5.66e+04 spool≈815B [DF]
│     ├─ {l_shipinstruct}* rows≈4 subtree-cost≈915
│     └─ {l_returnflag,l_linestatus} rows≈6 subtree-cost≈1.48e+03 spool≈108B [DF]
│        ├─ {l_returnflag}* rows≈3 subtree-cost≈165
│        └─ {l_linestatus}* rows≈2 subtree-cost≈149
└─ {l_linenumber,l_commitdate,l_shipmode} rows≈5239 subtree-cost≈3.68e+06 spool≈169.1KB [DF]
   ├─ {l_commitdate}* rows≈124 subtree-cost≈1.79e+05
   └─ {l_linenumber,l_shipmode} rows≈49 subtree-cost≈1.83e+05 spool≈1.2KB [DF]
      ├─ {l_linenumber}* rows≈7 subtree-cost≈1.38e+03
      └─ {l_shipmode}* rows≈7 subtree-cost≈1.38e+03
)"},
    {"lineitem_cont", DistinctMode::kExact,
     9366252, 17587176, 11, 9172620,
     R"(R (20000 rows, 143 B/row) total-cost≈9.366e+06
├─ {l_commitdate,l_receiptdate}* rows≈6013 subtree-cost≈3e+06
├─ {l_shipdate,l_receiptdate}* rows≈1920 subtree-cost≈3.12e+06 spool≈46.1KB [DF]
│  ├─ {l_shipdate}* rows≈64 subtree-cost≈5e+04
│  └─ {l_receiptdate}* rows≈93 subtree-cost≈5.04e+04
└─ {l_shipdate,l_commitdate}* rows≈3888 subtree-cost≈3.25e+06 spool≈93.3KB [DF]
   └─ {l_commitdate}* rows≈124 subtree-cost≈1.01e+05
)"},
    {"sales_sc", DistinctMode::kExact,
     22307172.274525933, 41612940.653579675, 205, 21717423.296525937,
     R"(R (20000 rows, 133 B/row) total-cost≈2.231e+07
├─ {customer_id}* rows≈3977 subtree-cost≈2.75e+06
├─ {promo_id}* rows≈201 subtree-cost≈2.69e+06
├─ {unit_price}* rows≈16500 subtree-cost≈3.87e+06
├─ {channel,sales_quantity,payment_type} rows≈400 subtree-cost≈2.75e+06 spool≈13.7KB [DF]
│  ├─ {sales_quantity}* rows≈20 subtree-cost≈1.46e+04
│  └─ {channel,payment_type} rows≈20 subtree-cost≈1.69e+04 spool≈524B [DF]
│     ├─ {channel}* rows≈4 subtree-cost≈618
│     └─ {payment_type}* rows≈5 subtree-cost≈634
├─ {store_id,region,state} rows≈500 subtree-cost≈2.78e+06 spool≈17.7KB [DF]
│  ├─ {store_id}* rows≈500 subtree-cost≈2.65e+04
│  └─ {region,state} rows≈50 subtree-cost≈2.58e+04 spool≈1.4KB [DF]
│     ├─ {region}* rows≈10 subtree-cost≈1.61e+03
│     └─ {state}* rows≈50 subtree-cost≈2.25e+03
├─ {product_id,category,subcategory,brand} rows≈2000 subtree-cost≈3.38e+06 spool≈94.0KB [DF]
│  ├─ {product_id}* rows≈2000 subtree-cost≈1.29e+05
│  ├─ {brand}* rows≈300 subtree-cost≈1.02e+05
│  └─ {category,subcategory} rows≈120 subtree-cost≈1.15e+05 spool≈3.2KB [DF]
│     ├─ {category}* rows≈25 subtree-cost≈3.82e+03
│     └─ {subcategory}* rows≈120 subtree-cost≈5.34e+03
└─ {order_date,ship_date} rows≈7856 subtree-cost≈4.09e+06 spool≈188.5KB [DF]
   ├─ {order_date}* rows≈1096 subtree-cost≈2.18e+05
   └─ {ship_date}* rows≈1103 subtree-cost≈2.18e+05
)"},
    {"nref_sc", DistinctMode::kExact,
     12282600.10118812, 16707142, 49, 11911206.881188119,
     R"(R (20000 rows, 80 B/row) total-cost≈1.228e+07
├─ {neighbor_id}* rows≈2000 subtree-cost≈1.67e+06
├─ {align_len}* rows≈2000 subtree-cost≈1.67e+06
├─ {start_pos}* rows≈4913 subtree-cost≈1.72e+06
├─ {end_pos}* rows≈6011 subtree-cost≈1.73e+06
├─ {db_source,e_value_bucket} rows≈140 subtree-cost≈1.66e+06 spool≈3.4KB [DF]
│  ├─ {db_source}* rows≈7 subtree-cost≈3.74e+03
│  └─ {e_value_bucket}* rows≈20 subtree-cost≈3.95e+03
├─ {score,identity_pct} rows≈1010 subtree-cost≈1.77e+06 spool≈24.2KB [DF]
│  ├─ {score}* rows≈1010 subtree-cost≈4.19e+04
│  └─ {identity_pct}* rows≈101 subtree-cost≈2.74e+04
└─ {seq_id,organism} rows≈2000 subtree-cost≈2.06e+06 spool≈48.0KB [DF]
   ├─ {seq_id}* rows≈2000 subtree-cost≈8.3e+04
   └─ {organism}* rows≈2000 subtree-cost≈8.3e+04
)"},
    {"lineitem_sc", DistinctMode::kSampled,
     15887171.139609497, 34960303.939403087, 164, 15662646.062009502,
     R"(R (20000 rows, 143 B/row) total-cost≈1.589e+07
├─ {l_comment}* rows≈9126 subtree-cost≈3.04e+06
├─ {l_discount,l_tax} rows≈99 subtree-cost≈2.97e+06 spool≈2.4KB [DF]
│  ├─ {l_discount}* rows≈11 subtree-cost≈2.75e+03
│  └─ {l_tax}* rows≈9 subtree-cost≈2.72e+03
├─ {l_quantity,l_returnflag,l_linestatus,l_shipinstruct} rows≈1264 subtree-cost≈3.14e+06 spool≈53.0KB [BF]
│  ├─ {l_quantity}* rows≈50 subtree-cost≈5.57e+04
│  └─ {l_returnflag,l_linestatus,l_shipinstruct} rows≈24 subtree-cost≈5.93e+04 spool≈815B [DF]
│     ├─ {l_shipinstruct}* rows≈4 subtree-cost≈915
│     └─ {l_returnflag,l_linestatus} rows≈6 subtree-cost≈1.48e+03 spool≈108B [DF]
│        ├─ {l_returnflag}* rows≈3 subtree-cost≈165
│        └─ {l_linestatus}* rows≈2 subtree-cost≈149
├─ {l_shipdate,l_receiptdate} rows≈2091 subtree-cost≈3.14e+06 spool≈50.2KB [DF]
│  ├─ {l_shipdate}* rows≈64 subtree-cost≈5.43e+04
│  └─ {l_receiptdate}* rows≈94 subtree-cost≈5.48e+04
└─ {l_linenumber,l_commitdate,l_shipmode} rows≈4595 subtree-cost≈3.59e+06 spool≈148.3KB [DF]
   ├─ {l_commitdate}* rows≈124 subtree-cost≈1.57e+05
   └─ {l_linenumber,l_shipmode} rows≈49 subtree-cost≈1.61e+05 spool≈1.2KB [DF]
      ├─ {l_linenumber}* rows≈7 subtree-cost≈1.38e+03
      └─ {l_shipmode}* rows≈7 subtree-cost≈1.38e+03
)"},
    {"lineitem_cont", DistinctMode::kSampled,
     9368281, 17576392, 11, 9172620,
     R"(R (20000 rows, 143 B/row) total-cost≈9.368e+06
├─ {l_commitdate,l_receiptdate}* rows≈5223 subtree-cost≈2.98e+06
├─ {l_shipdate,l_receiptdate}* rows≈2091 subtree-cost≈3.14e+06 spool≈50.2KB [DF]
│  ├─ {l_shipdate}* rows≈64 subtree-cost≈5.43e+04
│  └─ {l_receiptdate}* rows≈94 subtree-cost≈5.48e+04
└─ {l_shipdate,l_commitdate}* rows≈3832 subtree-cost≈3.24e+06 spool≈92.0KB [DF]
   └─ {l_commitdate}* rows≈124 subtree-cost≈9.97e+04
)"},
    {"sales_sc", DistinctMode::kSampled,
     21841607.994365394, 41503134.912636273, 207, 21610839.296525937,
     R"(R (20000 rows, 133 B/row) total-cost≈2.184e+07
├─ {customer_id}* rows≈3892 subtree-cost≈2.75e+06
├─ {unit_price}* rows≈14826 subtree-cost≈3.76e+06
├─ {store_id,region,state} rows≈500 subtree-cost≈2.78e+06 spool≈17.7KB [DF]
│  ├─ {store_id}* rows≈500 subtree-cost≈2.65e+04
│  └─ {region,state} rows≈50 subtree-cost≈2.58e+04 spool≈1.4KB [DF]
│     ├─ {region}* rows≈10 subtree-cost≈1.61e+03
│     └─ {state}* rows≈50 subtree-cost≈2.25e+03
├─ {product_id,category,subcategory,brand} rows≈2192 subtree-cost≈3.44e+06 spool≈103.0KB [DF]
│  ├─ {product_id}* rows≈2192 subtree-cost≈1.41e+05
│  ├─ {brand}* rows≈300 subtree-cost≈1.11e+05
│  └─ {category,subcategory} rows≈120 subtree-cost≈1.24e+05 spool≈3.2KB [DF]
│     ├─ {category}* rows≈25 subtree-cost≈3.82e+03
│     └─ {subcategory}* rows≈120 subtree-cost≈5.34e+03
├─ {order_date,ship_date} rows≈6534 subtree-cost≈3.86e+06 spool≈156.8KB [DF]
│  ├─ {order_date}* rows≈1148 subtree-cost≈1.85e+05
│  └─ {ship_date}* rows≈1154 subtree-cost≈1.85e+05
└─ {promo_id,channel,sales_quantity,payment_type} rows≈13244 subtree-cost≈5.25e+06 spool≈560.8KB [BF]
   ├─ {promo_id}* rows≈201 subtree-cost≈5.84e+05
   └─ {channel,sales_quantity,payment_type} rows≈400 subtree-cost≈6.46e+05 spool≈13.7KB [DF]
      ├─ {sales_quantity}* rows≈20 subtree-cost≈1.46e+04
      └─ {channel,payment_type} rows≈20 subtree-cost≈1.69e+04 spool≈524B [DF]
         ├─ {channel}* rows≈4 subtree-cost≈618
         └─ {payment_type}* rows≈5 subtree-cost≈634
)"},
    {"nref_sc", DistinctMode::kSampled,
     12322894.484682467, 16704310, 57, 11911206.881188119,
     R"(R (20000 rows, 80 B/row) total-cost≈1.232e+07
├─ {neighbor_id}* rows≈2152 subtree-cost≈1.67e+06
├─ {align_len}* rows≈2212 subtree-cost≈1.67e+06
├─ {start_pos}* rows≈4547 subtree-cost≈1.71e+06
├─ {end_pos}* rows≈5348 subtree-cost≈1.72e+06
├─ {db_source,e_value_bucket} rows≈140 subtree-cost≈1.66e+06 spool≈3.4KB [DF]
│  ├─ {db_source}* rows≈7 subtree-cost≈3.74e+03
│  └─ {e_value_bucket}* rows≈20 subtree-cost≈3.95e+03
├─ {score,identity_pct} rows≈1036 subtree-cost≈1.78e+06 spool≈24.9KB [DF]
│  ├─ {score}* rows≈1036 subtree-cost≈4.3e+04
│  └─ {identity_pct}* rows≈101 subtree-cost≈2.8e+04
└─ {seq_id,organism} rows≈2231 subtree-cost≈2.11e+06 spool≈53.5KB [DF]
   ├─ {seq_id}* rows≈2231 subtree-cost≈9.26e+04
   └─ {organism}* rows≈2231 subtree-cost≈9.26e+04
)"},
};

TEST(PlanGoldenTest, PaperRequestSetsPlanAndExecuteAsBefore) {
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(std::string(g.set) +
                 (g.mode == DistinctMode::kExact ? " exact" : " sampled"));
    auto [table, spec] = RequestSet(g.set);
    SessionOptions options;
    options.parallelism = 1;
    options.stats_mode = g.mode;
    options.sample_size = kSampleRows;
    Session session(table, options);
    auto requests = session.Parse(spec);
    ASSERT_TRUE(requests.ok()) << requests.status().ToString();
    auto opt = session.Optimize(*requests);
    ASSERT_TRUE(opt.ok()) << opt.status().ToString();
    auto explain = session.Explain(spec);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    auto exec = session.ExecutePlan(opt->plan, *requests);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(opt->cost, g.cost);
    EXPECT_EQ(opt->naive_cost, g.naive_cost);
    EXPECT_EQ(opt->stats.candidates_costed, g.candidates_costed);
    EXPECT_EQ(exec->counters.WorkUnits(), g.work_units);
    EXPECT_EQ(*explain, g.explain);
  }
}

}  // namespace
}  // namespace gbmqo

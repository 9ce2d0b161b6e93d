// Query subsystem (src/query/): the charged sizes of plans, batches and
// partials, predicate NULL semantics, aggregation-partial merge algebra,
// and the seeded differential test the pushdown design is pinned by: every
// query runs three ways — client-side reference evaluation over a plain
// Scan, pushdown on the primaries, pushdown on the replicas — and all three
// must agree bit-for-bit (rows and rendered aggregates alike).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/mini_cluster.h"
#include "src/query/column_batch.h"
#include "src/query/executor.h"
#include "src/query/plan.h"
#include "src/util/random.h"

namespace logbase::query {
namespace {

using Op = Predicate::Op;

// ---------------------------------------------------------------------------
// Plan layer units.
// ---------------------------------------------------------------------------

// Golden request and response sizes. Plans, batches and partials reach
// their peers as values; these byte counts are what the network model
// charges for them, so a changed count moves every virtual-time figure
// that ships one. Each is the byte length of the layout its EncodedSize()
// documents.

TEST(QueryPlanTest, EncodedSizeIsPinned) {
  // Match-all: version, two empty keys, kTrue, no projection, no
  // aggregation (kind, empty column, value kind, group-by 0).
  EXPECT_EQ(QueryPlan{}.EncodedSize(), 9u);

  // The htap_transfer shape: one branch's key range, SUM over bal, bal >= n,
  // projection {bal}.
  QueryPlan htap;
  htap.start_key = "acct00000032";
  htap.end_key = "acct00000064";
  htap.predicate = Predicate::Cmp(Op::kGe, "bal", Value::Int64(100));
  htap.projection.columns = {"bal"};
  htap.aggregation.kind = Aggregation::Kind::kSum;
  htap.aggregation.column = "bal";
  EXPECT_EQ(htap.EncodedSize(), 53u);

  // Nested And/Or with a bytes operand; MIN over bytes, grouped by a
  // 4-byte key prefix.
  QueryPlan nested;
  nested.start_key = "k0010";
  nested.end_key = "k0090";
  nested.predicate = Predicate::And(
      {Predicate::Cmp(Op::kGe, "f0", Value::Int64(-42)),
       Predicate::Or({Predicate::Cmp(Op::kEq, "f1", Value::Bytes("red")),
                      Predicate::Cmp(Op::kNe, "f1", Value::Bytes("blue"))})});
  nested.projection.columns = {"f0", "f1"};
  nested.aggregation.kind = Aggregation::Kind::kMin;
  nested.aggregation.column = "f1";
  nested.aggregation.value_kind = Value::Kind::kBytes;
  nested.aggregation.group_by_prefix_len = 4;
  EXPECT_EQ(nested.EncodedSize(), 62u);
}

TEST(QueryPlanTest, MissingAndUnparsableCellsNeverMatch) {
  std::map<std::string, std::string> row = {{"f0", "not-a-number"},
                                            {"f1", "red"}};
  // An absent column fails every comparison, even != .
  for (Op op : {Op::kEq, Op::kNe, Op::kLt, Op::kLe, Op::kGt, Op::kGe}) {
    EXPECT_FALSE(Predicate::Cmp(op, "missing", Value::Bytes("x")).Matches(row));
    // An unparsable cell fails every int comparison the same way.
    EXPECT_FALSE(Predicate::Cmp(op, "f0", Value::Int64(7)).Matches(row));
  }
  EXPECT_TRUE(Predicate::Cmp(Op::kEq, "f1", Value::Bytes("red")).Matches(row));
  // NULL semantics propagate through the combinators: OR of two failed
  // comparisons is false, AND with one failed comparison is false.
  EXPECT_FALSE(
      Predicate::Or({Predicate::Cmp(Op::kLt, "f0", Value::Int64(7)),
                     Predicate::Cmp(Op::kEq, "missing", Value::Bytes("x"))})
          .Matches(row));
  EXPECT_FALSE(
      Predicate::And({Predicate::Cmp(Op::kEq, "f1", Value::Bytes("red")),
                      Predicate::Cmp(Op::kGe, "f0", Value::Int64(0))})
          .Matches(row));
}

TEST(QueryPlanTest, ParseInt64IsStrict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64(Slice("0"), &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64(Slice("-9223372036854775808"), &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_TRUE(ParseInt64(Slice("9223372036854775807"), &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_FALSE(ParseInt64(Slice(""), &v));
  EXPECT_FALSE(ParseInt64(Slice("12x"), &v));
  EXPECT_FALSE(ParseInt64(Slice(" 12"), &v));
  EXPECT_FALSE(ParseInt64(Slice("9223372036854775808"), &v));  // overflow
}

TEST(QueryPlanTest, PrefixSuccessor) {
  EXPECT_EQ(PrefixSuccessor("ab"), "ac");
  EXPECT_EQ(PrefixSuccessor(std::string("a\xff")), "b");
  EXPECT_EQ(PrefixSuccessor(""), "");
  EXPECT_EQ(PrefixSuccessor(std::string("\xff\xff")), "");
}

TEST(ColumnBatchTest, EncodedSizeIsPinned) {
  ColumnBatch batch;
  batch.keys = {"a", "bb", "ccc"};
  batch.timestamps = {1, 200, 30000};
  BatchColumn c0;
  c0.name = "f0";
  c0.cells = {"1", "", "3"};
  c0.present = {1, 0, 1};  // middle cell absent (not present-but-empty)
  BatchColumn c1;
  c1.name = "_raw";
  c1.cells = {"x", "y", std::string(100, 'z')};
  c1.present = {1, 1, 1};
  batch.columns = {c0, c1};
  // An absent cell costs its presence byte only.
  EXPECT_EQ(batch.EncodedSize(), 140u);
}

TEST(AggResultTest, MergeIsOrderIndependent) {
  auto bucket = [](uint64_t count, int64_t sum, int64_t lo, int64_t hi) {
    AggBucket b;
    b.count = count;
    b.sum = sum;
    b.has_minmax = true;
    b.min = Value::Int64(lo);
    b.max = Value::Int64(hi);
    return b;
  };
  AggResult a, b, c;
  a.groups["g1"] = bucket(2, 10, -5, 9);
  a.groups["g2"] = bucket(1, 7, 7, 7);
  b.groups["g1"] = bucket(3, -4, -9, 2);
  c.groups["g3"] = bucket(1, 1, 1, 1);
  c.groups["g2"] = bucket(2, 3, -1, 30);

  Aggregation spec;
  spec.kind = Aggregation::Kind::kSum;
  AggResult abc = a;
  abc.Merge(b);
  abc.Merge(c);
  AggResult cba = c;
  cba.Merge(b);
  cba.Merge(a);
  std::string render = abc.Render(spec);
  EXPECT_EQ(render, cba.Render(spec));
  EXPECT_EQ(render, "g1\t6\ng2\t10\ng3\t1\n");
  spec.kind = Aggregation::Kind::kMin;
  EXPECT_EQ(abc.Render(spec), "g1\t-9\ng2\t-1\ng3\t1\n");
  spec.kind = Aggregation::Kind::kMax;
  EXPECT_EQ(abc.Render(spec), "g1\t9\ng2\t30\ng3\t1\n");
}

TEST(AggResultTest, EncodedSizeIsPinned) {
  AggResult partials;
  AggBucket ints;
  ints.count = 300;
  ints.sum = -12;
  ints.has_minmax = true;
  ints.min = Value::Int64(-9);
  ints.max = Value::Int64(30);
  partials.groups["g1"] = ints;
  AggBucket bytes;
  bytes.count = 2;
  bytes.has_minmax = true;
  bytes.min = Value::Bytes("apple");
  bytes.max = Value::Bytes("pear");
  partials.groups["g2"] = bytes;
  partials.groups["g3"].count = 1;  // no min/max: one flag byte, no values
  EXPECT_EQ(partials.EncodedSize(), 72u);
}

// ---------------------------------------------------------------------------
// The seeded differential test: three execution paths, one answer.
// ---------------------------------------------------------------------------

/// A row's projection under the reference path: per projected column a
/// (present, cell) pair, exactly what a shipped batch carries.
struct RefRow {
  std::string key;
  uint64_t timestamp = 0;
  std::vector<std::pair<bool, std::string>> cells;
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04d", i);
  return buf;
}

class QueryDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, QueryDifferentialTest,
                         ::testing::Values(17ull, 4242ull));

TEST_P(QueryDifferentialTest, ThreeWayAgreement) {
  cluster::MiniClusterOptions options;
  options.num_nodes = 3;
  options.num_replicas = 2;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()
                  ->CreateTable("t", {"f0", "f1", "f2"}, {{"f0", "f1", "f2"}},
                                {Key(40), Key(80)})
                  .ok());
  auto client = cluster.NewClient(0);

  // Seeded data with deliberate mess: missing f0, unparsable f0, and a few
  // values that are not column-encoded at all. All three paths must treat
  // every one of these identically (NULL semantics).
  Random rnd(GetParam());
  const char* colors[] = {"red", "green", "blue", "amber"};
  const int kRows = 120;
  for (int i = 0; i < kRows; i++) {
    std::string value;
    uint64_t mess = rnd.Uniform(100);
    if (mess < 3) {
      value = "opaque-not-column-encoded";
    } else {
      std::map<std::string, std::string> columns;
      if (mess >= 8) {
        columns["f0"] = mess < 13 ? "NaN"
                                  : std::to_string(static_cast<int64_t>(
                                        rnd.Uniform(1000)) - 200);
      }
      columns["f1"] = colors[rnd.Uniform(4)];
      columns["f2"] = std::string(100, static_cast<char>('a' + i % 26));
      value = EncodeColumnMap(columns);
    }
    ASSERT_TRUE(client->Put("t", 0, Key(i), value, {}).ok()) << i;
  }

  // Attach one replica per tablet and catch them up; after the tick the
  // replica watermark covers every write above, so replica-served answers
  // must equal primary-served ones exactly.
  for (const auto& [uid, location] :
       cluster.active_master()->AssignmentsSnapshot()) {
    auto added = cluster.active_master()->AddReplica(uid);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();

  std::vector<QueryPlan> plans;
  {
    QueryPlan p;  // match-all, raw rows: the canonical Scan plan
    plans.push_back(p);
    p.start_key = Key(13);
    p.end_key = Key(97);
    p.predicate = Predicate::Cmp(Op::kLt, "f0", Value::Int64(-100));
    plans.push_back(p);  // selective
    p.predicate = Predicate::And(
        {Predicate::Cmp(Op::kGe, "f0", Value::Int64(0)),
         Predicate::Cmp(Op::kEq, "f1", Value::Bytes("red"))});
    p.projection.columns = {"f1", "f0", "missing-col"};
    plans.push_back(p);  // conjunction + projection incl. a missing column
    p = QueryPlan();
    p.predicate = Predicate::Or(
        {Predicate::Cmp(Op::kEq, "f1", Value::Bytes("blue")),
         Predicate::Cmp(Op::kGt, "f0", Value::Int64(650))});
    p.projection.columns = {"f2"};
    plans.push_back(p);  // disjunction
    p = QueryPlan();
    p.aggregation.kind = Aggregation::Kind::kCount;
    p.aggregation.group_by_prefix_len = 4;  // "k00x" buckets of ten
    plans.push_back(p);
    p.aggregation.kind = Aggregation::Kind::kSum;
    p.aggregation.column = "f0";
    plans.push_back(p);
    p.aggregation.kind = Aggregation::Kind::kMin;
    p.aggregation.group_by_prefix_len = 0;
    p.predicate = Predicate::Cmp(Op::kNe, "f1", Value::Bytes("green"));
    plans.push_back(p);
    p.aggregation.kind = Aggregation::Kind::kMax;
    p.aggregation.column = "f1";
    p.aggregation.value_kind = Value::Kind::kBytes;
    plans.push_back(p);
    p = QueryPlan();  // empty range
    p.start_key = Key(50);
    p.end_key = Key(50);
    plans.push_back(p);
    // A couple of seeded random comparisons for operand diversity.
    for (int i = 0; i < 3; i++) {
      p = QueryPlan();
      p.predicate = Predicate::Cmp(
          static_cast<Op>(1 + rnd.Uniform(6)), "f0",
          Value::Int64(static_cast<int64_t>(rnd.Uniform(1000)) - 200));
      plans.push_back(p);
    }
  }

  for (size_t plan_index = 0; plan_index < plans.size(); plan_index++) {
    const QueryPlan& plan = plans[plan_index];
    SCOPED_TRACE("plan " + std::to_string(plan_index));

    // Path 1 — client-side reference: ship every row in range (plain Scan,
    // raw values), evaluate row-at-a-time with Predicate::Matches, fold
    // aggregates with the executor's published skip rules.
    auto raw = client->Scan("t", 0, plan.start_key, plan.end_key,
                            client::ReadOptions{});
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    std::vector<RefRow> ref_rows;
    AggResult ref_agg;
    for (const tablet::ReadRow& row : *raw) {
      std::map<std::string, std::string> columns;
      DecodeColumnMap(Slice(row.value), &columns);  // undecodable: no cells
      if (!plan.predicate.IsTrue() && !plan.predicate.Matches(columns)) {
        continue;
      }
      if (plan.aggregation.enabled()) {
        const Aggregation& spec = plan.aggregation;
        std::string group =
            spec.group_by_prefix_len > 0
                ? row.key.substr(0, std::min<size_t>(spec.group_by_prefix_len,
                                                     row.key.size()))
                : std::string();
        AggBucket& bucket = ref_agg.groups[group];
        if (spec.kind == Aggregation::Kind::kCount) {
          bucket.count++;
          continue;
        }
        auto cell = columns.find(spec.column);
        if (cell == columns.end()) continue;
        Value v;
        if (spec.value_kind == Value::Kind::kInt64) {
          int64_t parsed;
          if (!ParseInt64(Slice(cell->second), &parsed)) continue;
          v = Value::Int64(parsed);
        } else {
          v = Value::Bytes(cell->second);
        }
        bucket.count++;
        if (spec.kind == Aggregation::Kind::kSum) {
          bucket.sum += v.i64;
          continue;
        }
        if (!bucket.has_minmax) {
          bucket.min = v;
          bucket.max = v;
          bucket.has_minmax = true;
        } else {
          if (v.Compare(bucket.min) < 0) bucket.min = v;
          if (v.Compare(bucket.max) > 0) bucket.max = v;
        }
        continue;
      }
      RefRow out;
      out.key = row.key;
      out.timestamp = row.timestamp;
      if (plan.projection.empty()) {
        out.cells.emplace_back(true, row.value);
      } else {
        for (const std::string& name : plan.projection.columns) {
          auto it = columns.find(name);
          out.cells.emplace_back(it != columns.end(),
                                 it != columns.end() ? it->second
                                                     : std::string());
        }
      }
      ref_rows.push_back(std::move(out));
    }

    // Paths 2 and 3 — pushdown on the primaries, pushdown on the replicas.
    for (bool via_replica : {false, true}) {
      SCOPED_TRACE(via_replica ? "replica pushdown" : "primary pushdown");
      client::QueryOptions query_options;
      query_options.read.allow_stale = via_replica;
      query_options.batch_rows = 32;  // several batches per tablet
      auto result = client->Query("t", 0, plan, query_options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->tablets_queried, 0u);
      if (via_replica) {
        // Every tablet has a caught-up replica, so nothing falls back.
        EXPECT_EQ(result->tablets_from_replica, result->tablets_queried);
      } else {
        EXPECT_EQ(result->tablets_from_replica, 0u);
      }

      if (plan.aggregation.enabled()) {
        ASSERT_TRUE(result->aggregated);
        EXPECT_EQ(result->agg.Render(plan.aggregation),
                  ref_agg.Render(plan.aggregation));
        continue;
      }
      ASSERT_FALSE(result->aggregated);
      std::vector<RefRow> got;
      for (const ColumnBatch& batch : result->batches) {
        for (size_t i = 0; i < batch.NumRows(); i++) {
          RefRow row;
          row.key = batch.keys[i];
          row.timestamp = batch.timestamps[i];
          for (const BatchColumn& column : batch.columns) {
            row.cells.emplace_back(column.present[i] != 0, column.cells[i]);
          }
          got.push_back(std::move(row));
        }
      }
      ASSERT_EQ(got.size(), ref_rows.size());
      for (size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].key, ref_rows[i].key) << i;
        EXPECT_EQ(got[i].timestamp, ref_rows[i].timestamp) << i;
        ASSERT_EQ(got[i].cells.size(), ref_rows[i].cells.size()) << i;
        for (size_t c = 0; c < got[i].cells.size(); c++) {
          EXPECT_EQ(got[i].cells[c].first, ref_rows[i].cells[c].first)
              << i << "/" << c;
          EXPECT_EQ(got[i].cells[c].second, ref_rows[i].cells[c].second)
              << i << "/" << c;
        }
      }
    }
  }
}

// The physical claim behind pushdown: a selective predicate or an
// aggregation ships a small fraction of the bytes a row-shipping scan
// moves. (The throughput claim lives in bench_fig10_range_scan.)
TEST(QueryPushdownTest, SelectivePlansShipFewerBytes) {
  cluster::MiniClusterOptions options;
  options.num_nodes = 3;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()
                  ->CreateTable("t", {"f0", "f2"}, {{"f0", "f2"}},
                                {Key(40), Key(80)})
                  .ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 120; i++) {
    std::map<std::string, std::string> columns;
    columns["f0"] = std::to_string(i);
    columns["f2"] = std::string(200, 'p');
    ASSERT_TRUE(
        client->Put("t", 0, Key(i), EncodeColumnMap(columns), {}).ok());
  }

  QueryPlan all;  // the Scan-equivalent plan: every row, full values
  auto full = client->Query("t", 0, all, {});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->rows_returned, 120u);

  QueryPlan selective;  // ~10% of rows survive
  selective.predicate = Predicate::Cmp(Op::kLt, "f0", Value::Int64(12));
  auto filtered = client->Query("t", 0, selective, {});
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->rows_returned, 12u);
  EXPECT_EQ(filtered->rows_scanned, 120u);
  EXPECT_LT(filtered->bytes_shipped * 5, full->bytes_shipped);

  QueryPlan count;  // partials only: near-zero bytes
  count.aggregation.kind = Aggregation::Kind::kCount;
  auto counted = client->Query("t", 0, count, {});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->agg.Render(count.aggregation), "\t120\n");
  EXPECT_LT(counted->bytes_shipped * 100, full->bytes_shipped);
}

}  // namespace
}  // namespace logbase::query

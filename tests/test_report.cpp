// Unit tests: machine-readable run reports (CSV/JSON), the schema
// validation in RunReport::add, the Stopwatch monotonic-clock pin, the
// DistResult flattening, and the counter table that drives it.
#include "stats/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "parallel/report.hpp"
#include "seq/dataset.hpp"
#include "stats/stopwatch.hpp"

namespace reptile::stats {
namespace {

TEST(RunReport, CsvHasHeaderAndRows) {
  RunReport r("demo");
  r.record().add("rank", 0).add("time", 1.5);
  r.record().add("rank", 1).add("time", 2.0);
  EXPECT_EQ(r.to_csv(), "rank,time\n0,1.5\n1,2\n");
}

TEST(RunReport, IntegersRenderWithoutDecimalPoint) {
  RunReport r("ints");
  r.record().add("big", 123456789.0).add("frac", 0.25);
  const auto csv = r.to_csv();
  EXPECT_NE(csv.find("123456789,"), std::string::npos);
  EXPECT_EQ(csv.find("123456789.0"), std::string::npos);
  EXPECT_NE(csv.find("0.25"), std::string::npos);
}

TEST(RunReport, JsonIsWellFormedForSimpleRecords) {
  RunReport r("j");
  r.record().add("a", 1).add("b", 2.5);
  EXPECT_EQ(r.to_json(), R"({"title":"j","records":[{"a":1,"b":2.5}]})");
}

TEST(RunReport, JsonEscapesQuotesAndBackslashes) {
  RunReport r("say \"hi\" \\ there");
  r.record().add("x", 1);
  const auto json = r.to_json();
  EXPECT_NE(json.find(R"(say \"hi\" \\ there)"), std::string::npos);
}

TEST(RunReport, EmptyReportStillRenders) {
  RunReport r("empty");
  EXPECT_EQ(r.to_csv(), "\n");
  EXPECT_EQ(r.to_json(), R"({"title":"empty","records":[]})");
  EXPECT_EQ(r.size(), 0u);
}

TEST(RunReport, SchemaComesFromFirstRecord) {
  RunReport r("s");
  r.record().add("one", 1).add("two", 2);
  r.record().add("one", 3).add("two", 4);
  EXPECT_EQ(r.schema(), (std::vector<std::string>{"one", "two"}));
}

TEST(RunReport, LaterRecordsMayOmitTrailingFields) {
  RunReport r("s");
  r.record().add("one", 1).add("two", 2);
  r.record().add("one", 3);  // legal: omitted trailing field renders as 0
  EXPECT_EQ(r.to_csv(), "one,two\n1,2\n3,\n");
}

TEST(RunReport, RejectsUnknownFieldOnLaterRecords) {
  RunReport r("s");
  r.record().add("one", 1).add("two", 2);
  r.record().add("one", 3);
  try {
    r.add("tow", 4);  // typo'd name would silently misalign the CSV
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"tow\""), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("\"two\""), std::string::npos);
  }
}

TEST(RunReport, RejectsOutOfOrderFields) {
  RunReport r("s");
  r.record().add("one", 1).add("two", 2);
  r.record();
  EXPECT_THROW(r.add("two", 2), std::logic_error);
}

TEST(RunReport, RejectsMoreFieldsThanSchema) {
  RunReport r("s");
  r.record().add("one", 1);
  r.record().add("one", 2);
  EXPECT_THROW(r.add("extra", 3), std::logic_error);
}

TEST(RunReport, RejectsAddBeforeFirstRecord) {
  RunReport r("s");
  EXPECT_THROW(r.add("one", 1), std::logic_error);
}

TEST(Stopwatch, UsesMonotonicClockAndNeverGoesNegative) {
  // The static_asserts in stopwatch.hpp pin the clock choice at compile
  // time; this pins the observable consequence — a duration taken across
  // arbitrary scheduling can round to zero but can never be negative (a
  // wall-clock stopwatch would regress under an NTP step).
  Stopwatch watch;
  double last = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double s = watch.seconds();
    EXPECT_GE(s, 0.0);
    EXPECT_GE(s, last) << "monotonic clock went backwards";
    last = s;
  }
  watch.restart();
  EXPECT_GE(watch.seconds(), 0.0);

  Accumulator acc;
  for (int i = 0; i < 100; ++i) {
    acc.start();
    acc.stop();
  }
  EXPECT_GE(acc.seconds(), 0.0);
}

TEST(DistReport, FlattensEveryRank) {
  seq::DatasetSpec spec{"rep", 400, 60, 900};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.005;
  errors.error_rate_end = 0.01;
  const auto ds = seq::SyntheticDataset::generate(spec, errors, 17);
  parallel::DistConfig config;
  config.params.k = 10;
  config.params.tile_overlap = 4;
  config.ranks = 4;
  const auto result = parallel::run_distributed(ds.reads, config);

  const auto report = parallel::to_report(result, "test run");
  EXPECT_EQ(report.size(), 4u);
  const auto csv = report.to_csv();
  EXPECT_NE(csv.find("remote_tile_lookups"), std::string::npos);
  EXPECT_NE(csv.find("construct_seconds"), std::string::npos);
  // 4 data rows + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"records\":[{"), std::string::npos);
}

// --- the counter table -------------------------------------------------------

/// Gives the table's rows the distinct values base, base + 1, ... (plus
/// .5 in the double gauges, so a lost fraction shows).
void fill_rows(PhaseTimeline& t, std::uint64_t base) {
  for_each_counter(
      [&base](const auto&, auto& value) {
        value = static_cast<std::remove_reference_t<decltype(value)>>(
            static_cast<double>(base++) + 0.5);
      },
      t);
}

TEST(CounterTable, EveryRowReachesPrometheusAndTheReportOnce) {
  parallel::DistResult result;
  parallel::RankReport& r = result.ranks.emplace_back();
  r.rank = 3;
  fill_rows(r, 1000);
  obs::Registry& registry = obs::Registry::global();
  registry.configure(true);
  registry.publish_timeline(r, r.rank);
  const std::string text = registry.prometheus_text();
  registry.configure(false);
  const std::string json = parallel::to_report(result, "table").to_json();

  std::set<std::string> metrics, columns;
  for_each_counter(
      [&](const auto& row, const auto& value) {
        EXPECT_TRUE(metrics.insert(row.metric).second) << row.metric;
        EXPECT_TRUE(columns.insert(row.column).second) << row.column;
        std::ostringstream metric;
        metric << "# TYPE " << row.metric
               << (row.kind == CounterKind::kGauge ? " gauge\n" : " counter\n")
               << row.metric << "{rank=\"3\"} " << value << '\n';
        EXPECT_NE(text.find(metric.str()), std::string::npos) << metric.str();
        std::ostringstream column;
        column << '"' << row.column << "\":" << value << ',';
        EXPECT_NE(json.find(column.str()), std::string::npos) << column.str();
      },
      r);
  EXPECT_EQ(metrics.size(), 51u);  // 15 timeline, 4 + 23 + 9 nested
}

TEST(CounterTable, MergeSumsCountersAndKeepsTheMaxOfGauges) {
  PhaseTimeline a;
  PhaseTimeline b;
  fill_rows(a, 10);
  fill_rows(b, 500);
  a.comm_seconds = 900;  // the larger gauge is a's here, b's elsewhere
  PhaseTimeline merged = a;
  merged += b;
  for_each_counter(
      [](const auto& row, const auto& m, const auto& x, const auto& y) {
        EXPECT_EQ(m, row.kind == CounterKind::kCounter ? x + y : std::max(x, y))
            << row.column;
      },
      merged, a, b);
  EXPECT_EQ(merged.comm_seconds, 900);
  EXPECT_EQ(merged.correct_seconds, b.correct_seconds);
}

}  // namespace
}  // namespace reptile::stats

// reptile-obs: trace-output format pins, metrics registry, flight recorder.
//
// The contract under test:
//   * shards are strict JSON with the Chrome trace-event required keys per
//     phase ('X' has ts+dur, 'i' has scope, 's'/'f' pair by id, 'M' is
//     metadata) — tools/trace_merge --check and Perfetto both depend on it;
//   * a 2-rank distributed run emits stage spans for the paper's steps and
//     at least one cross-rank lookup flow (an 's' on the requester whose id
//     reappears as 'f' on the owning rank);
//   * zero-overhead pin: with trace_enabled=false and metrics off, a run
//     leaves no obs state behind — no full-trace events beyond the flight
//     recorder's rings, no registry instruments, no extra report columns —
//     so a production run is bit-identical to the seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/baseline_replicated.hpp"
#include "parallel/dist_pipeline.hpp"
#include "parallel/report.hpp"
#include "parallel/serve.hpp"
#include "seq/dataset.hpp"

namespace reptile {
namespace {

using obs::JsonValue;
using obs::Registry;
using obs::Tracer;

seq::SyntheticDataset small_dataset() {
  seq::DatasetSpec spec{"obs", 600, 60, 2500};
  seq::ErrorModelParams errors;
  errors.error_rate_start = 0.004;
  errors.error_rate_end = 0.01;
  return seq::SyntheticDataset::generate(spec, errors, 4242);
}

parallel::DistConfig traced_config(int ranks) {
  parallel::DistConfig config;
  config.params.k = 8;
  config.params.chunk_size = 64;
  config.ranks = ranks;
  config.ranks_per_node = ranks;
  config.heuristics.universal = true;
  config.trace.enabled = true;
  config.trace.metrics = true;
  return config;
}

/// Restore the default (disabled) obs state so one test's configuration
/// never leaks into another (the tracer/registry are process-wide).
struct ObsReset {
  ~ObsReset() {
    Tracer::instance().configure(obs::TraceConfig{});
    Registry::global().configure(false);
    obs::ResourceLedger::global().configure(false);
  }
};

const JsonValue& events_of(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  return *events;
}

std::string phase_of(const JsonValue& event) {
  const JsonValue* ph = event.find("ph");
  return ph != nullptr && ph->is_string() ? ph->as_string() : std::string();
}

// --- trace JSON format ----------------------------------------------------

TEST(ObsTrace, ShardsAreValidJsonWithRequiredKeysPerPhase) {
  ObsReset reset;
  const auto ds = small_dataset();
  const auto result = parallel::run_distributed(ds.reads, traced_config(2));
  ASSERT_EQ(result.corrected.size(), ds.reads.size());

  for (int rank = 0; rank < 2; ++rank) {
    const JsonValue doc = obs::json_parse(Tracer::instance().to_json(rank));
    ASSERT_TRUE(doc.is_object());
    const JsonValue* unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->as_string(), "ms");
    const JsonValue& events = events_of(doc);
    ASSERT_FALSE(events.as_array().empty());
    for (const JsonValue& event : events.as_array()) {
      ASSERT_TRUE(event.is_object());
      ASSERT_TRUE(event.has("name"));
      ASSERT_TRUE(event.has("ph"));
      ASSERT_TRUE(event.has("pid"));
      ASSERT_TRUE(event.has("tid"));
      const std::string ph = phase_of(event);
      if (ph == "M") continue;
      ASSERT_TRUE(event.has("cat")) << "phase " << ph;
      ASSERT_TRUE(event.has("ts")) << "phase " << ph;
      if (ph == "X") {
        ASSERT_TRUE(event.has("dur"));
        EXPECT_GE(event.find("dur")->as_number(), 0.0);
      } else if (ph == "i") {
        ASSERT_TRUE(event.has("s"));  // instant scope
      } else if (ph == "s" || ph == "f") {
        ASSERT_TRUE(event.has("id"));
        EXPECT_TRUE(event.find("id")->is_string());
        if (ph == "f") {
          ASSERT_TRUE(event.has("bp"));
          EXPECT_EQ(event.find("bp")->as_string(), "e");
        }
      } else if (ph == "C") {
        // Ledger counter: the tracked value is always non-negative bytes.
        const JsonValue* args = event.find("args");
        ASSERT_NE(args, nullptr);
        const JsonValue* bytes = args->find("bytes");
        ASSERT_NE(bytes, nullptr);
        EXPECT_GE(bytes->as_number(), 0.0);
      } else {
        FAIL() << "unexpected phase " << ph;
      }
    }
  }
}

TEST(ObsTrace, TwoRankRunHasStageSpansAndCrossRankFlows) {
  ObsReset reset;
  const auto ds = small_dataset();
  const auto result = parallel::run_distributed(ds.reads, traced_config(2));
  ASSERT_EQ(result.corrected.size(), ds.reads.size());

  // Paper steps II-IV appear as stage spans on every rank (step I is the
  // read partitioning inside the drivers; the graph's first stage is
  // load_balance). Flow starts pair with finishes *across* shards.
  std::set<std::string> flow_starts;
  std::set<std::string> flow_finishes;
  for (int rank = 0; rank < 2; ++rank) {
    const JsonValue doc = obs::json_parse(Tracer::instance().to_json(rank));
    std::set<std::string> stages;
    bool saw_chunk = false;
    for (const JsonValue& event : events_of(doc).as_array()) {
      const std::string ph = phase_of(event);
      const JsonValue* cat = event.find("cat");
      const std::string category =
          cat != nullptr && cat->is_string() ? cat->as_string() : "";
      if (category == "stage") stages.insert(event.find("name")->as_string());
      if (category == "chunk") saw_chunk = true;
      if (ph == "s") flow_starts.insert(event.find("id")->as_string());
      if (ph == "f") flow_finishes.insert(event.find("id")->as_string());
    }
    EXPECT_TRUE(stages.count("stage:load_balance")) << "rank " << rank;
    EXPECT_TRUE(stages.count("stage:build_spectrum")) << "rank " << rank;
    EXPECT_TRUE(stages.count("stage:correct")) << "rank " << rank;
    EXPECT_TRUE(saw_chunk) << "rank " << rank;
  }
  ASSERT_FALSE(flow_finishes.empty())
      << "2-rank universal run must serve at least one remote lookup";
  for (const std::string& id : flow_finishes) {
    EXPECT_TRUE(flow_starts.count(id)) << "unmatched flow finish " << id;
  }
}

TEST(ObsTrace, WriteShardsRoundTripsThroughParser) {
  ObsReset reset;
  const auto ds = small_dataset();
  auto config = traced_config(2);
  const auto dir =
      std::filesystem::temp_directory_path() / "reptile_obs_shards";
  std::filesystem::create_directories(dir);
  config.trace.path = (dir / "trace").string();
  (void)parallel::run_distributed(ds.reads, config);

  for (int rank = 0; rank < 2; ++rank) {
    const auto path = dir / ("trace.rank" + std::to_string(rank) + ".json");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const JsonValue doc = obs::json_parse(buf.str());
    EXPECT_FALSE(events_of(doc).as_array().empty());
  }
  std::filesystem::remove_all(dir);
}

// --- zero overhead when disabled ------------------------------------------

TEST(ObsTrace, DisabledRunLeavesNoObsState) {
  ObsReset reset;
  const auto ds = small_dataset();
  auto config = traced_config(2);
  config.trace = obs::TraceConfig{};  // defaults: everything off

  const auto result = parallel::run_distributed(ds.reads, config);
  ASSERT_EQ(result.corrected.size(), ds.reads.size());

  EXPECT_FALSE(Tracer::instance().enabled());
  EXPECT_EQ(Registry::global().size(), 0u);
  EXPECT_EQ(Registry::global().prometheus_text(), "");
  EXPECT_EQ(Registry::global().counter("anything"), nullptr);
  EXPECT_EQ(Registry::global().histogram("anything"), nullptr);

  // Report schema carries no latency columns when metrics are off.
  const auto report = parallel::to_report(result, "disabled");
  for (const std::string& column : report.schema()) {
    EXPECT_EQ(column.find("_p99_us"), std::string::npos) << column;
  }
}

TEST(ObsTrace, DisabledOutputIdenticalToTracedOutput) {
  // Tracing is observation only: the corrected reads of a traced run are
  // bit-identical to an untraced run of the same configuration.
  ObsReset reset;
  const auto ds = small_dataset();
  auto traced = traced_config(2);
  auto untraced = traced;
  untraced.trace = obs::TraceConfig{};

  const auto a = parallel::run_distributed(ds.reads, traced);
  const auto b = parallel::run_distributed(ds.reads, untraced);
  ASSERT_EQ(a.corrected.size(), b.corrected.size());
  for (std::size_t i = 0; i < a.corrected.size(); ++i) {
    EXPECT_EQ(a.corrected[i].bases, b.corrected[i].bases) << "read " << i;
  }
}

// --- resource-ledger counters ----------------------------------------------

TEST(ObsTrace, LedgerArmedRunEmitsCounterEventsInShards) {
  ObsReset reset;
  const auto ds = small_dataset();
  auto config = traced_config(2);
  config.trace.ledger = true;
  const auto result = parallel::run_distributed(ds.reads, config);
  ASSERT_EQ(result.corrected.size(), ds.reads.size());

  // Every rank's shard carries ledger 'C' counters; the count_table account
  // must be among them (every run builds spectrum tables — the same
  // invariant trace_merge --check enforces across shards).
  for (int rank = 0; rank < 2; ++rank) {
    const JsonValue doc = obs::json_parse(Tracer::instance().to_json(rank));
    std::set<std::string> counter_names;
    for (const JsonValue& event : events_of(doc).as_array()) {
      if (phase_of(event) != "C") continue;
      const std::string& name = event.find("name")->as_string();
      EXPECT_EQ(name.rfind("ledger:", 0), 0u) << name;
      const JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("bytes"), nullptr);
      EXPECT_GE(args->find("bytes")->as_number(), 0.0);
      counter_names.insert(name);
    }
    EXPECT_TRUE(counter_names.count("ledger:count_table")) << "rank " << rank;
  }

  // The harvested timelines carry the per-account breakdown and the report
  // gains the ledger columns.
  ASSERT_FALSE(result.ranks.empty());
  ASSERT_EQ(result.ranks[0].ledger.size(), obs::kLedgerAccounts);
  EXPECT_GT(result.ranks[0].ledger_total_peak_bytes, 0u);
  const auto report = parallel::to_report(result, "ledger");
  EXPECT_NE(std::find(report.schema().begin(), report.schema().end(),
                      "ledger_peak_count_table"),
            report.schema().end());
  EXPECT_NE(std::find(report.schema().begin(), report.schema().end(),
                      "ledger_total_peak_bytes"),
            report.schema().end());
}

TEST(ObsTrace, LedgerOffRunHasZeroCountersAndIdenticalOutput) {
  // The ledger is observation only and off by default: a traced run without
  // --ledger emits not a single 'C' event, grows no ledger columns, and
  // corrects reads byte-identically to a ledger-armed run.
  ObsReset reset;
  const auto ds = small_dataset();
  auto armed = traced_config(2);
  armed.trace.ledger = true;
  auto off = traced_config(2);

  const auto a = parallel::run_distributed(ds.reads, armed);
  const auto b = parallel::run_distributed(ds.reads, off);

  for (int rank = 0; rank < 2; ++rank) {
    const JsonValue doc = obs::json_parse(Tracer::instance().to_json(rank));
    std::size_t counters = 0;
    for (const JsonValue& event : events_of(doc).as_array()) {
      if (phase_of(event) == "C") ++counters;
    }
    EXPECT_EQ(counters, 0u) << "rank " << rank;
  }
  EXPECT_FALSE(obs::ResourceLedger::global().enabled());
  EXPECT_EQ(obs::ResourceLedger::global().total_bytes(), 0u);
  for (const auto& r : b.ranks) {
    EXPECT_TRUE(r.ledger.empty());
    EXPECT_EQ(r.ledger_total_peak_bytes, 0u);
  }
  const auto report = parallel::to_report(b, "off");
  for (const std::string& column : report.schema()) {
    EXPECT_EQ(column.rfind("ledger_", 0), std::string::npos) << column;
  }

  ASSERT_EQ(a.corrected.size(), b.corrected.size());
  for (std::size_t i = 0; i < a.corrected.size(); ++i) {
    EXPECT_EQ(a.corrected[i].bases, b.corrected[i].bases) << "read " << i;
  }
}

TEST(ObsTrace, EveryDriverStartsFromItsOwnObservabilityState) {
  // The observability state is process-wide, so each World driver applies
  // its own (the baseline: all off) before it runs, and the sequential
  // reference, which has no World, reports no ledger rows. A ledger-armed,
  // traced run must not leave the next driver's report carrying its rows.
  ObsReset reset;
  const auto ds = small_dataset();
  auto armed = traced_config(2);
  armed.trace.ledger = true;
  const auto traced = parallel::run_distributed(ds.reads, armed);
  ASSERT_FALSE(traced.ranks.empty());
  ASSERT_EQ(traced.ranks[0].ledger.size(), obs::kLedgerAccounts);

  parallel::BaselineConfig baseline_config;
  baseline_config.params = armed.params;
  baseline_config.ranks = 2;
  baseline_config.ranks_per_node = 2;
  const auto baseline =
      parallel::run_replicated_baseline(ds.reads, baseline_config);
  ASSERT_EQ(baseline.ranks.size(), 2u);
  for (const auto& r : baseline.ranks) {
    EXPECT_TRUE(r.ledger.empty()) << "baseline rank " << r.rank;
    EXPECT_EQ(r.ledger_total_peak_bytes, 0u) << "baseline rank " << r.rank;
  }
  EXPECT_FALSE(Tracer::instance().enabled());

  parallel::run_distributed(ds.reads, armed);
  const auto sequential = core::run_sequential(ds.reads, armed.params);
  EXPECT_TRUE(sequential.ledger.empty());
  EXPECT_EQ(sequential.ledger_total_peak_bytes, 0u);
}

TEST(ObsTrace, SequentialRunBesideALiveServerLeavesItsObservabilityAlone) {
  // A reference run_sequential beside a live traced, metrics- and
  // ledger-armed server must not reconfigure the process-wide state under
  // the server's rank threads: the tracer, counters and ledger stay on.
  ObsReset reset;
  const auto ds = small_dataset();
  auto config = traced_config(2);
  config.trace.ledger = true;
  parallel::CorrectionServer server(ds.reads, config);
  const auto run_job = [&] {
    parallel::JobRequest request;
    request.reads = ds.reads;
    return server.submit(std::move(request)).get();
  };
  run_job();

  const auto sequential = core::run_sequential(ds.reads, config.params);
  EXPECT_TRUE(sequential.ledger.empty());
  EXPECT_TRUE(Tracer::instance().enabled());
  EXPECT_TRUE(obs::ResourceLedger::global().enabled());
  ASSERT_TRUE(Registry::global().enabled());
  const obs::Counter* builds =
      Registry::global().counter("reptile_spectrum_builds", 0);
  ASSERT_NE(builds, nullptr);
  EXPECT_EQ(builds->value(), 1u);

  const parallel::JobReport report = run_job();
  ASSERT_EQ(report.corrected.size(), sequential.corrected.size());
  for (std::size_t i = 0; i < report.corrected.size(); ++i) {
    ASSERT_EQ(report.corrected[i].bases, sequential.corrected[i].bases)
        << "read " << sequential.corrected[i].number;
  }
  for (const auto& rank : report.ranks) {
    EXPECT_EQ(rank.ledger.size(), obs::kLedgerAccounts) << "rank " << rank.rank;
  }
  server.shutdown();
  const obs::Counter* completed =
      Registry::global().counter("reptile_jobs_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value(), 2u);
}

// --- metrics registry ------------------------------------------------------

TEST(ObsTrace, MetricsRunPublishesHistogramsAndCounters) {
  ObsReset reset;
  const auto ds = small_dataset();
  parallel::DistConfig config = traced_config(2);
  config.heuristics.batch_lookups = false;  // scalar lookups: RTT samples
  const auto result = parallel::run_distributed(ds.reads, config);

  ASSERT_TRUE(Registry::global().enabled());
  EXPECT_GT(Registry::global().size(), 0u);

  // The 2-rank universal scalar run performs remote lookups, so both ranks
  // have a lookup RTT histogram and the text dump renders them.
  std::uint64_t rtt_samples = 0;
  for (int rank = 0; rank < 2; ++rank) {
    rtt_samples +=
        Registry::global().histogram_summary("reptile_lookup_rtt_us", rank)
            .count;
  }
  EXPECT_GT(rtt_samples, 0u);

  const std::string text = Registry::global().prometheus_text();
  EXPECT_NE(text.find("reptile_lookup_rtt_us"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("rank=\"0\""), std::string::npos);
  EXPECT_NE(text.find("reptile_reads_processed"), std::string::npos);

  // Counter mirror matches the harvested timelines.
  std::uint64_t subs = 0;
  for (const auto& r : result.ranks) {
    const obs::Counter* c =
        Registry::global().counter("reptile_substitutions", r.rank);
    if (c != nullptr) subs += c->value();
  }
  EXPECT_EQ(subs, result.total_substitutions());

  // Report gains consistent latency columns on every record.
  const auto report = parallel::to_report(result, "metrics");
  EXPECT_NE(std::find(report.schema().begin(), report.schema().end(),
                      "lookup_rtt_p99_us"),
            report.schema().end());
}

TEST(ObsHistogram, BucketsQuantilesAndMax) {
  obs::Histogram h;
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(1024), 10u);

  for (int i = 0; i < 99; ++i) h.record(10);
  h.record(100000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max(), 100000u);
  // p50 lands in 10's bucket [8,16); quantile reports the bucket's upper
  // bound, clamped to the observed max.
  EXPECT_LE(h.quantile(0.5), 15u);
  EXPECT_GE(h.quantile(0.5), 10u);
  EXPECT_EQ(h.quantile(1.0), 100000u);
}

// --- flow ids and interning ------------------------------------------------

TEST(ObsTrace, FlowIdsAreDeterministicDistinctAndNonZero) {
  const std::uint64_t a = obs::flow_id(0, 100, 1);
  EXPECT_EQ(a, obs::flow_id(0, 100, 1));  // requester and service agree
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, obs::flow_id(1, 100, 1));
  EXPECT_NE(a, obs::flow_id(0, 101, 1));
  EXPECT_NE(a, obs::flow_id(0, 100, 2));
}

TEST(ObsTrace, InternReturnsStablePointers) {
  const char* a = obs::intern("stage:alpha");
  const char* b = obs::intern(std::string("stage:") + "alpha");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "stage:alpha");
  EXPECT_NE(a, obs::intern("stage:beta"));
}

// --- flight recorder -------------------------------------------------------

TEST(ObsTrace, FlightRecorderKeepsTailWithoutFullTracing) {
  ObsReset reset;
  obs::TraceConfig config;  // full tracing OFF; flight recorder only
  config.flight_capacity = 8;
  Tracer::instance().configure(config);
  Tracer::instance().set_thread(3, "worker0");
  for (std::uint64_t i = 0; i < 50; ++i) {
    Tracer::instance().instant("test", "tick", Tracer::kThreadRank, "i", i);
  }
  // Ring keeps only the newest flight_capacity events.
  EXPECT_EQ(Tracer::instance().events_recorded(), 8u);
  const std::string tail = Tracer::instance().tail_text(8);
  EXPECT_NE(tail.find("rank3/worker0"), std::string::npos);
  EXPECT_NE(tail.find("tick"), std::string::npos);
  EXPECT_NE(tail.find("i=49"), std::string::npos);   // newest survives
  EXPECT_EQ(tail.find("i=41"), std::string::npos);   // overwritten
  // The rank filter drops other ranks' threads.
  const int keep[] = {7};
  EXPECT_EQ(Tracer::instance().tail_text(8, keep).find("tick"),
            std::string::npos);
}

TEST(ObsTrace, ReusedFlightRingGetsAFreshThreadName) {
  ObsReset reset;
  Tracer::instance().configure(obs::TraceConfig{});  // flight recorder only
  const auto tail_after_thread = [](const char* event) {
    std::thread([event] { Tracer::instance().instant("test", event); }).join();
    return Tracer::instance().tail_text(8);
  };
  const std::string first = tail_after_thread("first");
  const std::size_t rings = Tracer::instance().buffer_count();
  const std::string second = tail_after_thread("second");
  // The second thread took over the exited first thread's ring...
  EXPECT_EQ(Tracer::instance().buffer_count(), rings);
  EXPECT_EQ(second.find("first"), std::string::npos);
  ASSERT_NE(second.find("second"), std::string::npos);
  // ...but not its name: neither thread set a label, so each shows as
  // "thread<tid>", and the tail must not pin the event on the exited one.
  const std::string first_label =
      first.substr(first.find('['), first.find(']') - first.find('[') + 1);
  EXPECT_EQ(second.find(first_label), std::string::npos) << second;
}

// --- json parser -----------------------------------------------------------

TEST(ObsJson, ParsesAndRoundTrips) {
  const std::string text =
      R"({"a":[1,2.5,-3e2],"b":"xA\n","c":{"d":true,"e":null}})";
  const JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.find("a")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("a")->as_array()[2].as_number(), -300.0);
  EXPECT_EQ(doc.find("b")->as_string(), "xA\n");
  EXPECT_TRUE(doc.find("c")->find("d")->as_bool());
  EXPECT_TRUE(doc.find("c")->find("e")->is_null());
  // dump() round-trips through the parser.
  const JsonValue again = obs::json_parse(doc.dump());
  EXPECT_EQ(again.dump(), doc.dump());
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(obs::json_parse("{"), obs::JsonError);
  EXPECT_THROW(obs::json_parse("[1,]"), obs::JsonError);
  EXPECT_THROW(obs::json_parse("{\"a\":1} trailing"), obs::JsonError);
  EXPECT_THROW(obs::json_parse("\"unterminated"), obs::JsonError);
  EXPECT_THROW(obs::json_parse("nul"), obs::JsonError);
}

}  // namespace
}  // namespace reptile

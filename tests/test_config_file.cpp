// Unit tests: Reptile-style configuration file parsing.
#include "parallel/config_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace reptile::parallel {
namespace {

TEST(ConfigFile, ParsesFullConfiguration) {
  const std::string text = R"(
# a comment
fasta_file   reads.fa
qual_file    reads.qual
output_file  corrected.fa
kmer_length  14
tile_overlap 6
kmer_threshold 4
tile_threshold 5
canonical    1
chunk_size   2000    # trailing comment
universal    yes
read_kmers   0
batch_reads  true
load_balance 1
)";
  const auto c = parse_config_text(text);
  EXPECT_EQ(c.fasta_file, "reads.fa");
  EXPECT_EQ(c.qual_file, "reads.qual");
  EXPECT_EQ(c.output_file, "corrected.fa");
  EXPECT_EQ(c.params.k, 14);
  EXPECT_EQ(c.params.tile_overlap, 6);
  EXPECT_EQ(c.params.kmer_threshold, 4u);
  EXPECT_EQ(c.params.tile_threshold, 5u);
  EXPECT_TRUE(c.params.canonical);
  EXPECT_EQ(c.params.chunk_size, 2000u);
  EXPECT_TRUE(c.heuristics.universal);
  EXPECT_FALSE(c.heuristics.read_kmers);
  EXPECT_TRUE(c.heuristics.batch_reads);
  EXPECT_TRUE(c.heuristics.load_balance);
}

TEST(ConfigFile, DefaultsWhenOmitted) {
  const auto c = parse_config_text("kmer_length 12\n");
  EXPECT_EQ(c.params.k, 12);
  EXPECT_EQ(c.params.tile_overlap, core::CorrectorParams{}.tile_overlap);
  EXPECT_FALSE(c.heuristics.universal);
  EXPECT_TRUE(c.heuristics.load_balance);  // heuristics default
}

TEST(ConfigFile, RejectsUnknownKey) {
  EXPECT_THROW(parse_config_text("frobnicate 1\n"), std::runtime_error);
}

TEST(ConfigFile, UnknownKeySuggestsNearestValidKey) {
  try {
    parse_config_text("chunk_sz 128\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'chunk_sz'"), std::string::npos) << what;
    EXPECT_NE(what.find("'chunk_size'"), std::string::npos) << what;
  }
  try {
    parse_config_text("chaos_drop_rte 0.1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'chaos_drop_rate'"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_config_text("lookup_max_retry 2\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'lookup_max_retries'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigFile, RejectsMissingValue) {
  EXPECT_THROW(parse_config_text("kmer_length\n"), std::runtime_error);
}

TEST(ConfigFile, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_config_text("kmer_length 12 13\n"), std::runtime_error);
}

TEST(ConfigFile, RejectsBadBoolean) {
  EXPECT_THROW(parse_config_text("universal maybe\n"), std::runtime_error);
}

TEST(ConfigFile, RejectsBadNumber) {
  EXPECT_THROW(parse_config_text("kmer_length twelve\n"), std::runtime_error);
  EXPECT_THROW(parse_config_text("kmer_length 12x\n"), std::runtime_error);
}

TEST(ConfigFile, ValidatesResult) {
  // k out of range is caught by CorrectorParams::validate.
  EXPECT_THROW(parse_config_text("kmer_length 2\n"), std::invalid_argument);
  // add_remote without read_kmers is caught by Heuristics::validate.
  EXPECT_THROW(parse_config_text("add_remote 1\n"), std::invalid_argument);
}

TEST(ConfigFile, ErrorsCarryLineNumbers) {
  try {
    parse_config_text("kmer_length 12\nbogus_key 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ConfigFile, RoundTripsThroughText) {
  RunConfigFile config;
  config.fasta_file = "a.fa";
  config.qual_file = "a.qual";
  config.params.k = 16;
  config.params.tile_overlap = 8;
  config.params.chunk_size = 512;
  config.heuristics.universal = true;
  config.heuristics.batch_reads = true;
  const auto back = parse_config_text(to_config_text(config));
  EXPECT_EQ(back.fasta_file, config.fasta_file);
  EXPECT_EQ(back.params.k, config.params.k);
  EXPECT_EQ(back.params.tile_overlap, config.params.tile_overlap);
  EXPECT_EQ(back.params.chunk_size, config.params.chunk_size);
  EXPECT_EQ(back.heuristics.universal, config.heuristics.universal);
  EXPECT_EQ(back.heuristics.batch_reads, config.heuristics.batch_reads);
}

// One mapping from a parsed file to a run: each non-default key lands in its
// DistConfig field, and an empty file leaves every field at its default.
TEST(ConfigFile, MapsEveryRunKeyIntoDistConfig) {
  const auto c = parse_config_text(R"(
kmer_length          14
universal            1
rtm_check            0
mailbox_fast_path    0
chaos_seed           7
chaos_max_delay_us   30
chaos_drop_rate      0.05
chaos_duplicate_rate 0.1
chaos_truncate_rate  0.02
chaos_stall_rate     0.25
chaos_stall_us       40
lookup_timeout_ticks 9
lookup_max_retries   4
trace_enabled        1
trace_path           out/trace
trace_ring_capacity  1024
metrics_enabled      1
ledger_enabled       1
)");
  const DistConfig run = to_dist_config(c);
  EXPECT_EQ(run.params.k, 14);
  EXPECT_TRUE(run.heuristics.universal);
  EXPECT_FALSE(run.run_options.check.enabled);
  EXPECT_FALSE(run.run_options.mailbox_fast_path);
  EXPECT_EQ(run.run_options.chaos.seed, 7u);
  EXPECT_EQ(run.run_options.chaos.max_delay_us, 30);
  EXPECT_DOUBLE_EQ(run.run_options.chaos.drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(run.run_options.chaos.duplicate_rate, 0.1);
  EXPECT_DOUBLE_EQ(run.run_options.chaos.truncate_rate, 0.02);
  EXPECT_DOUBLE_EQ(run.run_options.chaos.stall_rate, 0.25);
  EXPECT_EQ(run.run_options.chaos.stall_us, 40);
  EXPECT_EQ(run.retry.timeout_ticks, 9);
  EXPECT_EQ(run.retry.max_retries, 4);
  EXPECT_TRUE(run.trace.enabled);
  EXPECT_EQ(run.trace.path, "out/trace");
  EXPECT_EQ(run.trace.ring_capacity, 1024u);
  EXPECT_TRUE(run.trace.metrics);
  EXPECT_TRUE(run.trace.ledger);

  const DistConfig defaults;
  const DistConfig mapped = to_dist_config(parse_config_text(""));
  EXPECT_EQ(mapped.params.k, defaults.params.k);
  EXPECT_EQ(mapped.heuristics.label(), defaults.heuristics.label());
  EXPECT_EQ(mapped.ranks, defaults.ranks);
  EXPECT_EQ(mapped.ranks_per_node, defaults.ranks_per_node);
  EXPECT_EQ(mapped.worker_threads, defaults.worker_threads);
  EXPECT_EQ(mapped.run_options.check.enabled,
            defaults.run_options.check.enabled);
  EXPECT_EQ(mapped.run_options.mailbox_fast_path,
            defaults.run_options.mailbox_fast_path);
  EXPECT_EQ(mapped.run_options.chaos.seed, defaults.run_options.chaos.seed);
  EXPECT_EQ(mapped.retry.timeout_ticks, defaults.retry.timeout_ticks);
  EXPECT_EQ(mapped.retry.max_retries, defaults.retry.max_retries);
  EXPECT_EQ(mapped.trace.enabled, defaults.trace.enabled);
  EXPECT_EQ(mapped.trace.metrics, defaults.trace.metrics);
  EXPECT_EQ(mapped.trace.ledger, defaults.trace.ledger);
  EXPECT_EQ(mapped.trace.ring_capacity, defaults.trace.ring_capacity);
}

// Every key the parser accepts must survive serialize -> parse unchanged,
// including the chaos_* fault-plan and lookup_* retry keys.
TEST(ConfigFile, RoundTripsFullKeySet) {
  RunConfigFile config;
  config.fasta_file = "full.fa";
  config.qual_file = "full.qual";
  config.output_file = "full.out";
  config.params.k = 15;
  config.params.tile_overlap = 7;
  config.params.kmer_threshold = 5;
  config.params.tile_threshold = 6;
  config.params.canonical = false;
  config.params.qual_threshold = 20;
  config.params.restrict_to_low_quality = true;
  config.params.max_positions_per_tile = 3;
  config.params.max_hamming = 2;
  config.params.dominance_ratio = 2.5;
  config.params.max_corrections_per_read = 9;
  config.params.chunk_size = 333;
  config.params.prefetch_capacity = 44;
  config.params.remote_cache_capacity = 555;
  config.heuristics.universal = true;
  config.heuristics.read_kmers = true;
  config.heuristics.allgather_kmers = true;
  config.heuristics.allgather_tiles = false;
  config.heuristics.add_remote = true;
  config.heuristics.batch_reads = true;
  config.heuristics.batch_lookups = true;
  config.heuristics.load_balance = false;
  config.heuristics.partial_replication_group = 4;
  config.heuristics.bloom_construction = true;
  config.rtm_check = false;
  config.mailbox_fast_path = false;
  config.chaos.seed = 12345;
  config.chaos.max_delay_us = 150;
  config.chaos.drop_rate = 0.25;
  config.chaos.duplicate_rate = 0.125;
  config.chaos.truncate_rate = 0.0625;
  config.chaos.stall_rate = 0.5;
  config.chaos.stall_us = 200;
  config.retry.timeout_ticks = 8;
  config.retry.max_retries = 5;

  const auto back = parse_config_text(to_config_text(config));
  EXPECT_EQ(back.fasta_file, config.fasta_file);
  EXPECT_EQ(back.qual_file, config.qual_file);
  EXPECT_EQ(back.output_file, config.output_file);
  EXPECT_EQ(back.params.k, config.params.k);
  EXPECT_EQ(back.params.tile_overlap, config.params.tile_overlap);
  EXPECT_EQ(back.params.kmer_threshold, config.params.kmer_threshold);
  EXPECT_EQ(back.params.tile_threshold, config.params.tile_threshold);
  EXPECT_EQ(back.params.canonical, config.params.canonical);
  EXPECT_EQ(back.params.qual_threshold, config.params.qual_threshold);
  EXPECT_EQ(back.params.restrict_to_low_quality,
            config.params.restrict_to_low_quality);
  EXPECT_EQ(back.params.max_positions_per_tile,
            config.params.max_positions_per_tile);
  EXPECT_EQ(back.params.max_hamming, config.params.max_hamming);
  EXPECT_DOUBLE_EQ(back.params.dominance_ratio, config.params.dominance_ratio);
  EXPECT_EQ(back.params.max_corrections_per_read,
            config.params.max_corrections_per_read);
  EXPECT_EQ(back.params.chunk_size, config.params.chunk_size);
  EXPECT_EQ(back.params.prefetch_capacity, config.params.prefetch_capacity);
  EXPECT_EQ(back.params.remote_cache_capacity,
            config.params.remote_cache_capacity);
  EXPECT_EQ(back.heuristics.universal, config.heuristics.universal);
  EXPECT_EQ(back.heuristics.read_kmers, config.heuristics.read_kmers);
  EXPECT_EQ(back.heuristics.allgather_kmers,
            config.heuristics.allgather_kmers);
  EXPECT_EQ(back.heuristics.allgather_tiles,
            config.heuristics.allgather_tiles);
  EXPECT_EQ(back.heuristics.add_remote, config.heuristics.add_remote);
  EXPECT_EQ(back.heuristics.batch_reads, config.heuristics.batch_reads);
  EXPECT_EQ(back.heuristics.batch_lookups, config.heuristics.batch_lookups);
  EXPECT_EQ(back.heuristics.load_balance, config.heuristics.load_balance);
  EXPECT_EQ(back.heuristics.partial_replication_group,
            config.heuristics.partial_replication_group);
  EXPECT_EQ(back.heuristics.bloom_construction,
            config.heuristics.bloom_construction);
  EXPECT_EQ(back.rtm_check, config.rtm_check);
  EXPECT_EQ(back.mailbox_fast_path, config.mailbox_fast_path);
  EXPECT_EQ(back.chaos.seed, config.chaos.seed);
  EXPECT_EQ(back.chaos.max_delay_us, config.chaos.max_delay_us);
  EXPECT_DOUBLE_EQ(back.chaos.drop_rate, config.chaos.drop_rate);
  EXPECT_DOUBLE_EQ(back.chaos.duplicate_rate, config.chaos.duplicate_rate);
  EXPECT_DOUBLE_EQ(back.chaos.truncate_rate, config.chaos.truncate_rate);
  EXPECT_DOUBLE_EQ(back.chaos.stall_rate, config.chaos.stall_rate);
  EXPECT_EQ(back.chaos.stall_us, config.chaos.stall_us);
  EXPECT_EQ(back.retry.timeout_ticks, config.retry.timeout_ticks);
  EXPECT_EQ(back.retry.max_retries, config.retry.max_retries);
}

// ---- serve-mode job.* namespace -------------------------------------------

TEST(ConfigFile, ParsesJobOverrides) {
  const auto c = parse_config_text(R"(
job.qual_threshold 25
job.max_hamming 1
job.chunk_size 256
job.universal 1
job.batch_lookups yes
job.deadline_ms 1500
job.lookup_timeout_ticks 4
job.lookup_max_retries 2
)");
  ASSERT_TRUE(c.job.any_set());
  EXPECT_EQ(c.job.qual_threshold, 25);
  EXPECT_EQ(c.job.max_hamming, 1);
  EXPECT_EQ(c.job.chunk_size, 256u);
  EXPECT_EQ(c.job.universal, true);
  EXPECT_EQ(c.job.batch_lookups, true);
  ASSERT_TRUE(c.job.deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*c.job.deadline_seconds, 1.5);
  ASSERT_TRUE(c.job.retry.has_value());
  EXPECT_EQ(c.job.retry->timeout_ticks, 4);
  EXPECT_EQ(c.job.retry->max_retries, 2);
  // Unset overrides stay unset: empty overrides = the build config.
  EXPECT_FALSE(c.job.dominance_ratio.has_value());
  EXPECT_FALSE(c.job.add_remote.has_value());
}

TEST(ConfigFile, JobOverridesDefaultToUnset) {
  const auto c = parse_config_text("kmer_length 12\n");
  EXPECT_FALSE(c.job.any_set());
  // ...and an override-free config emits no job.* lines.
  EXPECT_EQ(to_config_text(c).find("job."), std::string::npos);
}

TEST(ConfigFile, RoundTripsJobOverrides) {
  RunConfigFile config;
  config.job.qual_threshold = 30;
  config.job.restrict_to_low_quality = true;
  config.job.max_positions_per_tile = 2;
  config.job.max_hamming = 1;
  config.job.dominance_ratio = 3.5;
  config.job.max_corrections_per_read = 4;
  config.job.chunk_size = 128;
  config.job.prefetch_capacity = 16;
  config.job.universal = true;
  config.job.batch_lookups = true;
  config.job.filter_lookups = false;  // set-to-false must survive too
  config.job.deadline_seconds = 0.25;
  config.job.retry = RetryPolicy{6, 1};

  const auto back = parse_config_text(to_config_text(config));
  EXPECT_EQ(back.job.qual_threshold, config.job.qual_threshold);
  EXPECT_EQ(back.job.restrict_to_low_quality,
            config.job.restrict_to_low_quality);
  EXPECT_EQ(back.job.max_positions_per_tile,
            config.job.max_positions_per_tile);
  EXPECT_EQ(back.job.max_hamming, config.job.max_hamming);
  ASSERT_TRUE(back.job.dominance_ratio.has_value());
  EXPECT_DOUBLE_EQ(*back.job.dominance_ratio, *config.job.dominance_ratio);
  EXPECT_EQ(back.job.max_corrections_per_read,
            config.job.max_corrections_per_read);
  EXPECT_EQ(back.job.chunk_size, config.job.chunk_size);
  EXPECT_EQ(back.job.prefetch_capacity, config.job.prefetch_capacity);
  EXPECT_EQ(back.job.universal, config.job.universal);
  EXPECT_EQ(back.job.batch_lookups, config.job.batch_lookups);
  EXPECT_EQ(back.job.filter_lookups, config.job.filter_lookups);
  ASSERT_TRUE(back.job.deadline_seconds.has_value());
  EXPECT_DOUBLE_EQ(*back.job.deadline_seconds, *config.job.deadline_seconds);
  ASSERT_TRUE(back.job.retry.has_value());
  EXPECT_EQ(back.job.retry->timeout_ticks, config.job.retry->timeout_ticks);
  EXPECT_EQ(back.job.retry->max_retries, config.job.retry->max_retries);
  EXPECT_FALSE(back.job.add_remote.has_value());  // still unset
}

TEST(ConfigFile, JobKeyTyposSuggestTheJobKey) {
  try {
    parse_config_text("job.deadline_s 100\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'job.deadline_ms'"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_config_text("job.chunk_sz 128\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'job.chunk_size'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigFile, ValidatesJobOverrides) {
  // Effective-config validation: a job override that breaks the corrector
  // parameters is rejected at parse time.
  EXPECT_THROW(parse_config_text("job.max_hamming -2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_config_text("job.deadline_ms -5\n"),
               std::invalid_argument);
  // add_remote needs the build-time reads tables.
  EXPECT_THROW(parse_config_text("job.add_remote 1\n"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_config_text("read_kmers 1\njob.add_remote 1\n"));
}

TEST(ConfigFile, ReadsFromDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "reptile_cfg";
  std::filesystem::create_directories(dir);
  const auto path = dir / "run.cfg";
  {
    std::ofstream out(path);
    out << "fasta_file x.fa\nqual_file x.qual\nkmer_length 10\n";
  }
  const auto c = parse_config_file(path);
  EXPECT_EQ(c.params.k, 10);
  std::filesystem::remove_all(dir);
  EXPECT_THROW(parse_config_file(path), std::runtime_error);
}

}  // namespace
}  // namespace reptile::parallel

#include "parallel/config_file.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace reptile::parallel {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("config line " + std::to_string(line) + ": " + what);
}

bool parse_bool(const std::string& v, int line) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  fail(line, "expected boolean, got '" + v + "'");
}

long parse_int(const std::string& v, int line) {
  try {
    std::size_t pos = 0;
    const long x = std::stol(v, &pos);
    if (pos != v.size()) fail(line, "trailing characters in number '" + v + "'");
    return x;
  } catch (const std::logic_error&) {
    fail(line, "expected integer, got '" + v + "'");
  }
}

double parse_double(const std::string& v, int line) {
  try {
    std::size_t pos = 0;
    const double x = std::stod(v, &pos);
    if (pos != v.size()) fail(line, "trailing characters in number '" + v + "'");
    return x;
  } catch (const std::logic_error&) {
    fail(line, "expected number, got '" + v + "'");
  }
}

/// One recognized key: its name and how its value lands in the config.
/// The table is the single source of truth for the key set — the parser,
/// the unknown-key suggestion, and (by construction) to_config_text all
/// cover exactly these keys.
struct KeySpec {
  std::string_view key;
  void (*apply)(RunConfigFile&, const std::string& value, int line);
};

constexpr KeySpec kKeys[] = {
    {"fasta_file",
     [](RunConfigFile& c, const std::string& v, int) { c.fasta_file = v; }},
    {"qual_file",
     [](RunConfigFile& c, const std::string& v, int) { c.qual_file = v; }},
    {"output_file",
     [](RunConfigFile& c, const std::string& v, int) { c.output_file = v; }},
    {"kmer_length",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.k = static_cast<int>(parse_int(v, l));
     }},
    {"tile_overlap",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.tile_overlap = static_cast<int>(parse_int(v, l));
     }},
    {"kmer_threshold",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.kmer_threshold = static_cast<unsigned>(parse_int(v, l));
     }},
    {"tile_threshold",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.tile_threshold = static_cast<unsigned>(parse_int(v, l));
     }},
    {"canonical",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.canonical = parse_bool(v, l);
     }},
    {"qual_threshold",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.qual_threshold = static_cast<int>(parse_int(v, l));
     }},
    {"restrict_to_low_quality",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.restrict_to_low_quality = parse_bool(v, l);
     }},
    {"max_positions_per_tile",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.max_positions_per_tile = static_cast<int>(parse_int(v, l));
     }},
    {"max_hamming",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.max_hamming = static_cast<int>(parse_int(v, l));
     }},
    {"dominance_ratio",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.dominance_ratio = parse_double(v, l);
     }},
    {"max_corrections_per_read",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.max_corrections_per_read = static_cast<int>(parse_int(v, l));
     }},
    {"chunk_size",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.chunk_size = static_cast<std::size_t>(parse_int(v, l));
     }},
    {"prefetch_capacity",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.prefetch_capacity = static_cast<std::size_t>(parse_int(v, l));
     }},
    {"remote_cache_capacity",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.params.remote_cache_capacity =
           static_cast<std::size_t>(parse_int(v, l));
     }},
    {"universal",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.universal = parse_bool(v, l);
     }},
    {"read_kmers",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.read_kmers = parse_bool(v, l);
     }},
    {"allgather_kmers",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.allgather_kmers = parse_bool(v, l);
     }},
    {"allgather_tiles",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.allgather_tiles = parse_bool(v, l);
     }},
    {"add_remote",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.add_remote = parse_bool(v, l);
     }},
    {"batch_reads",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.batch_reads = parse_bool(v, l);
     }},
    {"batch_lookups",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.batch_lookups = parse_bool(v, l);
     }},
    {"filter_lookups",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.filter_lookups = parse_bool(v, l);
     }},
    {"filter_fp_rate",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.filter_fp_rate = parse_double(v, l);
     }},
    {"load_balance",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.load_balance = parse_bool(v, l);
     }},
    {"partial_replication_group",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.partial_replication_group =
           static_cast<int>(parse_int(v, l));
     }},
    {"bloom_construction",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.heuristics.bloom_construction = parse_bool(v, l);
     }},
    {"rtm_check",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.rtm_check = parse_bool(v, l);
     }},
    {"mailbox_fast_path",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.mailbox_fast_path = parse_bool(v, l);
     }},
    {"chaos_seed",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.chaos.seed = static_cast<std::uint64_t>(parse_int(v, l));
     }},
    {"chaos_max_delay_us",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.chaos.max_delay_us = static_cast<int>(parse_int(v, l));
     }},
    {"chaos_drop_rate",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.chaos.drop_rate = parse_double(v, l);
     }},
    {"chaos_duplicate_rate",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.chaos.duplicate_rate = parse_double(v, l);
     }},
    {"chaos_truncate_rate",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.chaos.truncate_rate = parse_double(v, l);
     }},
    {"chaos_stall_rate",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.chaos.stall_rate = parse_double(v, l);
     }},
    {"chaos_stall_us",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.chaos.stall_us = static_cast<int>(parse_int(v, l));
     }},
    {"lookup_timeout_ticks",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.retry.timeout_ticks = static_cast<int>(parse_int(v, l));
     }},
    {"lookup_max_retries",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.retry.max_retries = static_cast<int>(parse_int(v, l));
     }},
    {"trace_enabled",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.trace.enabled = parse_bool(v, l);
     }},
    {"trace_path",
     [](RunConfigFile& c, const std::string& v, int) { c.trace.path = v; }},
    {"trace_ring_capacity",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.trace.ring_capacity = static_cast<std::size_t>(parse_int(v, l));
     }},
    {"metrics_enabled",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.trace.metrics = parse_bool(v, l);
     }},
    {"ledger_enabled",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.trace.ledger = parse_bool(v, l);
     }},
    // Serve-mode per-job overrides (parallel/job.hpp): the `job.*` namespace
    // mirrors the correction-phase subset of the top-level keys. Unset keys
    // keep the server's build-time value.
    {"job.qual_threshold",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.qual_threshold = static_cast<int>(parse_int(v, l));
     }},
    {"job.restrict_to_low_quality",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.restrict_to_low_quality = parse_bool(v, l);
     }},
    {"job.max_positions_per_tile",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.max_positions_per_tile = static_cast<int>(parse_int(v, l));
     }},
    {"job.max_hamming",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.max_hamming = static_cast<int>(parse_int(v, l));
     }},
    {"job.dominance_ratio",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.dominance_ratio = parse_double(v, l);
     }},
    {"job.max_corrections_per_read",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.max_corrections_per_read = static_cast<int>(parse_int(v, l));
     }},
    {"job.chunk_size",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.chunk_size = static_cast<std::size_t>(parse_int(v, l));
     }},
    {"job.prefetch_capacity",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.prefetch_capacity = static_cast<std::size_t>(parse_int(v, l));
     }},
    {"job.universal",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.universal = parse_bool(v, l);
     }},
    {"job.batch_lookups",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.batch_lookups = parse_bool(v, l);
     }},
    {"job.filter_lookups",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.filter_lookups = parse_bool(v, l);
     }},
    {"job.add_remote",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.add_remote = parse_bool(v, l);
     }},
    {"job.deadline_ms",
     [](RunConfigFile& c, const std::string& v, int l) {
       c.job.deadline_seconds = parse_double(v, l) / 1000.0;
     }},
    {"job.lookup_timeout_ticks",
     [](RunConfigFile& c, const std::string& v, int l) {
       if (!c.job.retry) c.job.retry.emplace();
       c.job.retry->timeout_ticks = static_cast<int>(parse_int(v, l));
     }},
    {"job.lookup_max_retries",
     [](RunConfigFile& c, const std::string& v, int l) {
       if (!c.job.retry) c.job.retry.emplace();
       c.job.retry->max_retries = static_cast<int>(parse_int(v, l));
     }},
};

/// Levenshtein distance, for the unknown-key suggestion. The key set is
/// tiny, so the quadratic DP is fine.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// The valid key closest to `key` in edit distance (ties: table order).
std::string_view nearest_key(std::string_view key) {
  std::string_view best = kKeys[0].key;
  std::size_t best_distance = edit_distance(key, best);
  for (const KeySpec& spec : kKeys) {
    const std::size_t d = edit_distance(key, spec.key);
    if (d < best_distance) {
      best_distance = d;
      best = spec.key;
    }
  }
  return best;
}

}  // namespace

RunConfigFile parse_config_text(const std::string& text) {
  RunConfigFile config;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key, value;
    if (!(ls >> key)) continue;  // blank or comment-only line
    if (!(ls >> value)) fail(lineno, "key '" + key + "' has no value");
    std::string extra;
    if (ls >> extra) fail(lineno, "unexpected trailing token '" + extra + "'");

    const auto spec =
        std::find_if(std::begin(kKeys), std::end(kKeys),
                     [&key](const KeySpec& s) { return s.key == key; });
    if (spec == std::end(kKeys)) {
      fail(lineno, "unknown key '" + key + "' (nearest valid key: '" +
                       std::string(nearest_key(key)) + "')");
    }
    spec->apply(config, value, lineno);
  }
  config.params.validate();
  config.heuristics.validate();
  config.chaos.validate();
  config.retry.validate();
  // Validate the job overrides against this file's own build config (the
  // serve driver re-validates per submit with its actual worker count).
  config.job.validate(config.params, config.heuristics, /*worker_threads=*/1);
  return config;
}

RunConfigFile parse_config_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("config: cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_config_text(buffer.str());
}

std::string to_config_text(const RunConfigFile& config) {
  std::ostringstream out;
  out << "# reptile-dist run configuration\n";
  if (!config.fasta_file.empty()) {
    out << "fasta_file " << config.fasta_file.string() << '\n';
  }
  if (!config.qual_file.empty()) {
    out << "qual_file " << config.qual_file.string() << '\n';
  }
  if (!config.output_file.empty()) {
    out << "output_file " << config.output_file.string() << '\n';
  }
  const auto& p = config.params;
  out << "kmer_length " << p.k << '\n'
      << "tile_overlap " << p.tile_overlap << '\n'
      << "kmer_threshold " << p.kmer_threshold << '\n'
      << "tile_threshold " << p.tile_threshold << '\n'
      << "canonical " << (p.canonical ? 1 : 0) << '\n'
      << "qual_threshold " << p.qual_threshold << '\n'
      << "restrict_to_low_quality " << (p.restrict_to_low_quality ? 1 : 0)
      << '\n'
      << "max_positions_per_tile " << p.max_positions_per_tile << '\n'
      << "max_hamming " << p.max_hamming << '\n'
      << "dominance_ratio " << p.dominance_ratio << '\n'
      << "max_corrections_per_read " << p.max_corrections_per_read << '\n'
      << "chunk_size " << p.chunk_size << '\n'
      << "prefetch_capacity " << p.prefetch_capacity << '\n'
      << "remote_cache_capacity " << p.remote_cache_capacity << '\n';
  const auto& h = config.heuristics;
  out << "universal " << (h.universal ? 1 : 0) << '\n'
      << "read_kmers " << (h.read_kmers ? 1 : 0) << '\n'
      << "allgather_kmers " << (h.allgather_kmers ? 1 : 0) << '\n'
      << "allgather_tiles " << (h.allgather_tiles ? 1 : 0) << '\n'
      << "add_remote " << (h.add_remote ? 1 : 0) << '\n'
      << "batch_reads " << (h.batch_reads ? 1 : 0) << '\n'
      << "batch_lookups " << (h.batch_lookups ? 1 : 0) << '\n'
      << "filter_lookups " << (h.filter_lookups ? 1 : 0) << '\n'
      << "filter_fp_rate " << h.filter_fp_rate << '\n'
      << "load_balance " << (h.load_balance ? 1 : 0) << '\n'
      << "partial_replication_group " << h.partial_replication_group << '\n'
      << "bloom_construction " << (h.bloom_construction ? 1 : 0) << '\n';
  out << "rtm_check " << (config.rtm_check ? 1 : 0) << '\n';
  out << "mailbox_fast_path " << (config.mailbox_fast_path ? 1 : 0) << '\n';
  const auto& c = config.chaos;
  out << "chaos_seed " << c.seed << '\n'
      << "chaos_max_delay_us " << c.max_delay_us << '\n'
      << "chaos_drop_rate " << c.drop_rate << '\n'
      << "chaos_duplicate_rate " << c.duplicate_rate << '\n'
      << "chaos_truncate_rate " << c.truncate_rate << '\n'
      << "chaos_stall_rate " << c.stall_rate << '\n'
      << "chaos_stall_us " << c.stall_us << '\n';
  out << "lookup_timeout_ticks " << config.retry.timeout_ticks << '\n'
      << "lookup_max_retries " << config.retry.max_retries << '\n';
  const auto& t = config.trace;
  out << "trace_enabled " << (t.enabled ? 1 : 0) << '\n';
  if (!t.path.empty()) out << "trace_path " << t.path << '\n';
  out << "trace_ring_capacity " << t.ring_capacity << '\n'
      << "metrics_enabled " << (t.metrics ? 1 : 0) << '\n'
      << "ledger_enabled " << (t.ledger ? 1 : 0) << '\n';
  const JobOverrides& j = config.job;
  if (j.qual_threshold) out << "job.qual_threshold " << *j.qual_threshold << '\n';
  if (j.restrict_to_low_quality) {
    out << "job.restrict_to_low_quality " << (*j.restrict_to_low_quality ? 1 : 0)
        << '\n';
  }
  if (j.max_positions_per_tile) {
    out << "job.max_positions_per_tile " << *j.max_positions_per_tile << '\n';
  }
  if (j.max_hamming) out << "job.max_hamming " << *j.max_hamming << '\n';
  if (j.dominance_ratio) {
    out << "job.dominance_ratio " << *j.dominance_ratio << '\n';
  }
  if (j.max_corrections_per_read) {
    out << "job.max_corrections_per_read " << *j.max_corrections_per_read
        << '\n';
  }
  if (j.chunk_size) out << "job.chunk_size " << *j.chunk_size << '\n';
  if (j.prefetch_capacity) {
    out << "job.prefetch_capacity " << *j.prefetch_capacity << '\n';
  }
  if (j.universal) out << "job.universal " << (*j.universal ? 1 : 0) << '\n';
  if (j.batch_lookups) {
    out << "job.batch_lookups " << (*j.batch_lookups ? 1 : 0) << '\n';
  }
  if (j.filter_lookups) {
    out << "job.filter_lookups " << (*j.filter_lookups ? 1 : 0) << '\n';
  }
  if (j.add_remote) out << "job.add_remote " << (*j.add_remote ? 1 : 0) << '\n';
  if (j.deadline_seconds) {
    out << "job.deadline_ms " << (*j.deadline_seconds * 1000.0) << '\n';
  }
  if (j.retry) {
    out << "job.lookup_timeout_ticks " << j.retry->timeout_ticks << '\n'
        << "job.lookup_max_retries " << j.retry->max_retries << '\n';
  }
  return out.str();
}

DistConfig to_dist_config(const RunConfigFile& config) {
  DistConfig run;
  run.params = config.params;
  run.heuristics = config.heuristics;
  run.run_options.check.enabled = config.rtm_check;
  run.run_options.mailbox_fast_path = config.mailbox_fast_path;
  run.run_options.chaos = config.chaos;
  run.retry = config.retry;
  run.trace = config.trace;
  return run;
}

}  // namespace reptile::parallel

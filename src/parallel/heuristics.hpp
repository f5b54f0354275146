#pragma once
// Execution-mode flags: the paper's heuristics (Section III-B).
//
// Every paper flag corresponds to one heuristic evaluated in Fig. 5. The
// defaults turn on load_balance and the batch_lookups extension (the chunk
// wavefront); with batch_lookups off, the defaults are the paper's base
// mode. The paper's preferred production setting is
// {universal, batch_reads, load_balance}.

#include <stdexcept>
#include <string>

namespace reptile::parallel {

struct Heuristics {
  /// "Universal": lookup requests carry their own kind tag in the payload,
  /// so the communication thread accepts any message without probing per
  /// tag first. Bigger messages, no MPI_Probe.
  bool universal = false;

  /// "Read K-mers/Tiles": after construction, the rank keeps the k-mers and
  /// tiles extracted from its own reads (readsKmer/readsTile) with their
  /// *global* counts (fetched via one extra alltoallv) and consults them
  /// before sending a remote request.
  bool read_kmers = false;

  /// "Allgather k-mers": replicate the entire k-mer spectrum on every rank;
  /// k-mer lookups never leave the rank.
  bool allgather_kmers = false;

  /// "Allgather tiles": replicate the entire tile spectrum on every rank.
  bool allgather_tiles = false;

  /// "Add remote k-mer/tile lookups": cache every remote reply (including
  /// definitive absences) into the reads tables. Requires read_kmers.
  bool add_remote = false;

  /// "Batch Reads Table": run the Step III alltoallv after every chunk of
  /// reads and empty the reads tables, capping construction memory.
  bool batch_reads = false;

  /// Chunk wavefront (extension beyond the paper, see DESIGN.md §4b):
  /// before correcting a chunk, the worker resolves every lookup the
  /// chunk's correction will send to an owner in rounds — each round one
  /// vectored request per owner per kind, carrying the deduplicated IDs
  /// that the chunk's reads are blocked on. Replies fill a bounded chunk
  /// cache consulted before the scalar remote fallback, so the corrector
  /// makes the same lookups and none of them waits on the wire. Output is
  /// bit-identical to the scalar protocol. Off selects the paper's scalar
  /// protocol: one blocking round trip per remote lookup.
  bool batch_lookups = true;

  /// Filter-accelerated remote lookups (extension beyond the paper, see
  /// DESIGN.md §9): after Step III every rank broadcasts a blocked-Bloom
  /// membership filter over each owned table to its out-of-group peers;
  /// requesters answer filter-definite absences locally (count 0, exactly
  /// what the owner's -1 reply would produce) and only pay the wire for
  /// probable hits. False positives cost one redundant round trip; false
  /// negatives are structurally impossible, so corrected output stays
  /// byte-identical to the unfiltered run. Composes with scalar, batched,
  /// and retry/chaos paths unchanged.
  bool filter_lookups = false;

  /// Target false-positive rate of the exchanged filters: lower rate =
  /// bigger filters = fewer redundant remote round trips. The memory-vs-
  /// traffic knob of the filter point on the fig5 curve.
  double filter_fp_rate = 0.01;

  /// Static load balancing (Section III-A): redistribute reads to their
  /// owning ranks (hash of the sequence) before both phases.
  bool load_balance = true;

  /// Partial replication (the paper's Section V future-work proposal):
  /// "each rank to store the k-mers and tiles of a subset of other ranks,
  /// besides the k-mers and the tiles the rank owns". Ranks are grouped in
  /// blocks of this size ([0..g), [g..2g), ...); every rank replicates the
  /// owned spectra of its whole group, so lookups owned within the group
  /// never leave the rank. 1 disables; ranks_per_node replicates per node.
  int partial_replication_group = 1;

  /// Bloom-filter construction (the paper's Step III note: "a memory-
  /// efficient alternative to this step is usage of a Bloom filter").
  /// Owners admit an ID into the exact table only on its second sighting;
  /// singletons — the bulk of the error-noise spectrum — cost only Bloom
  /// bits. APPROXIMATE: admitted counts can be off by one and Bloom false
  /// positives can admit a few singletons, so this mode trades exactness
  /// of sub-threshold counts for memory; above-threshold behaviour is
  /// statistically unchanged but not bit-identical to the exact mode.
  bool bloom_construction = false;

  /// True when both spectra are replicated ("allgather both"): the
  /// correction phase then needs no communication at all.
  bool fully_replicated() const noexcept {
    return allgather_kmers && allgather_tiles;
  }

  void validate() const {
    if (add_remote && !read_kmers) {
      throw std::invalid_argument(
          "heuristics: add_remote can only be run with read_kmers "
          "(remote replies are cached into the reads tables)");
    }
    if (partial_replication_group < 1) {
      throw std::invalid_argument(
          "heuristics: partial_replication_group must be >= 1");
    }
    if (filter_fp_rate <= 0.0 || filter_fp_rate >= 0.5) {
      throw std::invalid_argument(
          "heuristics: filter_fp_rate must be in (0, 0.5)");
    }
  }

  /// Short human-readable label for reports, e.g. "universal+batch_reads".
  std::string label() const {
    std::string out;
    auto add = [&out](bool on, const char* name) {
      if (!on) return;
      if (!out.empty()) out += '+';
      out += name;
    };
    add(universal, "universal");
    add(read_kmers, "read_kmers");
    add(allgather_kmers, "allgather_kmers");
    add(allgather_tiles, "allgather_tiles");
    add(add_remote, "add_remote");
    add(batch_reads, "batch_reads");
    add(batch_lookups, "batch_lookups");
    add(filter_lookups, "filter");
    add(load_balance, "load_balance");
    add(bloom_construction, "bloom");
    if (partial_replication_group > 1) {
      if (!out.empty()) out += '+';
      out += "partial_repl(" + std::to_string(partial_replication_group) + ")";
    }
    return out.empty() ? "base" : out;
  }
};

}  // namespace reptile::parallel

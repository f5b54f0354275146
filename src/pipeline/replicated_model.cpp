#include "pipeline/replicated_model.hpp"

#include <cstdint>
#include <span>
#include <utility>

namespace reptile::pipeline {

void ReplicatedSpectrum::add_read(std::string_view bases) {
  kmer_scratch_.clear();
  tile_scratch_.clear();
  extractor_.extract(bases, kmer_scratch_, tile_scratch_);
  for (auto id : kmer_scratch_) kmers_.increment(id);
  for (auto id : tile_scratch_) tiles_.increment(id);
}

void ReplicatedSpectrum::replicate(rtm::Comm& comm) {
  auto merge = [&comm](hash::CountTable<>& table) {
    struct IdCount {
      std::uint64_t id;
      std::uint32_t count;
    };
    std::vector<IdCount> flat;
    flat.reserve(table.size());
    table.for_each([&flat](std::uint64_t id, std::uint32_t c) {
      flat.push_back({id, c});
    });
    const auto all =
        comm.allgatherv(std::span<const IdCount>(flat.data(), flat.size()));
    hash::CountTable<> merged(all.size());
    for (const auto& e : all) merged.increment(e.id, e.count);
    table = std::move(merged);
  };
  merge(kmers_);
  merge(tiles_);
}

std::uint32_t ReplicatedSpectrum::kmer_count(seq::kmer_id_t id) {
  ++stats_.kmer_lookups;
  const auto c = kmers_.find(extractor_.canon_kmer(id));
  if (!c) ++stats_.kmer_misses;
  return c.value_or(0);
}

std::uint32_t ReplicatedSpectrum::tile_count(seq::tile_id_t id) {
  ++stats_.tile_lookups;
  const auto c = tiles_.find(extractor_.canon_tile(id));
  if (!c) ++stats_.tile_misses;
  return c.value_or(0);
}

}  // namespace reptile::pipeline

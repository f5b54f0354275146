#include "seq/kmer.hpp"

#include <cassert>
#include <stdexcept>

namespace reptile::seq {

KmerCodec::KmerCodec(int k) : k_(k) {
  if (k < 1 || k > kMaxK) {
    throw std::invalid_argument("KmerCodec: k must be in [1, 32]");
  }
  mask_ = (k == 32) ? ~kmer_id_t{0} : ((kmer_id_t{1} << (2 * k)) - 1);
}

std::string KmerCodec::unpack(kmer_id_t id) const {
  std::string out(static_cast<std::size_t>(k_), 'A');
  for (int i = k_ - 1; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = char_from_base(id & 0x3);
    id >>= 2;
  }
  return out;
}

kmer_id_t KmerCodec::reverse_complement(kmer_id_t id) const {
  kmer_id_t out = 0;
  for (int i = 0; i < k_; ++i) {
    out = (out << 2) | (3 - (id & 0x3));
    id >>= 2;
  }
  return out;
}

kmer_id_t KmerCodec::canonical(kmer_id_t id) const {
  const kmer_id_t rc = reverse_complement(id);
  return id < rc ? id : rc;
}

int KmerCodec::hamming_distance(kmer_id_t a, kmer_id_t b) const {
  kmer_id_t x = a ^ b;
  int d = 0;
  for (int i = 0; i < k_; ++i) {
    if (x & 0x3) ++d;
    x >>= 2;
  }
  return d;
}

void KmerCodec::neighbors1(kmer_id_t id, std::vector<kmer_id_t>& out) const {
  for (int pos = 0; pos < k_; ++pos) {
    const base_t original = base_at(id, pos);
    for (base_t b = 0; b < kAlphabetSize; ++b) {
      if (b != original) out.push_back(substitute(id, pos, b));
    }
  }
}

std::size_t KmerCodec::extract(std::string_view read,
                               std::vector<kmer_id_t>& out) const {
  if (static_cast<int>(read.size()) < k_) return 0;
  const std::size_t n = read.size() - static_cast<std::size_t>(k_) + 1;
  kmer_id_t id = pack(read);
  out.push_back(id);
  for (std::size_t i = 1; i < n; ++i) {
    const base_t b = base_from_char(read[i + static_cast<std::size_t>(k_) - 1]);
    assert(b != kInvalidBase);
    id = roll(id, b);
    out.push_back(id);
  }
  return n;
}

kmer_id_t pack_kmer(std::string_view s) {
  return KmerCodec(static_cast<int>(s.size())).pack(s);
}

std::string unpack_kmer(kmer_id_t id, int k) { return KmerCodec(k).unpack(id); }

}  // namespace reptile::seq

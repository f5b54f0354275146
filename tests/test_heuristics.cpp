// Unit tests: heuristics flags, labels, validation.
#include "parallel/heuristics.hpp"

#include <gtest/gtest.h>

namespace reptile::parallel {
namespace {

TEST(Heuristics, DefaultIsBalancedBaseWithWavefront) {
  const Heuristics h;
  EXPECT_FALSE(h.universal);
  EXPECT_FALSE(h.read_kmers);
  EXPECT_FALSE(h.allgather_kmers);
  EXPECT_FALSE(h.allgather_tiles);
  EXPECT_FALSE(h.add_remote);
  EXPECT_FALSE(h.batch_reads);
  EXPECT_TRUE(h.batch_lookups);   // the chunk wavefront
  EXPECT_TRUE(h.filter_lookups);  // byte-capped peer filters
  EXPECT_TRUE(h.load_balance);
  EXPECT_EQ(h.partial_replication_group, 1);
  EXPECT_FALSE(h.bloom_construction);
  EXPECT_NO_THROW(h.validate());
  EXPECT_EQ(h.label(), "batch_lookups+filter+load_balance");
}

TEST(Heuristics, LabelListsActiveFlags) {
  Heuristics h;
  h.batch_lookups = false;
  h.filter_lookups = false;
  h.load_balance = false;
  EXPECT_EQ(h.label(), "base");
  h.universal = true;
  h.batch_reads = true;
  EXPECT_EQ(h.label(), "universal+batch_reads");
  h.bloom_construction = true;
  h.partial_replication_group = 8;
  const auto label = h.label();
  EXPECT_NE(label.find("bloom"), std::string::npos);
  EXPECT_NE(label.find("partial_repl(8)"), std::string::npos);
}

TEST(Heuristics, FullyReplicatedRequiresBothSpectra) {
  Heuristics h;
  EXPECT_FALSE(h.fully_replicated());
  h.allgather_kmers = true;
  EXPECT_FALSE(h.fully_replicated());
  h.allgather_tiles = true;
  EXPECT_TRUE(h.fully_replicated());
}

TEST(Heuristics, AddRemoteRequiresReadKmers) {
  Heuristics h;
  h.add_remote = true;
  EXPECT_THROW(h.validate(), std::invalid_argument);
  h.read_kmers = true;
  EXPECT_NO_THROW(h.validate());
}

TEST(Heuristics, PartialReplicationGroupValidated) {
  Heuristics h;
  for (int bad : {0, -1, -100}) {
    h.partial_replication_group = bad;
    EXPECT_THROW(h.validate(), std::invalid_argument) << bad;
  }
  for (int ok : {1, 2, 32, 8192}) {
    h.partial_replication_group = ok;
    EXPECT_NO_THROW(h.validate()) << ok;
  }
}

}  // namespace
}  // namespace reptile::parallel

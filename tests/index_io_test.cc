#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "index/index_io.h"
#include "test_temp_dir.h"
#include "util/rng.h"

namespace soi {
namespace {

CascadeIndex MakeIndex(uint32_t worlds, uint64_t seed) {
  Rng gen_rng(seed);
  auto topo = GenerateErdosRenyi(40, 120, false, &gen_rng);
  EXPECT_TRUE(topo.ok());
  Rng assign_rng(seed + 1);
  auto g = AssignUniform(*topo, &assign_rng, 0.1, 0.4);
  EXPECT_TRUE(g.ok());
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  Rng rng(seed + 2);
  auto index = CascadeIndex::Build(*g, options, &rng);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

void ExpectSameCascades(const CascadeIndex& a, const CascadeIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_worlds(), b.num_worlds());
  CascadeIndex::Workspace wa, wb;
  for (NodeId v = 0; v < a.num_nodes(); v += 3) {
    for (uint32_t i = 0; i < a.num_worlds(); ++i) {
      EXPECT_EQ(a.Cascade(v, i, &wa).value(), b.Cascade(v, i, &wb).value())
          << "node " << v << " world " << i;
    }
  }
}

TEST(IndexIoTest, SerializeDeserializeRoundTrip) {
  const CascadeIndex index = MakeIndex(16, 1);
  const std::string bytes = SerializeCascadeIndex(index);
  const auto loaded = DeserializeCascadeIndex(bytes);
  ASSERT_TRUE(loaded.ok());
  ExpectSameCascades(index, *loaded);
}

TEST(IndexIoTest, FileRoundTrip) {
  const CascadeIndex index = MakeIndex(8, 2);
  const std::string path = TestTempPath("index.idx");
  ASSERT_TRUE(SaveCascadeIndex(index, path).ok());
  const auto loaded = LoadCascadeIndex(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSameCascades(index, *loaded);
  std::filesystem::remove(path);
}

TEST(IndexIoTest, RejectsGarbage) {
  EXPECT_EQ(DeserializeCascadeIndex("not an index").status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(DeserializeCascadeIndex("").status().code(), StatusCode::kIOError);
}

TEST(IndexIoTest, DetectsCorruption) {
  const CascadeIndex index = MakeIndex(4, 3);
  std::string bytes = SerializeCascadeIndex(index);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  const auto loaded = DeserializeCascadeIndex(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(IndexIoTest, DetectsTruncation) {
  const CascadeIndex index = MakeIndex(4, 4);
  const std::string bytes = SerializeCascadeIndex(index);
  // Any strict prefix must be rejected (checksum or bounds).
  for (const size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{30}}) {
    const auto loaded = DeserializeCascadeIndex(bytes.substr(0, keep));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes";
  }
}

TEST(IndexIoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadCascadeIndex("/nonexistent/index.idx").status().code(),
            StatusCode::kIOError);
}

TEST(IndexIoTest, LoadedIndexDrivesQueriesIdentically) {
  // The loaded index must produce identical spreads/typical cascades, since
  // the condensations are identical.
  const CascadeIndex index = MakeIndex(32, 5);
  const auto loaded = DeserializeCascadeIndex(SerializeCascadeIndex(index));
  ASSERT_TRUE(loaded.ok());
  CascadeIndex::Workspace wa, wb;
  uint64_t total_a = 0, total_b = 0;
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    total_a += index.CascadeSize(NodeId{7}, i, &wa).value();
    total_b += loaded->CascadeSize(NodeId{7}, i, &wb).value();
  }
  EXPECT_EQ(total_a, total_b);
}

}  // namespace
}  // namespace soi

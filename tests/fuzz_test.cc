// Robustness "fuzz" sweeps: the decoders must reject (never crash on)
// arbitrary malformed input — random bytes, random printable text, and
// systematically mutated valid payloads.

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph_io.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "test_temp_dir.h"
#include "util/rng.h"

namespace soi {
namespace {

std::string RandomBytes(size_t size, Rng* rng) {
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng->NextBounded(256));
  return out;
}

std::string RandomPrintable(size_t size, Rng* rng) {
  static constexpr char kAlphabet[] = "0123456789 .-#ab\n\t";
  std::string out(size, '\0');
  for (char& c : out) {
    c = kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

// An index leaves a process only as a soi-snap file, so Snapshot::Open is
// the index decoder these two sweeps fuzz.
TEST_P(FuzzSweep, IndexDeserializerNeverCrashesOnGarbage) {
  Rng rng(1000 + GetParam());
  const std::string path = TestTempPath("garbage.soisnap");
  for (const size_t size : {0u, 3u, 17u, 100u, 4096u}) {
    for (const bool magic : {false, true}) {
      std::string bytes = RandomBytes(size, &rng);
      // Half the files carry a valid magic, so the sweep gets past the
      // first check into header and section-table validation.
      if (magic && size >= sizeof(kSnapshotMagic)) {
        std::memcpy(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic));
      }
      WriteFile(path, bytes);
      for (const auto validation :
           {SnapshotValidation::kStructural, SnapshotValidation::kFull}) {
        EXPECT_FALSE(Snapshot::Open(path, validation).ok())
            << size << " random bytes parsed";
      }
    }
  }
}

// Assembles the index of an opened snapshot and queries every world: a
// multi-seed spread (duplicate seeds included) and a single-seed cascade
// per node. Packed closures are decoded only here, at query time, so this
// is what runs the decoder over whatever bytes Open() let through.
void QueryEveryWorld(const Snapshot& snap, size_t pos) {
  auto index = snap.MakeIndex();
  ASSERT_TRUE(index.ok()) << "flip at byte " << pos << ": "
                          << index.status().ToString();
  const NodeId n = index->num_nodes();
  const NodeId seeds[] = {0, n / 2, n - 1, n / 2, 1 % n};
  CascadeIndex::Workspace ws;
  for (uint32_t i = 0; i < index->num_worlds(); ++i) {
    const auto size = index->CascadeSize(seeds, i, &ws);
    ASSERT_TRUE(size.ok());
    EXPECT_LE(*size, uint64_t{n}) << "flip at byte " << pos;
    for (NodeId v = 0; v < n; ++v) {
      const auto cascade = index->Cascade(v, i, &ws);
      ASSERT_TRUE(cascade.ok());
      EXPECT_LE(cascade->size(), size_t{n}) << "flip at byte " << pos;
    }
  }
}

// Flips one byte of a small valid (packed) snapshot at every offset and
// opens it at both validation levels. Under full validation a flip inside
// the header, the section table or a section payload must be rejected: the
// CRCs cover all three. The zero-filled alignment padding between sections
// is covered by no CRC, so a flip there only has to not crash. Structural
// validation checks no payload CRC, so many payload flips pass it; every
// file either level accepts must assemble and answer queries on every
// world without a crash (the sanitizer jobs run this sweep).
TEST_P(FuzzSweep, IndexDeserializerRejectsMutatedValidPayload) {
  Rng gen_rng(2000 + GetParam());
  auto topo = GenerateErdosRenyi(20, 50, false, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(2001 + GetParam());
  const auto g = AssignUniform(*topo, &assign_rng, 0.2, 0.5);
  ASSERT_TRUE(g.ok());
  CascadeIndexOptions options;
  options.num_worlds = 4;
  Rng rng(2002 + GetParam());
  const auto index = CascadeIndex::Build(*g, options, &rng);
  ASSERT_TRUE(index.ok());
  const std::string path = TestTempPath("flip.soisnap");
  ASSERT_TRUE(WriteSnapshot(*g, *index, path).ok());
  const std::string bytes = ReadFile(path);
  const auto pristine = Snapshot::Open(path, SnapshotValidation::kFull);
  ASSERT_TRUE(pristine.ok());
  ASSERT_TRUE((*pristine)->info().packed);

  SnapshotHeader header;
  ASSERT_GE(bytes.size(), sizeof(header));
  std::memcpy(&header, bytes.data(), sizeof(header));
  const size_t table_end =
      sizeof(header) + header.section_count * sizeof(SectionEntry);
  ASSERT_LE(table_end, bytes.size());
  std::vector<bool> covered(bytes.size(), false);
  for (size_t i = 0; i < table_end; ++i) covered[i] = true;
  for (uint32_t s = 0; s < header.section_count; ++s) {
    SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(header) + s * sizeof(entry),
                sizeof(entry));
    ASSERT_LE(entry.offset + entry.byte_size, bytes.size());
    for (uint64_t i = 0; i < entry.byte_size; ++i) {
      covered[entry.offset + i] = true;
    }
  }

  Rng mutate_rng(3000 + GetParam());
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  const auto put = [&](size_t pos, char c) {
    file.seekp(static_cast<std::streamoff>(pos));
    file.put(c);
    file.flush();
  };
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    put(pos, static_cast<char>(bytes[pos] ^ (1 + mutate_rng.NextBounded(255))));
    {
      const auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
      if (covered[pos]) {
        EXPECT_FALSE(snap.ok()) << "flip at byte " << pos << " accepted";
      } else if (snap.ok()) {
        QueryEveryWorld(**snap, pos);
      }
      const auto structural =
          Snapshot::Open(path, SnapshotValidation::kStructural);
      if (structural.ok()) QueryEveryWorld(**structural, pos);
    }
    put(pos, bytes[pos]);
  }
}

TEST_P(FuzzSweep, EdgeListParserNeverCrashesOnRandomText) {
  Rng rng(4000 + GetParam());
  for (const size_t size : {1u, 40u, 500u}) {
    // Either parses (valid rows by chance) or errors; both fine, no crash.
    const auto result = ParseEdgeList(RandomPrintable(size, &rng));
    if (result.ok()) {
      EXPECT_LE(result->num_edges(), size);
    }
  }
}

TEST_P(FuzzSweep, EdgeListParserHandlesHostileNumbers) {
  const char* hostile[] = {
      "0 1 1e308\n",
      "0 1 -1e308\n",
      "4294967295 4294967296 0.5\n",  // dst overflows NodeId
      "0 1 nan\n",
      "0 1 inf\n",
      "99999999999999999999 1 0.5\n",
      "0 0 0.5\n",  // self loop
  };
  for (const char* text : hostile) {
    const auto result = ParseEdgeList(text);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace soi

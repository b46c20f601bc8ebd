// Golden-file integration tests for soi_cli: byte-compares the stdout and
// artifacts of `index`, `typical`, and `infmax --method tc` at a fixed seed
// against checked-in goldens (tests/golden/), and asserts the determinism
// contract the runtime promises — identical output at --threads 1 and
// --threads 8, with metrics enabled and disabled. The `index` artifact is a
// soi-snap file pinned by its SHA-256 (index.soisnap.sha256).
//
// The binary under test and the fixture directory come in as compile
// definitions (SOI_CLI_PATH, SOI_GOLDEN_DIR) from tests/CMakeLists.txt.
//
// Regenerating goldens after an intended algorithmic change (from
// tests/golden/):
//   soi_cli gen --config Twitter-S --scale 0.08 --seed 5 --out graph.txt
//   soi_cli index   --graph graph.txt --worlds 64 --seed 1 --threads 1 \
//       --out index.soisnap > index.stdout.raw
//   sed 's/[0-9]*\.[0-9][0-9]s build/<TIME>s build/' index.stdout.raw \
//       > index.stdout.golden && rm index.stdout.raw
//   sha256sum index.soisnap > index.soisnap.sha256 && rm index.soisnap
//   soi_cli typical --graph graph.txt --worlds 64 --seed 1 --threads 1 \
//       > typical.stdout.golden
//   soi_cli infmax  --graph graph.txt --method tc --k 8 --worlds 64 \
//       --eval-worlds 100 --seed 1 --threads 1 > infmax_tc.stdout.golden
//   soi_cli serve   --graph graph.txt --worlds 64 --seed 1 --threads 1 \
//       --stdin < serve.requests.jsonl > serve.stdout.golden
//   soi_cli serve   --graph graph.txt --worlds 64 --seed 1 --threads 1 \
//       --sketch-k 16 --stdin < serve_v2.requests.jsonl \
//       | sed -E 's/"elapsed_us":[0-9]+/"elapsed_us":0/' \
//       > serve_v2.stdout.golden

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_temp_dir.h"

namespace soi {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(SOI_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct CliRun {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs `command` through the shell, capturing its stdout.
CliRun RunShell(const std::string& command) {
  CliRun run;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.stdout_text.append(buf, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// Runs soi_cli with `args`, capturing stdout (stderr is dropped: it carries
// only the "metrics: ..." notices and warnings, which are not part of the
// golden contract).
CliRun RunCli(const std::string& args) {
  return RunShell(std::string("'") + SOI_CLI_PATH + "' " + args +
                  " 2>/dev/null");
}

// The first 64 characters of `sha256sum` output: the hex digest.
std::string Sha256Hex(const std::string& text) { return text.substr(0, 64); }

std::string Sha256OfFile(const std::string& path) {
  const CliRun run = RunShell("sha256sum '" + path + "'");
  EXPECT_EQ(run.exit_code, 0) << "sha256sum failed on " << path;
  return Sha256Hex(run.stdout_text);
}

// The one nondeterministic token in `index` stdout is the build wall time.
std::string NormalizeIndexStdout(const std::string& text) {
  static const std::regex kBuildTime(R"([0-9]+\.[0-9][0-9]s build)");
  return std::regex_replace(text, kBuildTime, "<TIME>s build");
}

// Shared flags pinning the golden configuration (seed, worlds, graph).
std::string GraphFlags() {
  return "--graph '" + GoldenPath("graph.txt") + "' --worlds 64 --seed 1";
}

// Writes the `index` artifact of the golden configuration to `out`.
CliRun RunIndex(const std::string& extra, const std::string& out) {
  return RunCli("index " + GraphFlags() + " " + extra + " --out '" + out +
                "'");
}

TEST(CliGoldenTest, IndexStdoutMatchesGolden) {
  const std::string out = TestTempPath("index.soisnap");
  const CliRun run =
      RunCli("index " + GraphFlags() + " --threads 1 --out '" + out + "'");
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;
  // The golden stores the tempdir-independent part: everything after the
  // "wrote <path>:" prefix, with the build time normalized.
  const std::string golden = ReadFileOrDie(GoldenPath("index.stdout.golden"));
  const std::string normalized = NormalizeIndexStdout(run.stdout_text);
  const size_t got_sep = normalized.find(": ");
  const size_t want_sep = golden.find(": ");
  ASSERT_NE(got_sep, std::string::npos);
  ASSERT_NE(want_sep, std::string::npos);
  EXPECT_EQ(normalized.substr(got_sep), golden.substr(want_sep));
  std::remove(out.c_str());
}

TEST(CliGoldenTest, IndexArtifactMatchesGoldenAtOneAndEightThreads) {
  const std::string golden =
      Sha256Hex(ReadFileOrDie(GoldenPath("index.soisnap.sha256")));
  for (const char* threads : {"1", "8"}) {
    const std::string out =
        TestTempPath(std::string("index_t") + threads + ".soisnap");
    const CliRun run = RunIndex(std::string("--threads ") + threads, out);
    ASSERT_EQ(run.exit_code, 0) << run.stdout_text;
    EXPECT_EQ(Sha256OfFile(out), golden)
        << "index artifact diverged from golden at --threads " << threads;
    const CliRun verify = RunCli("snapshot verify --in '" + out + "'");
    EXPECT_EQ(verify.exit_code, 0) << verify.stdout_text;
    std::remove(out.c_str());
  }
}

TEST(CliGoldenTest, IndexArtifactIdenticalWithMetricsDisabled) {
  const std::string golden =
      Sha256Hex(ReadFileOrDie(GoldenPath("index.soisnap.sha256")));
  const std::string out = TestTempPath("index_nm.soisnap");
  const CliRun run = RunIndex("--threads 1 --no-metrics", out);
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(Sha256OfFile(out), golden)
      << "--no-metrics changed the index artifact";
  std::remove(out.c_str());
}

TEST(CliGoldenTest, IndexArtifactServesTheServeGolden) {
  // The `index` file is a snapshot: served from it, the protocol golden
  // replays byte-for-byte, as it does against an in-process build.
  const std::string out = TestTempPath("index_serve.soisnap");
  ASSERT_EQ(RunIndex("--threads 1", out).exit_code, 0);
  const std::string golden = ReadFileOrDie(GoldenPath("serve.stdout.golden"));
  for (const char* threads : {"1", "8"}) {
    const CliRun run = RunCli("serve --snapshot '" + out +
                              "' --stdin --threads " + threads + " < '" +
                              GoldenPath("serve.requests.jsonl") + "'");
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden)
        << "serve --snapshot diverged at --threads " << threads;
  }
  std::remove(out.c_str());
}

TEST(CliGoldenTest, SphereFromIndexMatchesInProcessSphere) {
  const std::string out = TestTempPath("index_sphere.soisnap");
  ASSERT_EQ(RunIndex("--threads 1", out).exit_code, 0);
  for (const char* node : {"0", "3", "17", "42", "99", "127"}) {
    const std::string sphere = "sphere " + GraphFlags() + " --node " + node;
    const CliRun built = RunCli(sphere);
    const CliRun loaded = RunCli(sphere + " --index '" + out + "'");
    ASSERT_EQ(built.exit_code, 0) << "node " << node;
    ASSERT_EQ(loaded.exit_code, 0) << "node " << node;
    EXPECT_EQ(loaded.stdout_text, built.stdout_text) << "node " << node;
  }
  std::remove(out.c_str());
}

// The "graph-fp: <hex>" line of `snapshot info`.
std::string GraphFingerprintOf(const std::string& snapshot) {
  const CliRun info = RunCli("snapshot info --in '" + snapshot + "'");
  EXPECT_EQ(info.exit_code, 0);
  const size_t at = info.stdout_text.find("graph-fp: ");
  EXPECT_NE(at, std::string::npos) << info.stdout_text;
  return info.stdout_text.substr(at + 10, 16);
}

TEST(CliGoldenTest, SphereRejectsAnIndexOfAnotherGraph) {
  const std::string index = TestTempPath("index_stale.soisnap");
  ASSERT_EQ(RunIndex("--threads 1", index).exit_code, 0);
  // The golden graph with its first edge line deleted.
  const std::string edited = TestTempPath("graph_edited.txt");
  {
    std::istringstream lines(ReadFileOrDie(GoldenPath("graph.txt")));
    std::ofstream out(edited);
    std::string line;
    bool dropped = false;
    while (std::getline(lines, line)) {
      if (!dropped && !line.empty() && line[0] != '#') {
        dropped = true;
        continue;
      }
      out << line << "\n";
    }
    ASSERT_TRUE(dropped);
  }
  const std::string edited_index = TestTempPath("index_edited.soisnap");
  ASSERT_EQ(RunCli("index --graph '" + edited + "' --worlds 4 --out '" +
                   edited_index + "'")
                .exit_code,
            0);
  const std::string index_fp = GraphFingerprintOf(index);
  const std::string edited_fp = GraphFingerprintOf(edited_index);
  ASSERT_NE(index_fp, edited_fp);

  const CliRun run = RunShell(std::string("'") + SOI_CLI_PATH +
                              "' sphere --graph '" + edited +
                              "' --node 3 --index '" + index + "' 2>&1");
  EXPECT_NE(run.exit_code, 0) << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("stale snapshot"), std::string::npos)
      << run.stdout_text;
  EXPECT_NE(run.stdout_text.find(index_fp), std::string::npos)
      << run.stdout_text;
  EXPECT_NE(run.stdout_text.find(edited_fp), std::string::npos)
      << run.stdout_text;
  // sphere --index requires --graph, so the remedy is a new index only.
  EXPECT_NE(run.stdout_text.find("soi_cli index"), std::string::npos)
      << run.stdout_text;
  EXPECT_EQ(run.stdout_text.find("drop --graph"), std::string::npos)
      << run.stdout_text;

  // serve --snapshot takes --graph only as a check, so dropping it is a
  // remedy there.
  const CliRun serve = RunShell(std::string("'") + SOI_CLI_PATH +
                                "' serve --snapshot '" + index +
                                "' --graph '" + edited +
                                "' --stdin < /dev/null 2>&1");
  EXPECT_NE(serve.exit_code, 0) << serve.stdout_text;
  EXPECT_NE(serve.stdout_text.find("stale snapshot"), std::string::npos)
      << serve.stdout_text;
  EXPECT_NE(serve.stdout_text.find("drop --graph"), std::string::npos)
      << serve.stdout_text;
}

TEST(CliGoldenTest, TypicalStdoutMatchesGoldenAcrossThreadsAndMetrics) {
  const std::string golden =
      ReadFileOrDie(GoldenPath("typical.stdout.golden"));
  for (const char* extra : {"--threads 1", "--threads 8",
                            "--threads 1 --no-metrics"}) {
    const CliRun run = RunCli("typical " + GraphFlags() + " " + extra);
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden) << "typical diverged with " << extra;
  }
}

TEST(CliGoldenTest, InfMaxTcStdoutMatchesGoldenAcrossThreads) {
  const std::string golden =
      ReadFileOrDie(GoldenPath("infmax_tc.stdout.golden"));
  for (const char* threads : {"1", "8"}) {
    const CliRun run =
        RunCli("infmax " + GraphFlags() +
               " --method tc --k 8 --eval-worlds 100 --threads " + threads);
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden)
        << "infmax tc diverged at --threads " << threads;
  }
}

TEST(CliGoldenTest, ClosureBudgetZeroReproducesGoldens) {
  // The closure cache is a pure memoization; --closure-budget-mb 0 forces
  // every query onto the traversal path, which must reproduce the (cached)
  // goldens byte-for-byte.
  const std::string typical_golden =
      ReadFileOrDie(GoldenPath("typical.stdout.golden"));
  const CliRun typical = RunCli("typical " + GraphFlags() +
                                " --threads 1 --closure-budget-mb 0");
  ASSERT_EQ(typical.exit_code, 0);
  EXPECT_EQ(typical.stdout_text, typical_golden)
      << "typical diverged with the closure cache disabled";

  const std::string infmax_golden =
      ReadFileOrDie(GoldenPath("infmax_tc.stdout.golden"));
  const CliRun infmax =
      RunCli("infmax " + GraphFlags() +
             " --method tc --k 8 --eval-worlds 100 --threads 1"
             " --closure-budget-mb 0");
  ASSERT_EQ(infmax.exit_code, 0);
  EXPECT_EQ(infmax.stdout_text, infmax_golden)
      << "infmax tc diverged with the closure cache disabled";
}

TEST(CliGoldenTest, ServeStdinMatchesGoldenAcrossThreads) {
  // The request fixture mixes every op with malformed and invalid lines;
  // the golden asserts the whole protocol contract at once: responses in
  // request order, errors as status lines (the process must not abort),
  // and ids salvaged from broken JSON.
  const std::string golden = ReadFileOrDie(GoldenPath("serve.stdout.golden"));
  for (const char* threads : {"1", "8"}) {
    const CliRun run = RunCli("serve " + GraphFlags() + " --stdin --threads " +
                              threads + " < '" +
                              GoldenPath("serve.requests.jsonl") + "'");
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden)
        << "serve diverged at --threads " << threads;
  }
}

// The one nondeterministic token in v2 responses is the wall-clock field.
std::string NormalizeElapsed(const std::string& text) {
  static const std::regex kElapsed(R"("elapsed_us":[0-9]+)");
  return std::regex_replace(text, kElapsed, "\"elapsed_us\":0");
}

TEST(CliGoldenTest, ServeV2StdinMatchesGoldenAcrossThreads) {
  // The fixture mixes v1 and v2 lines, every accuracy knob, and the v2
  // structured-error shapes; the sketch tier is deterministic (salt is a
  // pure function of --seed), so the whole reply stream is golden-stable
  // once elapsed_us is normalized.
  const std::string golden =
      ReadFileOrDie(GoldenPath("serve_v2.stdout.golden"));
  for (const char* threads : {"1", "8"}) {
    const CliRun run = RunCli("serve " + GraphFlags() +
                              " --sketch-k 16 --stdin --threads " + threads +
                              " < '" + GoldenPath("serve_v2.requests.jsonl") +
                              "'");
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(NormalizeElapsed(run.stdout_text), golden)
        << "serve v2 diverged at --threads " << threads;
  }
}

// Pulls "key": <number> out of the metrics JSON (flat, known-schema file;
// a full parser is not needed to check the coverage criterion).
double JsonNumberAfter(const std::string& json, const std::string& key,
                       size_t from = 0) {
  const size_t at = json.find("\"" + key + "\"", from);
  if (at == std::string::npos) return -1.0;
  const size_t colon = json.find(':', at);
  return std::atof(json.c_str() + colon + 1);
}

TEST(CliGoldenTest, MetricsSidecarIsValidAndCoversRuntime) {
  const std::string out = TestTempPath("cov.soisnap");
  const std::string metrics = TestTempPath("cov.json");
  // More worlds than the golden run so real work dominates process startup
  // and the >= 95% phase-coverage contract is comfortably testable.
  const CliRun run = RunCli(
      "index --graph '" + GoldenPath("graph.txt") +
      "' --worlds 512 --seed 1 --threads 1 --out '" + out +
      "' --metrics-out '" + metrics + "'");
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;

  const std::string json = ReadFileOrDie(metrics);
  EXPECT_NE(json.find("\"schema\": \"soi-metrics-v1\""), std::string::npos);
  const double total = JsonNumberAfter(json, "total_wall_seconds");
  ASSERT_GT(total, 0.0);

  // cli/* spans partition the command dispatch; together they must account
  // for >= 95% of the process wall time past flag parsing.
  double covered = 0.0;
  for (const char* phase : {"cli/load_graph", "cli/build_index",
                            "cli/write_snapshot"}) {
    const size_t at = json.find(std::string("\"") + phase + "\"");
    ASSERT_NE(at, std::string::npos) << phase << " missing from metrics";
    covered += JsonNumberAfter(json, "total_seconds", at);
  }
  EXPECT_GE(covered / total, 0.95)
      << "cli/* spans cover only " << covered << "s of " << total << "s";

  EXPECT_NE(json.find("\"index/worlds_built\": 512"), std::string::npos);
  std::remove(out.c_str());
  std::remove(metrics.c_str());
}

}  // namespace
}  // namespace soi

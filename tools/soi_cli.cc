// soi_cli — command-line front end for the spheres-of-influence library.
//
//   soi_cli gen         --config Digg-S [--scale 0.25] [--seed 42] --out g.txt
//   soi_cli stats       --graph g.txt [--undirected] [--default-prob 0.1]
//   soi_cli index       --graph g.txt [--worlds 256] [--model ic|lt]
//                       [--seed 1] --out g.soisnap
//                       (writes the `snapshot create --no-typical` file)
//   soi_cli sphere      --graph g.txt --node 42 [--index g.soisnap]
//                       [--worlds 256] [--local-search] [--eval-samples 500]
//   soi_cli infmax      --graph g.txt --method std|mc|tc|rr|degree|random
//                       [--k 50] [--worlds 256] [--eval-worlds 400]
//   soi_cli typical     --graph g.txt [--worlds 256] [--model ic|lt]
//                       [--seed 1] [--node 42] [--local-search]
//   soi_cli stability   --graph g.txt --seeds 1,2,3 [--samples 400]
//   soi_cli reliability --graph g.txt --source 0 --target 5
//                       [--samples 20000] [--max-hops 0]
//   soi_cli serve       --graph g.txt [--worlds 256] [--seed 1]
//                       (--stdin | --port N) [--max-batch 1024]
//                       [--max-in-flight 4] [--timeout-ms 0]
//                       [--sketch-k K] [--sketch-pressure-in-flight N]
//                       [--dynamic [--drift-rebuild-threshold N]]
//   soi_cli serve       --snapshot s.soisnap (--stdin | --port N)
//                       [--graph g.txt]  (verifies snapshot freshness)
//                       (mmap'd instant restart; SIGHUP hot-reloads the file)
//   soi_cli update      --graph g.txt --updates u.txt [--batch 1]
//                       [--verify] [--worlds 256] [--model ic|lt] [--seed 1]
//   soi_cli snapshot create --graph g.txt [--worlds 256] [--model ic|lt]
//                       [--seed 1] [--no-typical] [--no-pack]
//                       [--sketch-k K] --out s.soisnap
//   soi_cli snapshot info   --in s.soisnap
//   soi_cli snapshot verify --in s.soisnap
//
// Every subcommand's flags live in one declarative table (see Commands()
// below); `soi_cli <command> --help` prints the generated flag reference
// and unknown flags are hard errors naming the command. Global flags
// (--threads, --metrics-out, --trace-out, --no-metrics) are part of every
// command's table.
//
//   --threads N        worker threads for parallel sampling / estimation
//                      (default 0 = hardware concurrency). Outputs are
//                      bit-identical for every value of N, including 1: work
//                      items derive their random streams from their index,
//                      not from the executing thread (see src/runtime/).
//   --metrics-out F    write per-phase timers/counters/memory as JSON
//                      ("soi-metrics-v1", see README.md §Observability)
//   --trace-out F      write spans as Chrome trace JSON (chrome://tracing)
//   --no-metrics       disable all instrumentation (same as SOI_OBS=0);
//                      algorithmic output is byte-identical either way
//
// Index-building commands (index, sphere, typical, infmax std|tc, serve)
// also take
//   --closure-budget-mb N   memory budget for the per-world reachability
//                      closure cache (default: SOI_CLOSURE_BUDGET_MB or 512;
//                      0 disables). Over-budget indexes fall back to
//                      per-query DAG traversal; outputs are byte-identical
//                      either way, only speed changes. A loaded index
//                      (sphere --index, serve --snapshot) keeps the tiers
//                      it was written with.
//   --closure-tier P   which reachability tiers the budget may assign:
//                      auto (default; materialized, then interval labels,
//                      then traversal as the budget runs out), materialized
//                      (all-or-nothing legacy cache), labels, traversal.
//                      Also via SOI_CLOSURE_TIER. Byte-identical outputs on
//                      every tier; only memory/speed change (DESIGN §14).
//
// `serve` speaks the line-delimited JSON protocol "soi-service-v1" (see
// src/service/protocol.h) over stdin/stdout or a loopback TCP port, with
// one resident index answering every request.
//
// Graphs are whitespace edge lists: "src dst [prob]" (SNAP files load
// directly; missing probabilities default to --default-prob).

#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/stability.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/dynamic_index.h"
#include "core/typical_cascade.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "index/cascade_index.h"
#include "infmax/baselines.h"
#include "infmax/evaluate.h"
#include "infmax/greedy_std.h"
#include "infmax/infmax_tc.h"
#include "infmax/rrset.h"
#include "infmax/sketch_oracle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reliability/reliability.h"
#include "runtime/parallel_for.h"
#include "service/drift_rebuild.h"
#include "service/engine.h"
#include "service/hot_swap.h"
#include "service/server.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"

namespace soi::cli {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

#define CLI_ASSIGN(lhs, expr)              \
  auto lhs##_result = (expr);              \
  if (!lhs##_result.ok()) return Fail(lhs##_result.status()); \
  auto lhs = std::move(lhs##_result).value()

// ---------------------------------------------------------------------------
// The flag tables. One entry per subcommand; shared flag groups (graph
// loading, index building, globals) are appended by WithShared so every
// command documents exactly what it accepts.
// ---------------------------------------------------------------------------

std::vector<FlagSpec> WithShared(std::vector<FlagSpec> flags, bool graph,
                                 bool index) {
  if (graph) {
    flags.push_back({"graph", FlagType::kString, "",
                     "input edge-list file (required)"});
    flags.push_back({"default-prob", FlagType::kDouble, "0.1",
                     "probability for edges listed without one"});
    flags.push_back({"undirected", FlagType::kBool, "",
                     "treat edges as undirected"});
    flags.push_back({"keep-max-duplicate", FlagType::kBool, "",
                     "keep the max-probability duplicate edge"});
  }
  if (index) {
    flags.push_back({"worlds", FlagType::kInt, "256",
                     "possible worlds to sample"});
    flags.push_back({"model", FlagType::kString, "ic",
                     "propagation model (ic|lt)"});
    flags.push_back({"seed", FlagType::kInt, "1", "world-sampling seed"});
    flags.push_back({"closure-budget-mb", FlagType::kInt, "512",
                     "closure cache memory budget (0 = disabled)"});
    flags.push_back({"closure-tier", FlagType::kString, "",
                     "reachability tier policy: auto|materialized|labels|"
                     "traversal (default: SOI_CLOSURE_TIER or auto)"});
  }
  flags.push_back({"threads", FlagType::kInt, "0",
                   "worker threads (0 = hardware concurrency)"});
  flags.push_back({"metrics-out", FlagType::kString, "",
                   "write metrics JSON to this path"});
  flags.push_back({"trace-out", FlagType::kString, "",
                   "write Chrome trace JSON to this path"});
  flags.push_back({"no-metrics", FlagType::kBool, "",
                   "disable all instrumentation"});
  return flags;
}

std::vector<CommandSpec> Commands() {
  std::vector<CommandSpec> commands;
  commands.push_back(
      {"gen", "generate a paper-configuration synthetic graph", "",
       WithShared({{"config", FlagType::kString, "",
                    "dataset configuration name (required)"},
                   {"scale", FlagType::kDouble, "0.25", "size scale factor"},
                   {"seed", FlagType::kInt, "42", "generator seed"},
                   {"out", FlagType::kString, "",
                    "output edge-list path (required)"}},
                  /*graph=*/false, /*index=*/false)});
  commands.push_back({"stats", "print topology and edge-probability summary",
                      "", WithShared({}, /*graph=*/true, /*index=*/false)});
  commands.push_back(
      {"index", "build the cascade index (Algorithm 1) and save it", "",
       WithShared({{"out", FlagType::kString, "",
                    "output soi-snap path (required)"}},
                  /*graph=*/true, /*index=*/true)});
  commands.push_back(
      {"sphere", "sphere of influence (Algorithm 2) of one node", "",
       WithShared({{"node", FlagType::kInt, "", "seed node id (required)"},
                   {"index", FlagType::kString, "",
                    "load this index or snapshot file instead of building "
                    "one (must match --graph)"},
                   {"local-search", FlagType::kBool, "",
                    "enable 1-swap local-search refinement"},
                   {"eval-samples", FlagType::kInt, "0",
                    "hold-out cost evaluation samples (0 = skip)"}},
                  /*graph=*/true, /*index=*/true)});
  commands.push_back(
      {"typical", "typical cascades for one node or the whole graph", "",
       WithShared({{"node", FlagType::kInt, "-1",
                    "single node id (-1 = all nodes)"},
                   {"local-search", FlagType::kBool, "",
                    "enable 1-swap local-search refinement"}},
                  /*graph=*/true, /*index=*/true)});
  commands.push_back(
      {"infmax", "seed selection plus independent spread evaluation", "",
       WithShared({{"method", FlagType::kString, "tc",
                    "std|mc|tc|rr|degree|random"},
                   {"k", FlagType::kInt, "50", "number of seeds"},
                   {"eval-worlds", FlagType::kInt, "400",
                    "worlds for the final spread estimate"}},
                  /*graph=*/true, /*index=*/true)});
  commands.push_back(
      {"stability", "seed-set stability diagnostics (Figure 8)", "",
       WithShared({{"seeds", FlagType::kString, "",
                    "comma-separated seed ids (required)"},
                   {"samples", FlagType::kInt, "400",
                    "median + evaluation sample count"}},
                  /*graph=*/true, /*index=*/false)});
  commands.push_back(
      {"reliability", "source-target reliability estimate", "",
       WithShared({{"source", FlagType::kInt, "", "source node (required)"},
                   {"target", FlagType::kInt, "", "target node (required)"},
                   {"samples", FlagType::kInt, "20000", "Monte Carlo samples"},
                   {"max-hops", FlagType::kInt, "0",
                    "distance constraint (0 = unconstrained)"}},
                  /*graph=*/true, /*index=*/false)});
  commands.push_back(
      {"serve", "answer line-JSON queries against one resident index", "",
       WithShared({{"stdin", FlagType::kBool, "",
                    "serve requests from stdin, responses to stdout"},
                   {"port", FlagType::kInt, "",
                    "serve TCP on 127.0.0.1:<port> (0 = ephemeral)"},
                   {"snapshot", FlagType::kString, "",
                    "serve from this soi-snap-v1 file (mmap, no rebuild; "
                    "SIGHUP hot-reloads; pass --graph too to verify the "
                    "snapshot is fresh for that graph)"},
                   {"dynamic", FlagType::kBool, "",
                    "build an incrementally updatable engine that accepts "
                    "op:update batches (keyed sampling; not usable with "
                    "--snapshot)"},
                   {"drift-rebuild-threshold", FlagType::kInt, "0",
                    "with --dynamic: rebuild + hot-swap a compacted engine "
                    "after N applied updates (0 = never)"},
                   {"max-batch", FlagType::kInt, "1024",
                    "largest request batch the engine accepts"},
                   {"max-in-flight", FlagType::kInt, "4",
                    "concurrently admitted batches"},
                   {"timeout-ms", FlagType::kInt, "0",
                    "default per-request deadline (0 = none)"},
                   {"sketch-k", FlagType::kInt, "0",
                    "enable the bottom-k sketch tier with this k (>= 3; "
                    "0 = exact-only; with --snapshot the file's embedded "
                    "sketches are used and this must be 0 or match their k)"},
                   {"sketch-pressure-in-flight", FlagType::kInt, "0",
                    "accuracy:auto degrades to the sketch tier once this "
                    "many batches are in flight (0 = max-in-flight)"},
                   {"batch-max", FlagType::kInt, "0",
                    "serve-loop flush threshold (0 = max-batch)"},
                   {"max-connections", FlagType::kInt, "0",
                    "TCP only: stop after N connections (0 = forever)"},
                   {"batch-window-us", FlagType::kInt, "0",
                    "cross-connection batching window in microseconds "
                    "(0 = flush once the ready set drains)"},
                   {"max-line-bytes", FlagType::kInt, "1048576",
                    "longest accepted request line; longer lines get an "
                    "in-order error and are dropped (0 = unlimited)"}},
                  /*graph=*/true, /*index=*/true)});
  commands.push_back(
      {"update", "apply an edge-update stream to an incremental index", "",
       WithShared({{"updates", FlagType::kString, "",
                    "update stream file: one op per line — 'insert U V P', "
                    "'delete U V', 'prob U V P' (required)"},
                   {"batch", FlagType::kInt, "1",
                    "ops applied per ApplyUpdates batch"},
                   {"verify", FlagType::kBool, "",
                    "after the stream, rebuild from scratch and byte-compare "
                    "the incrementally maintained index (exit 1 on any "
                    "divergence)"}},
                  /*graph=*/true, /*index=*/true)});
  commands.push_back(
      {"snapshot-create",
       "build index + typical table and write a soi-snap-v1 snapshot", "",
       WithShared({{"out", FlagType::kString, "",
                    "output snapshot path (required)"},
                   {"sketch-k", FlagType::kInt, "0",
                    "also build + embed bottom-k reachability sketches with "
                    "this k (>= 3; 0 = none) so serve --snapshot gets the "
                    "sketch tier without any build"},
                   {"no-typical", FlagType::kBool, "",
                    "skip the typical-cascade table (smaller file; "
                    "seed_select pays the sweep on first query)"},
                   {"no-pack", FlagType::kBool, "",
                    "write raw u32 closure/typical sections instead of "
                    "delta-varint packed ones (larger file; no run "
                    "validation at open, no run decoding per query)"}},
                  /*graph=*/true, /*index=*/true)});
  commands.push_back(
      {"snapshot-info", "print a snapshot's header facts", "",
       WithShared({{"in", FlagType::kString, "",
                    "snapshot path (required)"}},
                  /*graph=*/false, /*index=*/false)});
  commands.push_back(
      {"snapshot-verify",
       "validate structure plus per-section CRC-32C checksums", "",
       WithShared({{"in", FlagType::kString, "",
                    "snapshot path (required)"}},
                  /*graph=*/false, /*index=*/false)});
  return commands;
}

Result<ProbGraph> LoadGraph(const FlagParser& flags) {
  SOI_OBS_SPAN("cli/load_graph");
  SOI_ASSIGN_OR_RETURN(const std::string path, flags.GetString("graph", ""));
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  EdgeListOptions options;
  SOI_ASSIGN_OR_RETURN(options.default_prob,
                       flags.GetDouble("default-prob", 0.1));
  options.undirected = flags.GetBool("undirected", false);
  options.keep_max_duplicate = flags.GetBool("keep-max-duplicate", false);
  return LoadEdgeList(path, options);
}

Result<std::vector<NodeId>> ParseSeedList(const std::string& csv, NodeId n) {
  std::vector<NodeId> seeds;
  std::istringstream iss(csv);
  std::string token;
  while (std::getline(iss, token, ',')) {
    if (token.empty()) continue;
    char* end = nullptr;
    const unsigned long v = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || v >= n) {
      return Status::InvalidArgument("bad seed '" + token + "'");
    }
    seeds.push_back(static_cast<NodeId>(v));
  }
  if (seeds.empty()) return Status::InvalidArgument("--seeds is empty");
  return seeds;
}

Result<CascadeIndexOptions> IndexOptionsFromFlags(const FlagParser& flags) {
  CascadeIndexOptions options;
  SOI_ASSIGN_OR_RETURN(const int64_t worlds, flags.GetInt("worlds", 256));
  options.num_worlds = static_cast<uint32_t>(worlds);
  SOI_ASSIGN_OR_RETURN(const std::string model,
                       flags.GetString("model", "ic"));
  if (model == "lt") {
    options.model = PropagationModel::kLinearThreshold;
  } else if (model != "ic") {
    return Status::InvalidArgument("--model must be ic or lt");
  }
  SOI_ASSIGN_OR_RETURN(
      const int64_t budget,
      flags.GetInt("closure-budget-mb",
                   static_cast<int64_t>(DefaultClosureBudgetMb())));
  if (budget < 0) {
    return Status::InvalidArgument("--closure-budget-mb must be >= 0");
  }
  options.closure_budget_mb = static_cast<uint64_t>(budget);
  SOI_ASSIGN_OR_RETURN(const std::string tier,
                       flags.GetString("closure-tier", ""));
  if (!tier.empty() &&
      !ParseClosureTierPolicy(tier.c_str(), &options.tier_policy)) {
    return Status::InvalidArgument(
        "--closure-tier must be auto, materialized, labels, or traversal");
  }
  return options;
}

Result<CascadeIndex> BuildIndexFromFlags(const ProbGraph& graph,
                                         const FlagParser& flags) {
  SOI_OBS_SPAN("cli/build_index");
  SOI_ASSIGN_OR_RETURN(const CascadeIndexOptions options,
                       IndexOptionsFromFlags(flags));
  SOI_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed", 1));
  Rng rng(static_cast<uint64_t>(seed));
  return CascadeIndex::Build(graph, options, &rng);
}

// What a snapshot written from the command line holds beyond the graph and
// the index's worlds and reachability tiers.
struct SnapshotContents {
  bool typical = true;
  bool pack = true;
  uint32_t sketch_k = 0;  // 0 = no sketches
};

// Loads the graph, builds the index and writes both as one soi-snap file at
// `out` (the path behind `snapshot create` and `index`). Returns the index
// so the caller can report on it.
Result<CascadeIndex> CreateSnapshot(const FlagParser& flags,
                                    const std::string& out,
                                    const SnapshotContents& contents) {
  SOI_ASSIGN_OR_RETURN(const ProbGraph graph, LoadGraph(flags));
  SOI_ASSIGN_OR_RETURN(const CascadeIndexOptions index_options,
                       IndexOptionsFromFlags(flags));
  SOI_ASSIGN_OR_RETURN(CascadeIndex index, BuildIndexFromFlags(graph, flags));

  SnapshotWriteOptions options;
  options.model = index_options.model;
  options.pack = contents.pack;
  TypicalCascadeSweep sweep;
  if (contents.typical) {
    SOI_OBS_SPAN("cli/compute_typical");
    TypicalCascadeComputer computer(&index);
    SOI_ASSIGN_OR_RETURN(sweep, computer.ComputeAllFlat());
    options.typical = &sweep.cascades;
  }
  std::unique_ptr<SketchSpreadOracle> sketches;
  if (contents.sketch_k > 0) {
    SOI_OBS_SPAN("cli/build_sketches");
    SOI_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed", 1));
    SOI_ASSIGN_OR_RETURN(SketchSpreadOracle built,
                         SketchSpreadOracle::BuildDeterministic(
                             index, contents.sketch_k,
                             static_cast<uint64_t>(seed)));
    sketches = std::make_unique<SketchSpreadOracle>(std::move(built));
    options.sketches = sketches.get();
  }
  {
    SOI_OBS_SPAN("cli/write_snapshot");
    SOI_RETURN_IF_ERROR(WriteSnapshot(graph, index, out, options));
  }
  return index;
}

int CmdGen(const FlagParser& flags) {
  CLI_ASSIGN(config, flags.GetString("config", ""));
  if (config.empty()) return Fail(Status::InvalidArgument("--config required"));
  DatasetOptions options;
  CLI_ASSIGN(scale, flags.GetDouble("scale", 0.25));
  CLI_ASSIGN(seed, flags.GetInt("seed", 42));
  options.scale = scale;
  options.seed = static_cast<uint64_t>(seed);
  CLI_ASSIGN(out, flags.GetString("out", ""));
  if (out.empty()) return Fail(Status::InvalidArgument("--out required"));
  const Status out_ok = ValidateWritableOutPath(out);
  if (!out_ok.ok()) return Fail(out_ok);
  CLI_ASSIGN(dataset, MakeDataset(config, options));
  const Status save = SaveEdgeList(dataset.graph, out);
  if (!save.ok()) return Fail(save);
  std::printf("wrote %s: %s (%s)\n", out.c_str(),
              dataset.graph.Summary().c_str(), dataset.prob_source.c_str());
  return 0;
}

int CmdStats(const FlagParser& flags) {
  CLI_ASSIGN(graph, LoadGraph(flags));
  std::printf("%s\n", ComputeGraphStats(graph).ToString().c_str());
  RunningStats probs;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    probs.Add(graph.EdgeProb(e));
  }
  std::printf("edge prob: avg %.4f min %.4f max %.4f\n", probs.mean(),
              probs.min(), probs.max());
  return 0;
}

// Writes the `--no-typical` form of `snapshot create`: packed, no typical
// table, no sketches. The stdout line reports the built index.
int CmdIndex(const FlagParser& flags) {
  CLI_ASSIGN(out, flags.GetString("out", ""));
  if (out.empty()) return Fail(Status::InvalidArgument("--out required"));
  const Status out_ok = ValidateWritableOutPath(out);
  if (!out_ok.ok()) return Fail(out_ok);
  CLI_ASSIGN(index, CreateSnapshot(flags, out, {.typical = false}));
  std::printf(
      "wrote %s: %u worlds, avg %.1f components, ~%.1f MiB, %.2fs build\n",
      out.c_str(), index.num_worlds(), index.stats().avg_components,
      static_cast<double>(index.stats().approx_bytes) / (1 << 20),
      index.stats().build_seconds);
  return 0;
}

// Opens an `index` / `snapshot create` file for `graph`: refuses a file
// written from a different graph, then assembles the index, which borrows
// from the mapping — `*snap` must outlive it.
Result<CascadeIndex> LoadIndexSnapshot(const std::string& path,
                                       const ProbGraph& graph,
                                       std::shared_ptr<const Snapshot>* snap) {
  SOI_ASSIGN_OR_RETURN(*snap, Snapshot::Open(path));
  const Status fresh = CheckSnapshotFreshness((*snap)->info(), graph);
  if (!fresh.ok()) {
    // --graph is required here: the only remedy is a new index file.
    return Status::InvalidArgument(fresh.message() +
                                   " with `soi_cli index`");
  }
  return (*snap)->MakeIndex();
}

int CmdSphere(const FlagParser& flags) {
  CLI_ASSIGN(graph, LoadGraph(flags));
  CLI_ASSIGN(node_i64, flags.GetInt("node", -1));
  if (node_i64 < 0 || node_i64 >= graph.num_nodes()) {
    return Fail(Status::InvalidArgument("--node required (and in range)"));
  }
  const NodeId node = static_cast<NodeId>(node_i64);

  CLI_ASSIGN(index_path, flags.GetString("index", ""));
  std::shared_ptr<const Snapshot> snap;  // declared first: outlives `index`
  Result<CascadeIndex> index =
      index_path.empty() ? BuildIndexFromFlags(graph, flags)
                         : LoadIndexSnapshot(index_path, graph, &snap);
  if (!index.ok()) return Fail(index.status());
  if (index->num_nodes() != graph.num_nodes()) {
    return Fail(Status::FailedPrecondition("index/graph node mismatch"));
  }

  TypicalCascadeComputer computer(&*index);
  TypicalCascadeOptions options;
  options.median.local_search = flags.GetBool("local-search", false);
  CLI_ASSIGN(sphere, computer.Compute(node, options));

  std::printf("sphere of influence of %u (%zu nodes, in-sample cost %.4f, "
              "mean sample size %.1f):\n",
              node, sphere.cascade.size(), sphere.in_sample_cost,
              sphere.mean_sample_size);
  for (size_t i = 0; i < sphere.cascade.size(); ++i) {
    std::printf("%u%c", sphere.cascade[i],
                i + 1 == sphere.cascade.size() ? '\n' : ' ');
  }
  CLI_ASSIGN(eval_samples, flags.GetInt("eval-samples", 0));
  if (eval_samples > 0) {
    const NodeId seeds[1] = {node};
    Rng rng(7);
    CLI_ASSIGN(cost,
               EstimateExpectedCost(graph, seeds, sphere.cascade,
                                    static_cast<uint32_t>(eval_samples), &rng));
    std::printf("hold-out expected cost: %.4f\n", cost);
  }
  return 0;
}

// Typical cascades (Alg. 2) for one node or the whole graph, printed as
// "node <v>: cost=<rho_s> size=<|C*|>: <members>". Output is deterministic
// at a fixed seed for every --threads value, which makes this command the
// CLI-level determinism golden.
int CmdTypical(const FlagParser& flags) {
  CLI_ASSIGN(graph, LoadGraph(flags));
  CLI_ASSIGN(index, BuildIndexFromFlags(graph, flags));
  TypicalCascadeComputer computer(&index);
  TypicalCascadeOptions options;
  options.median.local_search = flags.GetBool("local-search", false);
  CLI_ASSIGN(node_i64, flags.GetInt("node", -1));

  SOI_OBS_SPAN("cli/compute_typical");
  const auto print_node = [](NodeId v, double cost,
                             std::span<const NodeId> cascade) {
    std::printf("node %u: cost=%.4f size=%zu:", v, cost, cascade.size());
    for (NodeId u : cascade) std::printf(" %u", u);
    std::printf("\n");
  };
  if (node_i64 >= 0) {
    if (node_i64 >= graph.num_nodes()) {
      return Fail(Status::OutOfRange("--node out of range"));
    }
    const NodeId node = static_cast<NodeId>(node_i64);
    CLI_ASSIGN(one, computer.Compute(node, options));
    print_node(node, one.in_sample_cost, one.cascade);
  } else {
    CLI_ASSIGN(sweep, computer.ComputeAllFlat(options));
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      print_node(v, sweep.in_sample_cost[v], sweep.cascades.Set(v));
    }
  }
  return 0;
}

int CmdInfMax(const FlagParser& flags) {
  CLI_ASSIGN(graph, LoadGraph(flags));
  CLI_ASSIGN(method, flags.GetString("method", "tc"));
  CLI_ASSIGN(k_i64, flags.GetInt("k", 50));
  const uint32_t k = static_cast<uint32_t>(k_i64);
  CLI_ASSIGN(worlds_i64, flags.GetInt("worlds", 256));
  const uint32_t worlds = static_cast<uint32_t>(worlds_i64);
  CLI_ASSIGN(seed, flags.GetInt("seed", 1));
  Rng rng(static_cast<uint64_t>(seed));

  std::vector<NodeId> seeds;
  {
    SOI_OBS_SPAN("cli/select_seeds");
    if (method == "std" || method == "tc") {
      CLI_ASSIGN(index, BuildIndexFromFlags(graph, flags));
      if (method == "std") {
        GreedyStdOptions options;
        options.k = k;
        CLI_ASSIGN(result, InfMaxStd(index, options));
        seeds = std::move(result.seeds);
      } else {
        TypicalCascadeComputer computer(&index);
        CLI_ASSIGN(sweep, computer.ComputeAllFlat());
        InfMaxTcOptions options;
        options.k = k;
        CLI_ASSIGN(result,
                   InfMaxTC(sweep.cascades, graph.num_nodes(), options));
        seeds = std::move(result.seeds);
      }
    } else if (method == "mc") {
      GreedyStdMcOptions options;
      options.k = k;
      options.mc_samples = worlds;
      CLI_ASSIGN(result, InfMaxStdMc(graph, options, &rng));
      seeds = std::move(result.seeds);
    } else if (method == "rr") {
      RrSetOptions options;
      options.k = k;
      CLI_ASSIGN(result, InfMaxRr(graph, options, &rng));
      seeds = std::move(result.seeds);
    } else if (method == "degree") {
      CLI_ASSIGN(result, SelectTopDegree(graph, k));
      seeds = std::move(result);
    } else if (method == "random") {
      CLI_ASSIGN(result, SelectRandom(graph, k, &rng));
      seeds = std::move(result);
    } else {
      return Fail(Status::InvalidArgument(
          "--method must be std|mc|tc|rr|degree|random"));
    }
  }

  CLI_ASSIGN(eval_worlds, flags.GetInt("eval-worlds", 400));
  Rng eval_rng(99);
  CLI_ASSIGN(spread, [&]() -> Result<double> {
    SOI_OBS_SPAN("cli/evaluate");
    return EvaluateSpread(graph, seeds, static_cast<uint32_t>(eval_worlds),
                          &eval_rng);
  }());
  std::printf("method=%s k=%u expected spread=%.1f\nseeds:", method.c_str(),
              k, spread);
  for (NodeId s : seeds) std::printf(" %u", s);
  std::printf("\n");
  return 0;
}

int CmdStability(const FlagParser& flags) {
  CLI_ASSIGN(graph, LoadGraph(flags));
  CLI_ASSIGN(seeds_csv, flags.GetString("seeds", ""));
  CLI_ASSIGN(seeds, ParseSeedList(seeds_csv, graph.num_nodes()));
  StabilityOptions options;
  CLI_ASSIGN(samples, flags.GetInt("samples", 400));
  options.median_samples = options.eval_samples =
      static_cast<uint32_t>(samples);
  Rng rng(5);
  CLI_ASSIGN(result, ComputeSeedSetStability(graph, seeds, options, &rng));
  std::printf("seed set of %zu nodes:\n", seeds.size());
  std::printf("  typical cascade size: %zu\n", result.typical_cascade.size());
  std::printf("  expected cost:        %.4f (hold-out)\n",
              result.expected_cost);
  std::printf("  in-sample cost:       %.4f\n", result.in_sample_cost);
  std::printf("  mean cascade size:    %.1f\n", result.mean_cascade_size);
  return 0;
}

int CmdReliability(const FlagParser& flags) {
  CLI_ASSIGN(graph, LoadGraph(flags));
  CLI_ASSIGN(source, flags.GetInt("source", -1));
  CLI_ASSIGN(target, flags.GetInt("target", -1));
  if (source < 0 || target < 0) {
    return Fail(Status::InvalidArgument("--source and --target required"));
  }
  CLI_ASSIGN(samples, flags.GetInt("samples", 20000));
  CLI_ASSIGN(max_hops, flags.GetInt("max-hops", 0));
  Rng rng(11);
  if (max_hops > 0) {
    CLI_ASSIGN(rel, EstimateDistanceConstrainedReliability(
                        graph, static_cast<NodeId>(source),
                        static_cast<NodeId>(target),
                        static_cast<uint32_t>(max_hops),
                        static_cast<uint32_t>(samples), &rng));
    std::printf("P(reach within %lld hops) ~= %.4f\n",
                static_cast<long long>(max_hops), rel);
  } else {
    CLI_ASSIGN(rel, EstimateReliability(graph, static_cast<NodeId>(source),
                                        static_cast<NodeId>(target),
                                        static_cast<uint32_t>(samples), &rng));
    std::printf("rel(%lld -> %lld) ~= %.4f\n", static_cast<long long>(source),
                static_cast<long long>(target), rel);
  }
  return 0;
}

// Update streams are whitespace text, one op per line:
//   insert U V P    add edge (U,V) with probability P
//   delete U V      remove edge (U,V)
//   prob U V P      re-weight edge (U,V) to P
// Blank lines and lines starting with '#' are skipped.
Result<std::vector<GraphUpdate>> ParseUpdatesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open updates file '" + path + "'");
  std::vector<GraphUpdate> updates;
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream iss(line);
    std::string op;
    if (!(iss >> op) || op[0] == '#') continue;
    GraphUpdate update;
    if (op == "insert") {
      update.kind = UpdateKind::kEdgeInsert;
    } else if (op == "delete") {
      update.kind = UpdateKind::kEdgeDelete;
    } else if (op == "prob") {
      update.kind = UpdateKind::kProbUpdate;
    } else {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_no) + ": unknown op '" + op +
          "' (expected insert | delete | prob)");
    }
    int64_t src = -1, dst = -1;
    if (!(iss >> src >> dst) || src < 0 || dst < 0) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_no) +
          ": expected two non-negative node ids after '" + op + "'");
    }
    update.src = static_cast<NodeId>(src);
    update.dst = static_cast<NodeId>(dst);
    if (update.kind != UpdateKind::kEdgeDelete) {
      if (!(iss >> update.prob)) {
        return Status::InvalidArgument(
            path + ":" + std::to_string(line_no) +
            ": expected a probability after '" + op + " U V'");
      }
    }
    std::string trailing;
    if (iss >> trailing) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": trailing garbage '" + trailing + "'");
    }
    updates.push_back(update);
  }
  if (updates.empty()) {
    return Status::InvalidArgument("updates file '" + path +
                                   "' contains no ops");
  }
  return updates;
}

// Applies an update stream through the incremental maintenance path
// (src/dynamic/) and reports how much of the index each batch touched.
// --verify then proves rebuild equivalence for this exact stream: a fresh
// DynamicIndex built from the updated graph must match the incrementally
// maintained one byte-for-byte (every world's condensation, typical table,
// graph fingerprint) — any divergence is exit code 1.
int CmdUpdate(const FlagParser& flags) {
  CLI_ASSIGN(updates_path, flags.GetString("updates", ""));
  if (updates_path.empty()) {
    return Fail(Status::InvalidArgument("--updates required"));
  }
  CLI_ASSIGN(batch_i64, flags.GetInt("batch", 1));
  if (batch_i64 < 1) {
    return Fail(Status::InvalidArgument("--batch must be >= 1"));
  }
  const size_t batch = static_cast<size_t>(batch_i64);
  CLI_ASSIGN(updates, ParseUpdatesFile(updates_path));
  CLI_ASSIGN(graph, LoadGraph(flags));
  CLI_ASSIGN(index_options, IndexOptionsFromFlags(flags));
  CLI_ASSIGN(seed, flags.GetInt("seed", 1));

  WallTimer build_timer;
  CLI_ASSIGN(dynamic, DynamicIndex::Build(graph, index_options,
                                          static_cast<uint64_t>(seed)));
  const double build_seconds = build_timer.ElapsedSeconds();
  std::printf("built: %u nodes, %u worlds in %.3fs\n",
              dynamic.index().num_nodes(), dynamic.index().num_worlds(),
              build_seconds);

  uint64_t total_affected_worlds = 0, total_affected_nodes = 0;
  double apply_seconds = 0.0;
  uint32_t batches = 0;
  for (size_t begin = 0; begin < updates.size(); begin += batch) {
    const size_t count = std::min(batch, updates.size() - begin);
    auto stats = dynamic.ApplyUpdates(
        std::span<const GraphUpdate>(updates.data() + begin, count));
    if (!stats.ok()) {
      std::fprintf(stderr, "update stream failed at op %zu: %s\n", begin + 1,
                   stats.status().ToString().c_str());
      return 1;
    }
    total_affected_worlds += stats->affected_worlds;
    total_affected_nodes += stats->affected_nodes;
    apply_seconds += stats->seconds;
    ++batches;
  }
  std::printf(
      "applied %zu ops in %u batches: %llu worlds re-derived, "
      "%llu typical entries recomputed, drift %llu, %.3fs total "
      "(%.1f us/op)\n",
      updates.size(), batches,
      static_cast<unsigned long long>(total_affected_worlds),
      static_cast<unsigned long long>(total_affected_nodes),
      static_cast<unsigned long long>(dynamic.drift()), apply_seconds,
      1e6 * apply_seconds / static_cast<double>(updates.size()));

  if (!flags.GetBool("verify", false)) return 0;

  SOI_OBS_SPAN("cli/update_verify");
  CLI_ASSIGN(updated_graph, dynamic.MaterializeGraph());
  WallTimer rebuild_timer;
  CLI_ASSIGN(fresh, DynamicIndex::Build(updated_graph, index_options,
                                        static_cast<uint64_t>(seed)));
  const double rebuild_seconds = rebuild_timer.ElapsedSeconds();
  bool ok = true;
  if (dynamic.fingerprint() != GraphFingerprint(updated_graph)) {
    std::fprintf(stderr, "verify: graph fingerprint mismatch\n");
    ok = false;
  }
  if (!SameWorlds(dynamic.index(), fresh.index())) {
    std::fprintf(stderr,
                 "verify: index condensations diverge from a fresh rebuild\n");
    ok = false;
  }
  const Status typical_a = dynamic.EnsureTypical();
  const Status typical_b = fresh.EnsureTypical();
  if (!typical_a.ok() || !typical_b.ok()) {
    std::fprintf(stderr, "verify: typical sweep failed: %s\n",
                 (!typical_a.ok() ? typical_a : typical_b).ToString().c_str());
    ok = false;
  } else if (!(dynamic.typical() == fresh.typical())) {
    std::fprintf(stderr,
                 "verify: typical-cascade table diverges from a fresh "
                 "rebuild\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "verify ok: incremental index is byte-identical to a fresh rebuild "
      "(rebuild took %.3fs vs %.3fs incremental, %.1fx)\n",
      rebuild_seconds, apply_seconds,
      apply_seconds > 0 ? rebuild_seconds / apply_seconds : 0.0);
  return 0;
}

// Builds the full serving state (index + typical-cascade table unless
// --no-typical) and writes it as one mmap-able soi-snap-v1 file, so a later
// `serve --snapshot` answers its first query without rebuilding anything.
int CmdSnapshotCreate(const FlagParser& flags) {
  CLI_ASSIGN(out, flags.GetString("out", ""));
  if (out.empty()) return Fail(Status::InvalidArgument("--out required"));
  const Status out_ok = ValidateWritableOutPath(out);
  if (!out_ok.ok()) return Fail(out_ok);
  CLI_ASSIGN(sketch_k, flags.GetInt("sketch-k", 0));
  if (sketch_k < 0 || (sketch_k > 0 && sketch_k < 3)) {
    return Fail(Status::InvalidArgument(
        "snapshot create: --sketch-k must be 0 (off) or >= 3"));
  }
  const SnapshotContents contents = {
      .typical = !flags.GetBool("no-typical", false),
      .pack = !flags.GetBool("no-pack", false),
      .sketch_k = static_cast<uint32_t>(sketch_k)};
  const Status created = CreateSnapshot(flags, out, contents).status();
  if (!created.ok()) return Fail(created);

  CLI_ASSIGN(snap, Snapshot::Open(out));
  std::printf("wrote %s: %u nodes, %llu edges, %u worlds, %u sections, "
              "%.1f MiB (closures %s, typical %s, packed %s, sketches %s)\n",
              out.c_str(), snap->info().num_nodes,
              static_cast<unsigned long long>(snap->info().num_edges),
              snap->info().num_worlds, snap->info().section_count,
              static_cast<double>(snap->info().file_size) / (1 << 20),
              snap->info().has_closures ? "yes" : "no",
              snap->info().has_typical ? "yes" : "no",
              snap->info().packed ? "yes" : "no",
              snap->info().has_sketches
                  ? ("k=" + std::to_string(snap->info().sketch_k)).c_str()
                  : "no");
  return 0;
}

int CmdSnapshotInfo(const FlagParser& flags) {
  CLI_ASSIGN(in, flags.GetString("in", ""));
  if (in.empty()) return Fail(Status::InvalidArgument("--in required"));
  CLI_ASSIGN(snap, Snapshot::Open(in));
  const SnapshotInfo& info = snap->info();
  std::printf("soi-snap-v%u.%u: %s\n", info.version & 0xFFFFu,
              info.version >> 16, in.c_str());
  std::printf("  file:     %llu bytes, %u sections%s\n",
              static_cast<unsigned long long>(info.file_size),
              info.section_count, info.packed ? ", packed" : "");
  std::printf("  graph:    %u nodes, %llu edges\n", info.num_nodes,
              static_cast<unsigned long long>(info.num_edges));
  std::printf("  worlds:   %u (model %s)\n", info.num_worlds,
              info.model == PropagationModel::kLinearThreshold ? "lt" : "ic");
  if (info.tiered) {
    std::printf("  tiers:    %u materialized, %u labels, %u traversal\n",
                info.worlds_materialized, info.worlds_labeled,
                info.worlds_traversal);
  }
  std::printf("  closures: %s\n", info.has_closures ? "yes" : "no");
  std::printf("  labels:   %s\n", info.has_labels ? "yes" : "no");
  std::printf("  typical:  %s\n", info.has_typical ? "yes" : "no");
  if (info.has_sketches) {
    std::printf("  sketches: yes (k=%u, error bound %.3f)\n", info.sketch_k,
                SketchSpreadOracle::RelativeErrorBound(info.sketch_k));
  } else {
    std::printf("  sketches: no\n");
  }
  if (info.graph_fingerprint != 0) {
    std::printf("  graph-fp: %016llx\n",
                static_cast<unsigned long long>(info.graph_fingerprint));
  } else {
    std::printf("  graph-fp: (none; pre-fingerprint file)\n");
  }
  return 0;
}

int CmdSnapshotVerify(const FlagParser& flags) {
  CLI_ASSIGN(in, flags.GetString("in", ""));
  if (in.empty()) return Fail(Status::InvalidArgument("--in required"));
  auto snap = Snapshot::Open(in, SnapshotValidation::kFull);
  if (!snap.ok()) {
    std::fprintf(stderr, "verify FAILED: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }
  std::printf("ok: %s (%u sections, all CRC-32C checks passed)\n", in.c_str(),
              (*snap)->info().section_count);
  return 0;
}

// Assembles a ready-to-serve engine from an open snapshot: borrowed views
// into the mapping, typical table pre-seeded when present, the snapshot
// itself anchored as the engine's storage.
Result<service::Engine> EngineFromSnapshot(
    std::shared_ptr<const Snapshot> snap,
    const service::EngineOptions& options) {
  service::EngineParts parts;
  parts.graph = snap->MakeGraph();
  SOI_ASSIGN_OR_RETURN(parts.index, snap->MakeIndex());
  if (snap->info().has_typical) parts.typical = snap->MakeTypical();
  if (snap->info().has_sketches) parts.sketches = snap->MakeSketchParts();
  parts.storage = std::move(snap);
  return service::Engine::FromParts(std::move(parts), options);
}

// SIGHUP requests a snapshot reload. The handler only sets a flag (installed
// without SA_RESTART so a blocking read wakes with EINTR); the serve loop's
// poll hook does the actual Open + Swap from normal context.
volatile std::sig_atomic_t g_reload_requested = 0;

void HandleSighup(int) { g_reload_requested = 1; }

// Builds the engine once, then serves the line-JSON protocol until the
// client goes away (EOF on stdin, or --max-connections TCP clients).
int CmdServe(const FlagParser& flags) {
  const bool use_stdin = flags.GetBool("stdin", false);
  CLI_ASSIGN(port_i64, flags.GetInt("port", -1));
  if (use_stdin == (port_i64 >= 0)) {
    return Fail(Status::InvalidArgument(
        "serve: pass exactly one of --stdin or --port"));
  }
  if (port_i64 > 65535) {
    return Fail(Status::InvalidArgument("--port must be <= 65535"));
  }

  CLI_ASSIGN(snapshot_path, flags.GetString("snapshot", ""));
  service::EngineOptions options;
  CLI_ASSIGN(max_batch, flags.GetInt("max-batch", 1024));
  CLI_ASSIGN(max_in_flight, flags.GetInt("max-in-flight", 4));
  CLI_ASSIGN(timeout_ms, flags.GetInt("timeout-ms", 0));
  if (max_batch < 1 || max_in_flight < 1 || timeout_ms < 0) {
    return Fail(Status::InvalidArgument(
        "serve: --max-batch and --max-in-flight must be >= 1, "
        "--timeout-ms >= 0"));
  }
  options.max_batch = static_cast<uint32_t>(max_batch);
  options.max_in_flight = static_cast<uint32_t>(max_in_flight);
  options.default_timeout_ms = static_cast<uint64_t>(timeout_ms);
  CLI_ASSIGN(sketch_k, flags.GetInt("sketch-k", 0));
  CLI_ASSIGN(sketch_pressure, flags.GetInt("sketch-pressure-in-flight", 0));
  if (sketch_k < 0 || (sketch_k > 0 && sketch_k < 3) || sketch_pressure < 0) {
    return Fail(Status::InvalidArgument(
        "serve: --sketch-k must be 0 (off) or >= 3, "
        "--sketch-pressure-in-flight >= 0"));
  }
  options.sketch_k = static_cast<uint32_t>(sketch_k);
  options.sketch_pressure_in_flight = static_cast<uint32_t>(sketch_pressure);

  service::ServeOptions serve_options;
  CLI_ASSIGN(batch_max, flags.GetInt("batch-max", 0));
  CLI_ASSIGN(max_connections, flags.GetInt("max-connections", 0));
  if (batch_max < 0 || max_connections < 0) {
    return Fail(Status::InvalidArgument(
        "serve: --batch-max and --max-connections must be >= 0"));
  }
  serve_options.batch_max = static_cast<uint32_t>(batch_max);
  serve_options.max_connections = static_cast<uint32_t>(max_connections);
  CLI_ASSIGN(batch_window_us, flags.GetInt("batch-window-us", 0));
  CLI_ASSIGN(max_line_bytes, flags.GetInt("max-line-bytes", 1 << 20));
  if (batch_window_us < 0 || max_line_bytes < 0) {
    return Fail(Status::InvalidArgument(
        "serve: --batch-window-us and --max-line-bytes must be >= 0"));
  }
  serve_options.batch_window_us = static_cast<uint32_t>(batch_window_us);
  serve_options.max_line_bytes = static_cast<size_t>(max_line_bytes);
  // Printed from the on_listening callback so --port 0 reports the actual
  // ephemeral port the kernel chose — supervisors and smoke scripts parse
  // this line to learn where to connect.
  serve_options.on_listening = [](uint16_t port) {
    std::fprintf(stderr, "serve: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(port));
    std::fflush(stderr);
  };

  const bool dynamic = flags.GetBool("dynamic", false);
  CLI_ASSIGN(drift_threshold, flags.GetInt("drift-rebuild-threshold", 0));
  if (drift_threshold < 0) {
    return Fail(Status::InvalidArgument(
        "serve: --drift-rebuild-threshold must be >= 0"));
  }
  if (drift_threshold > 0 && !dynamic) {
    return Fail(Status::InvalidArgument(
        "serve: --drift-rebuild-threshold requires --dynamic"));
  }
  if (dynamic && !snapshot_path.empty()) {
    return Fail(Status::InvalidArgument(
        "serve: --dynamic builds an updatable engine from --graph; it "
        "cannot serve a read-only snapshot (drop one of the two flags)"));
  }
  options.drift_rebuild_threshold = static_cast<uint64_t>(drift_threshold);

  if (!snapshot_path.empty()) {
    // Instant restart: mmap the snapshot and serve straight from it — no
    // sampling, no SCC runs, no closure rebuild. SIGHUP hot-reloads the
    // file behind an EngineHandle while in-flight batches drain.
    CLI_ASSIGN(snap, Snapshot::Open(snapshot_path));
    // When the caller also names the graph, prove the snapshot still
    // matches it: a snapshot written before the graph last changed would
    // otherwise silently answer queries about edges that no longer exist.
    CLI_ASSIGN(graph_path, flags.GetString("graph", ""));
    if (!graph_path.empty()) {
      CLI_ASSIGN(current_graph, LoadGraph(flags));
      const Status fresh = CheckSnapshotFreshness(snap->info(), current_graph);
      if (!fresh.ok()) {
        return Fail(Status::InvalidArgument(
            fresh.message() +
            ", or drop --graph to serve the snapshot's own state"));
      }
      std::fprintf(stderr,
                   "serve: snapshot freshness verified against %s "
                   "(fingerprint %016llx)\n",
                   graph_path.c_str(),
                   static_cast<unsigned long long>(
                       snap->info().graph_fingerprint));
    }
    CLI_ASSIGN(first, EngineFromSnapshot(std::move(snap), options));
    std::fprintf(stderr,
                 "serve: snapshot mapped (%u nodes, %u worlds, no rebuild)\n",
                 first.index().num_nodes(), first.index().num_worlds());
    service::EngineHandle handle(std::move(first));

    g_reload_requested = 0;
    struct sigaction action {};
    action.sa_handler = HandleSighup;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: blocking reads wake with EINTR
    struct sigaction previous {};
    ::sigaction(SIGHUP, &action, &previous);

    serve_options.poll = [&handle, &snapshot_path, &options]() {
      if (!g_reload_requested) return;
      g_reload_requested = 0;
      auto reopened = Snapshot::Open(snapshot_path);
      Result<service::Engine> next =
          reopened.ok() ? EngineFromSnapshot(std::move(*reopened), options)
                        : Result<service::Engine>(reopened.status());
      if (!next.ok()) {
        // Keep serving the old engine; a bad file on disk must not take
        // down a healthy server.
        std::fprintf(stderr, "serve: reload failed, keeping old engine: %s\n",
                     next.status().ToString().c_str());
        return;
      }
      handle.Swap(std::move(*next));
      std::fprintf(stderr, "serve: snapshot reloaded (epoch %llu)\n",
                   static_cast<unsigned long long>(handle.epoch()));
    };

    Status served = Status::OK();
    if (use_stdin) {
      served = service::ServeStream(&handle, /*in_fd=*/0, /*out_fd=*/1,
                                    serve_options);
    } else {
      served = service::ServeTcp(&handle, static_cast<uint16_t>(port_i64),
                                 serve_options);
    }
    ::sigaction(SIGHUP, &previous, nullptr);
    if (!served.ok()) return Fail(served);
    return 0;
  }

  CLI_ASSIGN(graph, LoadGraph(flags));
  CLI_ASSIGN(index_options, IndexOptionsFromFlags(flags));
  options.index = index_options;
  CLI_ASSIGN(seed, flags.GetInt("seed", 1));
  options.seed = static_cast<uint64_t>(seed);

  if (dynamic) {
    // Incremental serving: the engine accepts op:update batches and patches
    // its index in place, on the event loop's writer thread. When
    // --drift-rebuild-threshold is set, the poll hook (serve thread, while
    // no update is in flight) runs the DriftRebuilder: a background full
    // rebuild from a consistent graph capture, then the journal catch-up
    // and a hot swap — a semantic no-op by rebuild equivalence,
    // operationally a compaction.
    CLI_ASSIGN(engine, service::Engine::CreateDynamic(std::move(graph),
                                                      options));
    std::fprintf(stderr,
                 "serve: dynamic index ready (%u nodes, %u worlds, "
                 "drift-rebuild %s)\n",
                 engine.index().num_nodes(), engine.index().num_worlds(),
                 drift_threshold > 0
                     ? ("at " + std::to_string(drift_threshold)).c_str()
                     : "off");
    service::EngineHandle handle(std::move(engine));

    service::DriftRebuilder rebuilder(&handle, options);
    serve_options.poll = [&]() {
      const service::DriftRebuilder::Event event = rebuilder.Poll();
      if (!event.status.ok()) {
        // Keep serving the (drifted but correct) engine; rebuilds are an
        // optimization, never a point of failure.
        std::fprintf(stderr, "serve: drift rebuild failed, keeping "
                             "current engine: %s\n",
                     event.status.ToString().c_str());
      } else if (event.swapped) {
        std::fprintf(stderr,
                     "serve: drift rebuild swapped in (epoch %llu, replayed "
                     "%zu journaled ops)\n",
                     static_cast<unsigned long long>(handle.epoch()),
                     event.replayed);
      }
    };

    Status served = Status::OK();
    if (use_stdin) {
      served = service::ServeStream(&handle, /*in_fd=*/0, /*out_fd=*/1,
                                    serve_options);
    } else {
      served = service::ServeTcp(&handle, static_cast<uint16_t>(port_i64),
                                 serve_options);
    }
    if (!served.ok()) return Fail(served);
    return 0;
  }

  CLI_ASSIGN(engine, service::Engine::Create(std::move(graph), options));
  std::fprintf(stderr, "serve: index ready (%u nodes, %u worlds)\n",
               engine.index().num_nodes(), engine.index().num_worlds());

  Status served = Status::OK();
  if (use_stdin) {
    served = service::ServeStream(&engine, /*in_fd=*/0, /*out_fd=*/1,
                                  serve_options);
  } else {
    served = service::ServeTcp(&engine, static_cast<uint16_t>(port_i64),
                               serve_options);
  }
  if (!served.ok()) return Fail(served);
  return 0;
}

int Main(int argc, char** argv) {
  const std::vector<CommandSpec> commands = Commands();
  const std::string program = "soi_cli";
  if (argc < 2) {
    std::fprintf(stderr, "%s", FormatProgramHelp(program, commands).c_str());
    return 2;
  }
  std::string command = argv[1];
  // "snapshot create|info|verify" is one spaced command; rewrite it to the
  // hyphenated spec name and shift the flag window past the subcommand.
  int flag_start = 2;
  if (command == "snapshot") {
    const std::string sub = argc >= 3 ? argv[2] : "";
    if (sub != "create" && sub != "info" && sub != "verify") {
      std::fprintf(stderr,
                   "snapshot: expected a subcommand: "
                   "create | info | verify\n");
      return 2;
    }
    command += "-" + sub;
    flag_start = 3;
  }
  if (command == "help" || command == "--help" || command == "-h") {
    if (argc >= 3) {
      for (const CommandSpec& spec : commands) {
        if (spec.name == argv[2]) {
          std::printf("%s", FormatCommandHelp(program, spec).c_str());
          return 0;
        }
      }
      std::fprintf(stderr, "unknown command '%s'\n\n%s", argv[2],
                   FormatProgramHelp(program, commands).c_str());
      return 2;
    }
    std::printf("%s", FormatProgramHelp(program, commands).c_str());
    return 0;
  }

  const CommandSpec* spec = nullptr;
  for (const CommandSpec& s : commands) {
    if (s.name == command) {
      spec = &s;
      break;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown command '%s'\n\n%s", command.c_str(),
                 FormatProgramHelp(program, commands).c_str());
    return 2;
  }

  std::vector<std::string> tokens;
  for (int i = flag_start; i < argc; ++i) tokens.emplace_back(argv[i]);
  for (const std::string& token : tokens) {
    if (token == "--help" || token == "-h") {
      std::printf("%s", FormatCommandHelp(program, *spec).c_str());
      return 0;
    }
  }
  auto parsed = ParseCommandFlags(*spec, tokens);
  if (!parsed.ok()) return Fail(parsed.status());
  const FlagParser& flags = *parsed;

  auto threads = flags.GetInt("threads", 0);
  if (!threads.ok()) return Fail(threads.status());
  if (*threads < 0) {
    return Fail(Status::InvalidArgument("--threads must be >= 0"));
  }
  SetGlobalThreads(static_cast<uint32_t>(*threads));

  // Observability flags. --no-metrics overrides the SOI_OBS environment
  // default; out paths are validated up front so a typo fails before any
  // expensive work, not after it.
  if (flags.GetBool("no-metrics", false)) obs::SetEnabled(false);
  auto metrics_out = flags.GetString("metrics-out", "");
  if (!metrics_out.ok()) return Fail(metrics_out.status());
  auto trace_out = flags.GetString("trace-out", "");
  if (!trace_out.ok()) return Fail(trace_out.status());
  if (!metrics_out->empty()) {
    if (!obs::Enabled()) {
      return Fail(Status::InvalidArgument(
          "--metrics-out requires metrics (drop --no-metrics / SOI_OBS=0)"));
    }
    const Status ok = ValidateWritableOutPath(*metrics_out);
    if (!ok.ok()) return Fail(ok);
  }
  if (!trace_out->empty()) {
    if (!obs::Enabled()) {
      return Fail(Status::InvalidArgument(
          "--trace-out requires metrics (drop --no-metrics / SOI_OBS=0)"));
    }
    const Status ok = ValidateWritableOutPath(*trace_out);
    if (!ok.ok()) return Fail(ok);
    obs::SetTraceEnabled(true);
  }

  WallTimer total_timer;
  int rc;
  if (command == "gen") {
    rc = CmdGen(flags);
  } else if (command == "stats") {
    rc = CmdStats(flags);
  } else if (command == "index") {
    rc = CmdIndex(flags);
  } else if (command == "sphere") {
    rc = CmdSphere(flags);
  } else if (command == "typical") {
    rc = CmdTypical(flags);
  } else if (command == "infmax") {
    rc = CmdInfMax(flags);
  } else if (command == "stability") {
    rc = CmdStability(flags);
  } else if (command == "reliability") {
    rc = CmdReliability(flags);
  } else if (command == "update") {
    rc = CmdUpdate(flags);
  } else if (command == "snapshot-create") {
    rc = CmdSnapshotCreate(flags);
  } else if (command == "snapshot-info") {
    rc = CmdSnapshotInfo(flags);
  } else if (command == "snapshot-verify") {
    rc = CmdSnapshotVerify(flags);
  } else {
    rc = CmdServe(flags);
  }
  const double total_seconds = total_timer.ElapsedSeconds();
  if (!metrics_out->empty()) {
    const Status ok = obs::WriteMetricsJson(*metrics_out, total_seconds);
    if (!ok.ok()) return Fail(ok);
    std::fprintf(stderr, "metrics: %s\n", metrics_out->c_str());
  }
  if (!trace_out->empty()) {
    const Status ok = obs::WriteChromeTrace(*trace_out);
    if (!ok.ok()) return Fail(ok);
    std::fprintf(stderr, "trace: %s (%zu events)\n", trace_out->c_str(),
                 obs::NumTraceEvents());
  }
  return rc;
}

}  // namespace
}  // namespace soi::cli

int main(int argc, char** argv) { return soi::cli::Main(argc, argv); }

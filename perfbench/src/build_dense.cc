// build_dense: the paper's pipeline in its giant-cascade regime.
//
// Setup is the edge-list load; the build is loaded graph -> CascadeIndex
// (l = 64, IC) -> typical sweep (Algorithm 2 for every node) -> InfMax_TC
// (k = 50) -> default packed snapshot on disk. Every build is checked by
// reopening the snapshot: its typical table and the seed list InfMax_TC
// computes from it must equal the ones just computed, and every build of
// the run must produce the same digests.
//
// The pipeline's unit operation is one node's typical cascade, so the
// latency metrics (p50_us, p99_us, slo_share) are taken over the sweep's
// per-node compute times and qps is typical cascades per second.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/typical_cascade.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "index/cascade_index.h"
#include "infmax/infmax_tc.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

soi::Result<GeneratedGraph> WriteDataset(const std::string& config,
                                         double scale, const Options& options) {
  soi::DatasetOptions dataset_options;
  dataset_options.scale = scale;
  dataset_options.seed = options.seed;
  SOI_ASSIGN_OR_RETURN(soi::Dataset dataset,
                       soi::MakeDataset(config, dataset_options));
  GeneratedGraph out;
  out.path = options.work_dir + "/" + config + ".edges";
  out.num_nodes = dataset.graph.num_nodes();
  out.num_edges = dataset.graph.num_edges();
  SOI_RETURN_IF_ERROR(soi::SaveEdgeList(dataset.graph, out.path));
  return out;
}

soi::Result<soi::ProbGraph> LoadGenerated(const GeneratedGraph& graph) {
  soi::EdgeListOptions load_options;
  load_options.num_nodes = graph.num_nodes;
  return soi::LoadEdgeList(graph.path, load_options);
}

namespace {

// Per-node typical-cascade time limit for slo_share.
constexpr double kNodeSloUs = 1000.0;
// Graph loads per build: setup_s is the median over all of them.
constexpr int kLoadsPerBuild = 10;

uint64_t TimerNs(const char* name) {
  const soi::obs::TimerStat* t = soi::obs::Registry::Get().FindTimer(name);
  return t == nullptr ? 0 : t->Snapshot().total_ns;
}

uint64_t CounterValue(const char* name) {
  const soi::obs::Counter* c = soi::obs::Registry::Get().FindCounter(name);
  return c == nullptr ? 0 : c->Get();
}

}  // namespace

std::string GraphInfoPath(const Options& options) {
  return options.work_dir + "/build_dense.graph";
}

int RunBuildDense(const Options& options) {
  const double scale = options.smoke ? 0.125 : 1.0;
  const uint32_t worlds = options.smoke ? 16 : 64;
  const uint32_t k = options.smoke ? 10 : 50;
  if (options.phase == "prepare") {
    auto generated = WriteDataset("Epinions-F", scale, options);
    if (!generated.ok()) {
      std::fprintf(stderr, "perfbench: dataset: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    if (!FlushToDisk(generated->path)) return 1;
    std::ofstream info(GraphInfoPath(options));
    info << generated->path << '\n'
         << generated->num_nodes << ' ' << generated->num_edges << '\n';
    return info ? 0 : 1;
  }

  Report report;
  RecordRun(options, &report);
  report.Record("dataset", "\"Epinions-F\"");
  report.Record("scale", std::to_string(scale));
  report.Record("worlds", std::to_string(worlds));
  report.Record("k", std::to_string(k));
  soi::SetGlobalThreads(options.build_threads);

  GeneratedGraph generated;
  {
    std::ifstream info(GraphInfoPath(options));
    std::getline(info, generated.path);
    info >> generated.num_nodes >> generated.num_edges;
    if (!info) {
      std::fprintf(stderr, "perfbench: run the prepare phase first\n");
      return 1;
    }
  }
  const std::string snapshot_path = options.work_dir + "/build_dense.soisnap";
  std::printf("build_dense: %u nodes, %" PRIu64
              " arcs, l=%u, k=%u, %u threads\n",
              generated.num_nodes, generated.num_edges, worlds, k,
              options.build_threads);

  Tracer tracer(options.trace);
  std::vector<double> load_s, build_s, sweep_s, node_us;
  std::vector<double> traced_build_s, untraced_build_s;
  double index_bytes = 0, snapshot_bytes = 0, input_sets = 0;
  double sample_s = 0, scc_s = 0, reduce_s = 0, closure_s = 0;
  uint64_t first_typical_digest = 0, first_seed_digest = 0;

  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  const int min_builds = options.trace ? 3 : 2;
  int builds = 0;
  for (; builds < min_builds || NowNs() < deadline; ++builds) {
    // In a traced run the first build is untraced and the rest alternate,
    // so the tracing overhead is traced minus untraced build time.
    const bool traced = options.trace && builds % 2 == 1;
    tracer.set_enabled(traced);
    soi::obs::Registry::Get().ResetValues();

    soi::ProbGraph graph;
    soi::CascadeIndex index;
    soi::TypicalCascadeSweep sweep;
    soi::GreedyResult selected;
    uint64_t build_ns = 0;
    {
      auto pipeline = tracer.Span("pipeline");
      bool loaded = true;
      for (int i = 0; i < kLoadsPerBuild && loaded; ++i) {
        report.Attempt();
        auto span = tracer.Span("graph.load");
        const uint64_t t0 = NowNs();
        auto g = LoadGenerated(generated);
        load_s.push_back(NsToS(NowNs() - t0));
        if (!g.ok()) {
          report.Fail("graph load: " + g.status().ToString());
          loaded = false;
          break;
        }
        graph = std::move(*g);
      }
      if (!loaded) break;

      report.Attempt();
      const uint64_t t0 = NowNs();
      {
        auto span = tracer.Span("index.build");
        soi::CascadeIndexOptions index_options;
        index_options.num_worlds = worlds;
        soi::Rng rng(options.seed);
        auto built = soi::CascadeIndex::Build(graph, index_options, &rng);
        if (!built.ok()) {
          report.Fail("index build: " + built.status().ToString());
          break;
        }
        index = std::move(*built);
      }
      const uint64_t t_sweep = NowNs();
      {
        auto span = tracer.Span("core.sweep");
        soi::TypicalCascadeComputer computer(&index);
        auto computed = computer.ComputeAllFlat();
        if (!computed.ok()) {
          report.Fail("typical sweep: " + computed.status().ToString());
          break;
        }
        sweep = std::move(*computed);
      }
      sweep_s.push_back(NsToS(NowNs() - t_sweep));
      {
        auto span = tracer.Span("infmax.select");
        soi::InfMaxTcOptions tc_options;
        tc_options.k = k;
        auto greedy = soi::InfMaxTC(sweep.cascades, index.num_nodes(),
                                    tc_options);
        if (!greedy.ok()) {
          report.Fail("InfMax_TC: " + greedy.status().ToString());
          break;
        }
        selected = std::move(*greedy);
      }
      {
        auto span = tracer.Span("snapshot.write");
        soi::SnapshotWriteOptions write_options;
        write_options.typical = &sweep.cascades;
        const soi::Status written =
            soi::WriteSnapshot(graph, index, snapshot_path, write_options);
        if (!written.ok()) {
          report.Fail("snapshot write: " + written.ToString());
          break;
        }
      }
      build_ns = NowNs() - t0;
    }
    build_s.push_back(NsToS(build_ns));
    (traced ? traced_build_s : untraced_build_s).push_back(NsToS(build_ns));
    for (double s : sweep.compute_seconds) node_us.push_back(s * 1e6);
    index_bytes += static_cast<double>(index.stats().approx_bytes);
    snapshot_bytes = static_cast<double>(FileBytes(snapshot_path));
    input_sets += static_cast<double>(CounterValue("median/input_sets"));
    sample_s += NsToS(TimerNs("index/sample_world"));
    scc_s += NsToS(TimerNs("index/scc_condense"));
    reduce_s += NsToS(TimerNs("index/transitive_reduce"));
    closure_s += NsToS(TimerNs("index/build_closure_cache"));

    // Answer check: the reopened snapshot must hold the table just computed
    // and yield the same seed list.
    std::vector<soi::NodeId> want_seeds = selected.seeds;
    if (options.inject_wrong && !want_seeds.empty()) want_seeds[0] ^= 1;
    std::shared_ptr<const soi::Snapshot> reopened;  // backs reopened_typical
    soi::FlatSets reopened_typical;
    {
      auto span = tracer.Span("snapshot.open");
      auto snap = soi::Snapshot::Open(snapshot_path);
      if (!snap.ok()) {
        report.Fail("snapshot reopen: " + snap.status().ToString());
        continue;
      }
      reopened = std::move(*snap);
      reopened_typical = reopened->MakeTypical();
    }
    if (!(reopened_typical == sweep.cascades)) {
      report.Fail("reopened typical table differs from the computed one");
    }
    soi::InfMaxTcOptions tc_options;
    tc_options.k = k;
    auto reselected =
        soi::InfMaxTC(reopened_typical, index.num_nodes(), tc_options);
    if (!reselected.ok() || reselected->seeds != want_seeds) {
      report.Fail("InfMax_TC seeds from the reopened snapshot differ");
    }
    const uint64_t typical_digest = DigestSets(sweep.cascades);
    const uint64_t seed_digest = DigestIds(selected.seeds);
    if (builds == 0) {
      first_typical_digest = typical_digest;
      first_seed_digest = seed_digest;
      std::printf("build_dense: digest typical=%016" PRIx64 " seeds=%016" PRIx64
                  "\n",
                  typical_digest, seed_digest);
    } else if (typical_digest != first_typical_digest ||
               seed_digest != first_seed_digest) {
      report.Fail("build is not deterministic: digests changed");
    }
  }
  RemoveTree(snapshot_path);
  report.Record("builds", std::to_string(builds));

  if (!options.trace) {
    std::vector<double> sorted = node_us;
    std::sort(sorted.begin(), sorted.end());
    uint64_t within = 0;
    for (double us : sorted) within += us <= kNodeSloUs ? 1 : 0;
    report.Set("setup_s", Median(load_s), "s");
    report.Set("build_s", Median(build_s), "s");
    report.Set("snapshot_mb", snapshot_bytes / (1024.0 * 1024.0), "MiB");
    report.Set("peak_rss_mb", PeakRssMb(), "MiB");
    report.Set("qps",
               static_cast<double>(generated.num_nodes) / Median(sweep_s),
               "1/s");
    report.Set("p50_us", QuantileSorted(sorted, 0.5), "us");
    report.Set("p99_us", QuantileSorted(sorted, 0.99), "us");
    report.Set("slo_share",
               sorted.empty() ? 0.0
                              : static_cast<double>(within) /
                                    static_cast<double>(sorted.size()),
               "share");
    return report.Print();
  }

  // Traced run: per-layer self times averaged over the traced builds; the
  // obs timers and counters are averaged over every build.
  const double traced_builds = static_cast<double>(traced_build_s.size());
  const double all_builds = static_cast<double>(build_s.size());
  auto per_build = [&](const char* name) {
    return traced_builds > 0 ? tracer.SelfSeconds(name) / traced_builds : 0.0;
  };
  // Coverage: the share of the traced pipeline wall time (load + build)
  // that the layer spans account for.
  const double pipeline_s = tracer.TotalSeconds("pipeline");
  const double covered = pipeline_s - tracer.SelfSeconds("pipeline");
  const double traced_median = Median(traced_build_s);
  const double untraced_median = Median(untraced_build_s);
  std::printf("build_dense: traced builds %zu, untraced %zu\n",
              traced_build_s.size(), untraced_build_s.size());
  report.Set("graph.load_s", per_build("graph.load") / kLoadsPerBuild, "s");
  report.Set("index.build_s", per_build("index.build"), "s");
  report.Set("index.sample_s", sample_s / all_builds, "s");
  report.Set("index.scc_s", scc_s / all_builds, "s");
  report.Set("index.reduce_s", reduce_s / all_builds, "s");
  report.Set("index.closure_s", closure_s / all_builds, "s");
  report.Set("index.bytes", index_bytes / all_builds, "bytes");
  report.Set("core.sweep_s", per_build("core.sweep"), "s");
  report.Set("jaccard.input_sets", input_sets / all_builds, "count");
  report.Set("infmax.select_s", per_build("infmax.select"), "s");
  report.Set("snapshot.write_s", per_build("snapshot.write"), "s");
  report.Set("snapshot.bytes", snapshot_bytes, "bytes");
  report.Set("snapshot.open_s", per_build("snapshot.open"), "s");
  report.Set("trace.build_s", traced_median, "s");
  report.Set("trace.coverage", pipeline_s > 0 ? covered / pipeline_s : 0.0,
             "share");
  report.Set("trace.overhead_pct",
             untraced_median > 0
                 ? 100.0 * (traced_median - untraced_median) / untraced_median
                 : 0.0,
             "%");
  report.Set("share.index_sweep_of_build",
             traced_median > 0
                 ? (per_build("index.build") + per_build("core.sweep")) /
                       traced_median
                 : 0.0,
             "share");
  return report.Print();
}

}  // namespace perfbench

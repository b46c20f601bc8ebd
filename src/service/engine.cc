#include "service/engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "core/typical_cascade.h"
#include "dynamic/dynamic_index.h"
#include "infmax/cover_engine.h"
#include "infmax/greedy_std.h"
#include "infmax/infmax_tc.h"
#include "infmax/spread_estimator.h"
#include "infmax/spread_oracle.h"
#include "obs/metrics.h"
#include "reliability/reliability.h"
#include "runtime/parallel_for.h"
#include "util/rng.h"

namespace soi::service {

namespace {

// Per-type latency histogram names (static storage: the registry keeps
// string_views only long enough to copy them, but literals are simplest).
const char* LatencyHistogramName(const Request& request) {
  switch (request.payload.index()) {
    case 0: return "service/latency_ns/typical";
    case 1: return "service/latency_ns/cascade";
    case 2: return "service/latency_ns/spread";
    case 3: return "service/latency_ns/seed_select";
    case 4: return "service/latency_ns/reliability";
    case 5: return "service/latency_ns/update";
  }
  return "service/latency_ns/unknown";
}

}  // namespace

const char* RequestTypeName(const Request& request) {
  switch (request.payload.index()) {
    case 0: return "typical";
    case 1: return "cascade";
    case 2: return "spread";
    case 3: return "seed_select";
    case 4: return "reliability";
    case 5: return "update";
  }
  return "unknown";
}

class Engine::Impl {
 public:
  Impl(ProbGraph graph, CascadeIndex index, const EngineOptions& options,
       std::optional<FlatSets> typical = std::nullopt,
       std::shared_ptr<const void> storage = nullptr)
      : graph_(std::move(graph)),
        index_(std::move(index)),
        options_(options),
        storage_(std::move(storage)) {
    if (typical.has_value()) {
      tc_cascades_ = std::move(*typical);
      tc_seeded_ = true;
    }
  }

  // Dynamic-mode constructor: the CascadeIndex lives inside the
  // DynamicIndex; index_ stays empty and idx() dispatches.
  Impl(ProbGraph graph, DynamicIndex dynamic, const EngineOptions& options)
      : graph_(std::move(graph)),
        options_(options),
        dynamic_(std::move(dynamic)) {}

  uint64_t NowNs() const {
    return options_.clock_ns != nullptr ? options_.clock_ns() : obs::NowNs();
  }

  Status AdoptSketches(const SketchParts& parts) {
    SOI_ASSIGN_OR_RETURN(SketchSpreadOracle oracle,
                         SketchSpreadOracle::FromParts(&index_, parts));
    std::lock_guard<std::mutex> lock(sketch_mutex_);
    sketch_ = std::make_unique<SketchSpreadOracle>(std::move(oracle));
    return Status::OK();
  }

  Result<std::vector<Result<Response>>> RunBatch(
      std::span<const Request> requests) {
    std::vector<Result<Response>> results;
    const Status status = RunBatchCore(
        requests.size(),
        [&](size_t i) -> const Request& { return requests[i]; }, &results);
    if (!status.ok()) return status;
    return results;
  }

  Status RunBatchInto(std::span<const Request* const> requests,
                      std::vector<Result<Response>>* results) {
    return RunBatchCore(
        requests.size(),
        [&](size_t i) -> const Request& { return *requests[i]; }, results);
  }

  // Shared batch core: `get(i)` yields request i, `*results` is resized to
  // the batch (storage reused call over call — this is what makes the
  // serving hot path allocation-free for fixed-size responses).
  template <typename GetRequest>
  Status RunBatchCore(size_t n, const GetRequest& get,
                      std::vector<Result<Response>>* results) {
    results->clear();
    if (n > options_.max_batch) {
      SOI_OBS_COUNTER_ADD("service/batches_rejected", 1);
      return Status::ResourceExhausted(
          "batch of " + std::to_string(n) +
          " requests exceeds max_batch=" + std::to_string(options_.max_batch) +
          "; split the batch");
    }
    // Admission: reserve an in-flight slot or reject. The slot is held for
    // the whole batch (RAII below).
    const uint32_t prior = in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (prior >= options_.max_in_flight) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      SOI_OBS_COUNTER_ADD("service/batches_rejected", 1);
      return Status::ResourceExhausted(
          "max_in_flight=" + std::to_string(options_.max_in_flight) +
          " batches already admitted; retry later");
    }
    struct SlotRelease {
      std::atomic<uint32_t>* counter;
      ~SlotRelease() { counter->fetch_sub(1, std::memory_order_acq_rel); }
    } release{&in_flight_};
    SOI_OBS_COUNTER_ADD("service/batches_admitted", 1);
    SOI_OBS_HISTOGRAM_RECORD("service/queue_depth", prior + 1);

    const uint64_t admit_ns = NowNs();
    // Pre-sized per-request slots (the placeholder — an empty first
    // alternative, no heap behind it — is overwritten by every item).
    results->resize(n, Result<Response>(Response()));
    bool update_batch = false;
    if (dynamic_.has_value()) {
      for (size_t i = 0; i < n && !update_batch; ++i) {
        update_batch = std::holds_alternative<UpdateRequest>(get(i).payload);
      }
    }
    if (update_batch) {
      // A batch with an update runs sequentially in request order, so a
      // query after an update sees it and one before does not, at every
      // thread count. Queries share the state lock one at a time; an
      // update takes its own locks (Handle(UpdateRequest)) and holds the
      // exclusive one only to commit.
      Scratch scratch;
      for (size_t i = 0; i < n; ++i) {
        const Request& request = get(i);
        if (std::holds_alternative<UpdateRequest>(request.payload)) {
          (*results)[i] = RunOne(request, admit_ns, &scratch);
        } else {
          std::shared_lock<std::shared_mutex> lock(state_mutex_);
          (*results)[i] = RunOne(request, admit_ns, &scratch);
        }
      }
    } else if (PlannedChunks(n, /*grain=*/1) <= 1) {
      // Single-chunk batch (one thread, or one request): run inline. This
      // sidesteps ParallelForChunks' std::function wrapper, whose capture
      // list outgrows the small-object buffer and would heap-allocate on
      // every batch — the serving hot path at --threads 1 stays
      // allocation-free. Identical execution semantics: one chunk, one
      // scratch, request order.
      std::shared_lock<std::shared_mutex> lock(state_mutex_);
      Scratch scratch;
      for (size_t i = 0; i < n; ++i) {
        (*results)[i] = RunOne(get(i), admit_ns, &scratch);
      }
    } else {
      // Pure-query batch: shared state lock, parallel execution.
      std::shared_lock<std::shared_mutex> lock(state_mutex_);
      ParallelForChunks(
          0, n, /*grain=*/1,
          [&](uint32_t /*chunk*/, uint64_t begin, uint64_t end) {
            // Chunk-level scratch: reused across this chunk's requests,
            // invisible in the output (handlers are pure given the request).
            Scratch scratch;
            for (uint64_t i = begin; i < end; ++i) {
              (*results)[i] = RunOne(get(i), admit_ns, &scratch);
            }
          });
    }
    return Status::OK();
  }

  // No admission slot: see Engine::RunUpdate.
  Result<Response> RunUpdate(const Request& request) {
    SOI_CHECK(std::holds_alternative<UpdateRequest>(request.payload));
    Scratch scratch;
    return RunOne(request, NowNs(), &scratch);
  }

  uint32_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  const ProbGraph& graph() const { return graph_; }
  const CascadeIndex& index() const { return idx(); }
  const EngineOptions& options() const { return options_; }

  bool dynamic() const { return dynamic_.has_value(); }

  // drift(), fingerprint(), CaptureDynamicState() and JournalSince() take
  // the writer mutex first: an update in its prepare step has already
  // applied its ops to the graph but not yet committed or journaled them,
  // and none of these may observe that state.
  uint64_t drift() const {
    if (!dynamic_.has_value()) return 0;
    std::lock_guard<std::mutex> writer(update_mutex_);
    return dynamic_->drift();
  }

  uint64_t fingerprint() const {
    if (!dynamic_.has_value()) return GraphFingerprint(graph_);
    std::lock_guard<std::mutex> writer(update_mutex_);
    return dynamic_->fingerprint();
  }

  Result<DynamicState> CaptureDynamicState() const {
    if (!dynamic_.has_value()) {
      return Status::FailedPrecondition(
          "CaptureDynamicState: engine is static (built with Create/"
          "FromParts); only CreateDynamic engines track update state");
    }
    std::lock_guard<std::mutex> writer(update_mutex_);
    DynamicState state;
    SOI_ASSIGN_OR_RETURN(state.graph, dynamic_->MaterializeGraph());
    state.journal_seq = journal_.size();
    return state;
  }

  std::vector<GraphUpdate> JournalSince(uint64_t seq) const {
    if (!dynamic_.has_value()) return {};
    std::lock_guard<std::mutex> writer(update_mutex_);
    if (seq >= journal_.size()) return {};
    return std::vector<GraphUpdate>(journal_.begin() + seq, journal_.end());
  }

 private:
  // The serving index: owned directly (static mode) or by the DynamicIndex.
  // The DynamicIndex member is stable for the Impl's lifetime, so pointers
  // into idx() (scratch computers, the spread oracle) stay valid across
  // update batches — updates patch the object in place.
  const CascadeIndex& idx() const {
    return dynamic_.has_value() ? dynamic_->index() : index_;
  }

  struct Scratch {
    CascadeIndex::Workspace ws;
    std::optional<TypicalCascadeComputer> computer;
  };

  // Where an individual request gets answered, decided at pickup time.
  struct Route {
    bool use_sketch = false;
    bool degraded_deadline = false;  // auto flipped tier on deadline slack
    bool degraded_pressure = false;  // auto flipped tier on in-flight depth
  };

  static bool SketchCapable(const Request& request) {
    return std::holds_alternative<SpreadRequest>(request.payload) ||
           std::holds_alternative<SeedSelectRequest>(request.payload);
  }

  Result<Route> DecideRoute(const Request& request, bool expired,
                            uint64_t waited_ns, uint64_t timeout_ms) const {
    Route route;
    const uint32_t k = options_.sketch_k;
    switch (request.accuracy) {
      case Accuracy::kExact:
        return route;
      case Accuracy::kSketch:
        if (k == 0) {
          return Status::FailedPrecondition(
              "sketch tier disabled: start the engine with sketch_k > 0 "
              "(soi_cli serve --sketch-k) or load a snapshot that carries "
              "sketches");
        }
        if (!SketchCapable(request)) {
          return Status::FailedPrecondition(
              RequestTypeName(request) +
              std::string(" has no sketch path (accuracy:sketch applies to "
                          "spread and seed_select)"));
        }
        route.use_sketch = true;
        return route;
      case Accuracy::kAuto: {
        if (k == 0 || !SketchCapable(request)) return route;
        if (request.max_error > 0 &&
            SketchSpreadOracle::RelativeErrorBound(k) > request.max_error) {
          // The sketch tier cannot meet the requested bound; stay exact
          // even under pressure (correctness beats degradation).
          return route;
        }
        const uint32_t threshold = options_.sketch_pressure_in_flight != 0
                                       ? options_.sketch_pressure_in_flight
                                       : options_.max_in_flight;
        route.degraded_deadline =
            expired ||
            (timeout_ms != 0 && waited_ns * 2 > timeout_ms * 1'000'000ull);
        route.degraded_pressure =
            in_flight_.load(std::memory_order_acquire) >= threshold;
        route.use_sketch =
            route.degraded_deadline || route.degraded_pressure;
        return route;
      }
    }
    return route;
  }

  Result<Response> RunOne(const Request& request, uint64_t admit_ns,
                          Scratch* scratch) {
    // Deadline check at pickup: started requests always run to completion.
    const uint64_t timeout_ms = request.timeout_ms != 0
                                    ? request.timeout_ms
                                    : options_.default_timeout_ms;
    const uint64_t start_ns = NowNs();
    const bool expired =
        timeout_ms != 0 && start_ns - admit_ns > timeout_ms * 1'000'000ull;
    SOI_ASSIGN_OR_RETURN(
        const Route route,
        DecideRoute(request, expired, start_ns - admit_ns, timeout_ms));
    // Graceful degradation: an expired auto request whose route reached the
    // sketch tier is answered (approximately) instead of shed. Everything
    // else keeps the original deadline contract.
    if (expired &&
        !(request.accuracy == Accuracy::kAuto && route.use_sketch)) {
      SOI_OBS_COUNTER_ADD("service/requests_deadline_exceeded", 1);
      return Status::DeadlineExceeded(
          RequestTypeName(request) + std::string(" request expired after ") +
          std::to_string(timeout_ms) + "ms before execution started");
    }
    if (route.degraded_deadline) {
      SOI_OBS_COUNTER_ADD("service/degrade_deadline", 1);
    }
    if (route.degraded_pressure) {
      SOI_OBS_COUNTER_ADD("service/degrade_pressure", 1);
    }
    SOI_OBS_COUNTER_ADD(route.use_sketch ? "service/requests_tier_sketch"
                                         : "service/requests_tier_exact",
                        1);
    Result<Response> result = route.use_sketch ? DispatchSketch(request)
                                               : Dispatch(request, scratch);
    const uint64_t latency_ns = NowNs() - start_ns;
    if (result.ok()) result->meta.elapsed_us = latency_ns / 1000;
    SOI_OBS_HISTOGRAM_RECORD("service/latency_ns", latency_ns);
    SOI_OBS_HISTOGRAM_RECORD(LatencyHistogramName(request), latency_ns);
    if (result.ok()) {
      SOI_OBS_COUNTER_ADD("service/requests_ok", 1);
    } else {
      SOI_OBS_COUNTER_ADD("service/requests_invalid", 1);
    }
    return result;
  }

  Result<Response> Dispatch(const Request& request, Scratch* scratch) {
    return std::visit(
        [&](const auto& payload) -> Result<Response> {
          return Handle(payload, scratch);
        },
        request.payload);
  }

  // Sketch-tier answers for the two ops that have one. Routing guarantees
  // the op is sketch-capable and the tier is enabled before we get here.
  Result<Response> DispatchSketch(const Request& request) {
    SOI_ASSIGN_OR_RETURN(const SketchSpreadOracle* sk, EnsureSketches());
    Result<Response> result = [&]() -> Result<Response> {
      if (const auto* req = std::get_if<SpreadRequest>(&request.payload)) {
        SOI_ASSIGN_OR_RETURN(const double est, sk->EstimateSpread(req->seeds));
        return Response(SpreadResponse{est});
      }
      const auto& req = std::get<SeedSelectRequest>(request.payload);
      if (req.k == 0) {
        return Status::InvalidArgument("seed_select: k must be >= 1");
      }
      const uint32_t k = std::min<uint32_t>(req.k, idx().num_nodes());
      SOI_ASSIGN_OR_RETURN(GreedyResult r, sk->SelectSeeds(k));
      return ToSeedSelectResponse(std::move(r));
    }();
    if (result.ok()) {
      result->meta.tier = "sketch";
      result->meta.est_error = sk->relative_error_bound();
    }
    return result;
  }

  // Builds the sketch tier once (deterministically from the engine seed,
  // so an engine that lazily builds and one that adopted snapshot sketches
  // created with the same seed answer identically) and caches it. Reset by
  // update batches that touch worlds; the next sketch query rebuilds over
  // the patched index.
  Result<const SketchSpreadOracle*> EnsureSketches() {
    std::lock_guard<std::mutex> lock(sketch_mutex_);
    if (sketch_ == nullptr) {
      SOI_ASSIGN_OR_RETURN(
          SketchSpreadOracle oracle,
          SketchSpreadOracle::BuildDeterministic(idx(), options_.sketch_k,
                                                 options_.seed));
      sketch_ = std::make_unique<SketchSpreadOracle>(std::move(oracle));
    }
    return sketch_.get();
  }

  Result<Response> Handle(const TypicalCascadeRequest& req, Scratch* scratch) {
    SOI_RETURN_IF_ERROR(idx().ValidateSeeds(req.seeds));
    if (!scratch->computer.has_value()) scratch->computer.emplace(&idx());
    TypicalCascadeOptions options;
    options.median.local_search = req.local_search;
    SOI_ASSIGN_OR_RETURN(TypicalCascadeResult r,
                         scratch->computer->ComputeForSeeds(req.seeds, options));
    TypicalCascadeResponse response;
    response.cascade = std::move(r.cascade);
    response.in_sample_cost = r.in_sample_cost;
    response.mean_sample_size = r.mean_sample_size;
    return Response(std::move(response));
  }

  Result<Response> Handle(const CascadeRequest& req, Scratch* scratch) {
    SOI_ASSIGN_OR_RETURN(std::vector<NodeId> cascade,
                         idx().Cascade(req.seeds, req.world, &scratch->ws));
    return Response(CascadeResponse{std::move(cascade)});
  }

  Result<Response> Handle(const SpreadRequest& req, Scratch* /*scratch*/) {
    // Same SpreadEstimator interface the sketch tier implements; the exact
    // adapter answers from the closure cache (ExpectedReachableSize).
    const ExactSpreadEstimator exact(&idx());
    SOI_ASSIGN_OR_RETURN(const double spread, exact.EstimateSpread(req.seeds));
    return Response(SpreadResponse{spread});
  }

  Result<Response> Handle(const ReliabilityRequest& req, Scratch* /*scratch*/) {
    SOI_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                         ReliabilitySearch(idx(), req.seeds, req.threshold));
    return Response(ReliabilityResponse{std::move(nodes)});
  }

  Result<Response> Handle(const SeedSelectRequest& req, Scratch* /*scratch*/) {
    if (req.k == 0) {
      return Status::InvalidArgument("seed_select: k must be >= 1");
    }
    if (req.method == "tc") {
      // tc_cascades_/tc_cover_ are immutable once EnsureTypicalCascades
      // returns (the mutex inside it publishes the cache), so selections
      // run unlocked and concurrently. The cover engine's inverted index is
      // built once here and amortized across every later selection.
      SOI_RETURN_IF_ERROR(EnsureTypicalCascades());
      const uint32_t k = std::min<uint32_t>(req.k, idx().num_nodes());
      if (k == 0) return ToSeedSelectResponse(GreedyResult{});
      return ToSeedSelectResponse(
          tc_cover_->Select(k, /*track_saturation=*/false));
    }
    if (req.method == "std") {
      GreedyStdOptions options;
      options.k = req.k;
      // The oracle is stateful (InfMaxStd resets and then commits into it),
      // so "std" selections are serialized on its mutex. Output is
      // deterministic: every run starts from a Reset() oracle.
      std::lock_guard<std::mutex> lock(oracle_mutex_);
      if (oracle_ == nullptr) {
        oracle_ = std::make_unique<SpreadOracle>(&idx());
      }
      SOI_ASSIGN_OR_RETURN(GreedyResult r, InfMaxStd(oracle_.get(), options));
      return ToSeedSelectResponse(std::move(r));
    }
    return Status::InvalidArgument("seed_select: unknown method '" +
                                   req.method + "' (expected tc or std)");
  }

  // The one update path. The writer mutex serializes updates, which keeps
  // them deterministic; the expensive prepare (validation, world
  // re-derivation, typical-row patch) runs under the shared state lock
  // alongside queries, and the exclusive lock is held only to commit,
  // journal and reset the caches derived from the index.
  Result<Response> Handle(const UpdateRequest& req, Scratch* /*scratch*/) {
    if (!dynamic_.has_value()) {
      return Status::FailedPrecondition(
          "update requires a dynamic engine (soi_cli serve --dynamic / "
          "Engine::CreateDynamic); this engine serves a static index");
    }
    std::lock_guard<std::mutex> writer(update_mutex_);
    Result<PreparedUpdate> prepared = [&] {
      std::shared_lock<std::shared_mutex> lock(state_mutex_);
      // EnsureTypical runs under tc_mutex_; reading has_typical() under it
      // fixes whether this prepare patches the table. A table built after
      // this point is dropped by the commit instead.
      bool patch_typical = false;
      {
        std::lock_guard<std::mutex> tc_lock(tc_mutex_);
        patch_typical = dynamic_->has_typical();
      }
      return dynamic_->PrepareUpdates(req.ops, patch_typical);
    }();
    if (!prepared.ok()) return prepared.status();
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    const UpdateStats stats = dynamic_->CommitUpdates(&*prepared);
    journal_.insert(journal_.end(), req.ops.begin(), req.ops.end());
    // Worlds changed => every derived cache (typical cover, spread oracle)
    // is stale. The DynamicIndex patched its own typical table; only the
    // engine-side structures over it need rebuilding, lazily.
    if (stats.affected_worlds > 0) {
      {
        std::lock_guard<std::mutex> tc_lock(tc_mutex_);
        tc_ready_ = false;
        tc_status_ = Status::OK();
        tc_cover_.reset();
      }
      {
        std::lock_guard<std::mutex> oracle_lock(oracle_mutex_);
        oracle_.reset();
      }
      {
        std::lock_guard<std::mutex> sketch_lock(sketch_mutex_);
        sketch_.reset();
      }
    }
    lock.unlock();  // the replaced worlds in *prepared are freed unlocked
    UpdateResponse response;
    response.applied = stats.applied_ops;
    response.affected_worlds = stats.affected_worlds;
    response.affected_nodes = stats.affected_nodes;
    response.drift = stats.drift;
    return Response(response);
  }

  static Result<Response> ToSeedSelectResponse(GreedyResult r) {
    SeedSelectResponse response;
    response.seeds = std::move(r.seeds);
    if (!r.steps.empty()) response.objective = r.steps.back().objective_after;
    return Response(std::move(response));
  }

  // Computes the per-node typical cascades once (Algorithm 2 over all
  // nodes — the expensive half of InfMax_TC) and caches them for every
  // later "tc" seed selection. Concurrent first callers serialize here.
  // When the table was seeded at construction (EngineParts::typical, e.g.
  // read from a snapshot), the sweep is skipped and only the cover engine's
  // inverted index is built; the sweep is deterministic, so a seeded table
  // yields byte-identical selections.
  Status EnsureTypicalCascades() {
    std::lock_guard<std::mutex> lock(tc_mutex_);
    if (tc_ready_) return tc_status_;
    if (dynamic_.has_value()) {
      // The DynamicIndex owns and incrementally patches the typical table;
      // the engine only (re)builds the cover engine's inverted index over
      // it. After the first build, an update batch costs a per-changed-node
      // patch plus this cover rebuild — never a full sweep.
      tc_status_ = dynamic_->EnsureTypical();
      if (tc_status_.ok()) {
        tc_cover_.emplace(&dynamic_->typical(), idx().num_nodes());
      }
      tc_ready_ = true;
      return tc_status_;
    }
    if (tc_seeded_) {
      tc_cover_.emplace(&tc_cascades_, index_.num_nodes());
      tc_status_ = Status::OK();
      tc_ready_ = true;
      return tc_status_;
    }
    TypicalCascadeComputer computer(&index_);
    auto sweep = computer.ComputeAllFlat();
    if (sweep.ok()) {
      tc_cascades_ = std::move(sweep->cascades);
      tc_cover_.emplace(&tc_cascades_, index_.num_nodes());
      tc_status_ = Status::OK();
    } else {
      tc_status_ = sweep.status();
    }
    tc_ready_ = true;
    return tc_status_;
  }

  ProbGraph graph_;
  CascadeIndex index_;  // empty in dynamic mode (idx() dispatches)
  EngineOptions options_;
  // Dynamic mode: the updatable index plus the update journal (everything
  // applied since construction, for drift-rebuild catch-up replay). An
  // update holds update_mutex_ throughout, shares state_mutex_ with
  // queries while it prepares, and holds state_mutex_ exclusively only to
  // commit and journal. Lock order: update_mutex_, then state_mutex_, then
  // the cache mutexes below.
  std::optional<DynamicIndex> dynamic_;
  std::vector<GraphUpdate> journal_;
  mutable std::mutex update_mutex_;
  mutable std::shared_mutex state_mutex_;
  // Keeps external backing storage (a snapshot mapping) alive while any
  // borrowed view in this Impl might read it. Declaration order vs the
  // views is immaterial: destroying a borrowed view never dereferences its
  // spans.
  std::shared_ptr<const void> storage_;
  std::atomic<uint32_t> in_flight_{0};

  std::mutex tc_mutex_;  // guards tc_ready_/tc_status_/tc_cascades_/tc_cover_
  bool tc_seeded_ = false;  // tc_cascades_ pre-filled at construction
  bool tc_ready_ = false;
  Status tc_status_;
  FlatSets tc_cascades_;  // node v -> typical cascade C*_v
  std::optional<CoverEngine> tc_cover_;  // selection kernel over tc_cascades_

  std::mutex oracle_mutex_;  // serializes stateful "std" selections
  std::unique_ptr<SpreadOracle> oracle_;

  std::mutex sketch_mutex_;  // guards the lazily built sketch tier
  std::unique_ptr<SketchSpreadOracle> sketch_;
};

Engine::Engine() = default;
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

namespace {

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.max_batch == 0) {
    return Status::InvalidArgument("EngineOptions: max_batch must be >= 1");
  }
  if (options.max_in_flight == 0) {
    return Status::InvalidArgument("EngineOptions: max_in_flight must be >= 1");
  }
  if (options.sketch_k != 0 && options.sketch_k < 3) {
    return Status::InvalidArgument(
        "EngineOptions: sketch_k must be >= 3 (the sketch tier's "
        "1/sqrt(k-2) error bound is undefined below that) or 0 to disable "
        "the tier");
  }
  return Status::OK();
}

}  // namespace

Result<Engine> Engine::Create(ProbGraph graph, const EngineOptions& options) {
  SOI_RETURN_IF_ERROR(ValidateEngineOptions(options));
  if (options.threads != 0) SetGlobalThreads(options.threads);
  Rng rng(options.seed);
  SOI_ASSIGN_OR_RETURN(CascadeIndex index,
                       CascadeIndex::Build(graph, options.index, &rng));
  Engine engine;
  engine.impl_ =
      std::make_unique<Impl>(std::move(graph), std::move(index), options);
  return engine;
}

Result<Engine> Engine::CreateDynamic(ProbGraph graph,
                                     const EngineOptions& options) {
  SOI_RETURN_IF_ERROR(ValidateEngineOptions(options));
  if (options.threads != 0) SetGlobalThreads(options.threads);
  SOI_ASSIGN_OR_RETURN(
      DynamicIndex dynamic,
      DynamicIndex::Build(graph, options.index, options.seed));
  Engine engine;
  engine.impl_ =
      std::make_unique<Impl>(std::move(graph), std::move(dynamic), options);
  return engine;
}

Result<Engine> Engine::FromParts(EngineParts parts,
                                 const EngineOptions& options) {
  EngineOptions effective = options;
  if (parts.sketches.has_value()) {
    if (effective.sketch_k != 0 &&
        effective.sketch_k != parts.sketches->k) {
      return Status::InvalidArgument(
          "EngineParts: sketches were built with k=" +
          std::to_string(parts.sketches->k) + " but options request " +
          std::to_string(effective.sketch_k) +
          "; drop sketch_k to adopt the parts' k");
    }
    effective.sketch_k = parts.sketches->k;
  }
  SOI_RETURN_IF_ERROR(ValidateEngineOptions(effective));
  if (parts.graph.num_nodes() != parts.index.num_nodes()) {
    return Status::InvalidArgument(
        "EngineParts: graph has " + std::to_string(parts.graph.num_nodes()) +
        " nodes but index covers " + std::to_string(parts.index.num_nodes()));
  }
  if (parts.typical.has_value() &&
      parts.typical->num_sets() != parts.index.num_nodes()) {
    return Status::InvalidArgument(
        "EngineParts: typical table has " +
        std::to_string(parts.typical->num_sets()) +
        " sets, expected one per node");
  }
  if (effective.threads != 0) SetGlobalThreads(effective.threads);
  Engine engine;
  engine.impl_ = std::make_unique<Impl>(
      std::move(parts.graph), std::move(parts.index), effective,
      std::move(parts.typical), std::move(parts.storage));
  if (parts.sketches.has_value()) {
    SOI_RETURN_IF_ERROR(engine.impl_->AdoptSketches(*parts.sketches));
  }
  return engine;
}

Result<Response> Engine::Run(const Request& request) {
  SOI_ASSIGN_OR_RETURN(std::vector<Result<Response>> results,
                       RunBatch(std::span<const Request>(&request, 1)));
  return std::move(results[0]);
}

Result<Response> Engine::RunUpdate(const Request& request) {
  return impl_->RunUpdate(request);
}

Result<std::vector<Result<Response>>> Engine::RunBatch(
    std::span<const Request> requests) {
  return impl_->RunBatch(requests);
}

Status Engine::RunBatchInto(std::span<const Request* const> requests,
                            std::vector<Result<Response>>* results) {
  return impl_->RunBatchInto(requests, results);
}

const ProbGraph& Engine::graph() const { return impl_->graph(); }
const CascadeIndex& Engine::index() const { return impl_->index(); }
const EngineOptions& Engine::options() const { return impl_->options(); }
uint32_t Engine::in_flight() const { return impl_->in_flight(); }
bool Engine::dynamic() const { return impl_->dynamic(); }
uint64_t Engine::drift() const { return impl_->drift(); }
uint64_t Engine::fingerprint() const { return impl_->fingerprint(); }
Result<DynamicState> Engine::CaptureDynamicState() const {
  return impl_->CaptureDynamicState();
}
std::vector<GraphUpdate> Engine::JournalSince(uint64_t seq) const {
  return impl_->JournalSince(seq);
}

}  // namespace soi::service

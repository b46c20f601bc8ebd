// serve_light, serve_heavy and serve_update: the serving stack under load.
//
// Each workload runs in two processes. The prepare phase generates the
// graph, builds the served state with the code under test (a packed
// snapshot for the static workloads) and writes the expected responses of
// a fixed sample of requests, computed on an owned Engine::Create /
// CreateDynamic reference built from the same graph and seed. The run
// phase then measures, in a process of its own, so peak RSS is the
// serving process's:
//
//   setup    Snapshot::Open (or CreateDynamic) to the first correct
//            response over a socket, repeated; the median is setup_s;
//   load     an in-process ServeTcp server (1 engine thread) driven over
//            loopback by pre-built request streams in a closed loop; the
//            traced serve_heavy run adds an open loop at a fixed rate;
//   checks   every response's status, and the sampled responses byte for
//            byte (ignoring elapsed_us); serve_update also compares sampled
//            answers after the stream with a fresh CreateDynamic on the
//            final graph;
//   replay   (--trace 1 only) the same request stream in process:
//            ParseRequestLineInto -> Engine::RunBatchInto ->
//            AppendResponseLine, batched like the data plane batched, with
//            spans around each call.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/typical_cascade.h"
#include "dynamic/dynamic_graph.h"
#include "infmax/sketch_oracle.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "service/engine.h"
#include "service/protocol.h"
#include "service/server.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using soi::NodeId;
using soi::service::Engine;
using soi::service::EngineOptions;
using soi::service::ProtocolRequest;

// -- Workload definitions --------------------------------------------------

enum class Op : uint8_t {
  kSpread1,
  kSpread10,
  kSketch,
  kCascade,
  kTypical,
  kReliability,
  kSeedSelect,
  kUpdate,
};
constexpr int kNumReadOps = 7;
// Per-op engine time metric and span names (reads only).
constexpr const char* kOpMetric[kNumReadOps] = {
    "engine.spread1_us",    "engine.spread10_us",     "engine.spread_sketch_us",
    "engine.cascade_us",    "engine.typical_us",      "engine.reliability_us",
    "engine.seed_select_us"};
constexpr const char* kOpSpan[kNumReadOps] = {
    "engine.op.spread1",  "engine.op.spread10",    "engine.op.sketch",
    "engine.op.cascade",  "engine.op.typical",     "engine.op.reliability",
    "engine.op.seed_select"};

// Every kCheckEvery-th read of a stream is byte-compared against the
// reference.
constexpr uint32_t kCheckEvery = 8;

struct Spec {
  const char* config = "";
  double scale = 1.0;
  uint32_t worlds = 64;
  uint32_t sketch_k = 0;
  bool dynamic = false;
  /// Closed-loop connections, one client thread each.
  uint32_t connections = 3;
  /// Upper bound on the request rate, which sizes the sample buffers.
  double max_rate = 20000;
  /// slo_share counts responses that came back ok within this limit.
  double slo_us = 0;
  /// When nonzero, the traced run also drives one connection open loop at
  /// this offered rate (requests per second), timing each request from its
  /// due time against `open_slo_us`.
  double rate = 0;
  double open_slo_us = 0;
  /// Distinct read requests per connection stream (cycled).
  uint32_t stream_len = 4096;
  /// Every Nth request of a connection is an update (0 = none).
  uint32_t update_every = 0;
  uint32_t updates_per_connection = 0;
  /// Repetitions of the setup (median -> setup_s) and of the prepared
  /// build (median -> build_s).
  uint32_t setup_reps = 10;
  uint32_t build_reps = 5;
  uint32_t warmup = 200;
};

Spec MakeSpec(const Options& options) {
  Spec s;
  if (options.workload == "serve_light") {
    s.config = "Epinions-W";
    s.connections = 3;
    s.max_rate = 200000;
    s.slo_us = 1000;
  } else if (options.workload == "serve_heavy") {
    s.config = "Epinions-F";
    s.sketch_k = 64;
    s.connections = 1;
    s.slo_us = 2000;
    s.rate = 1900;
    s.open_slo_us = 5000;
    s.stream_len = 8192;
    s.setup_reps = 5;
    s.build_reps = 3;
  } else {
    s.config = "NetHEPT-W";
    s.dynamic = true;
    s.connections = 3;
    s.slo_us = 50000;
    s.update_every = 20;
    s.updates_per_connection = 1500;
    s.setup_reps = 7;
    s.warmup = 40;
  }
  if (options.smoke) {
    s.scale = 0.125;
    s.worlds = 16;
    if (s.sketch_k != 0) s.sketch_k = 16;
    s.stream_len = 256;
    s.setup_reps = 2;
    s.build_reps = 1;
    s.warmup = 20;
    if (s.rate > 0) s.rate = 500;
    if (s.updates_per_connection > 0) s.updates_per_connection = 200;
  }
  return s;
}

EngineOptions ServingOptions(const Spec& spec, const Options& options,
                             uint32_t threads) {
  EngineOptions o;
  o.index.num_worlds = spec.worlds;
  o.seed = options.seed;
  o.sketch_k = spec.sketch_k;
  o.threads = threads;
  return o;
}

// -- Request streams -------------------------------------------------------

struct Item {
  std::string line;       // request line including '\n'
  std::string ok_prefix;  // {"id":N,"status":"ok"
  std::string expect;     // expected response (no '\n'); empty = unchecked
  Op op = Op::kSpread1;
  int64_t id = 0;
};

struct Stream {
  std::vector<Item> reads;    // cycled
  std::vector<Item> updates;  // each sent at most once
};

std::string SeedList(soi::Rng* rng, NodeId n, uint32_t count) {
  std::vector<NodeId> seeds;
  while (seeds.size() < count) {
    const NodeId v = static_cast<NodeId>(rng->NextBounded(n));
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
  }
  std::sort(seeds.begin(), seeds.end());
  std::string out = "[";
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(seeds[i]);
  }
  return out + "]";
}

Item MakeItem(int64_t id, Op op, std::string body) {
  Item item;
  item.id = id;
  item.op = op;
  item.line = std::move(body);
  item.line += '\n';
  item.ok_prefix = "{\"id\":" + std::to_string(id) + ",\"status\":\"ok\"";
  return item;
}

Item MakeRead(const std::string& workload, int64_t id, uint64_t i,
              soi::Rng* rng, NodeId n, uint32_t worlds) {
  const std::string ids = std::to_string(id);
  if (workload == "serve_light") {
    switch (i % 3) {
      case 0:
        return MakeItem(id, Op::kSpread1,
                        "{\"id\":" + ids + ",\"op\":\"spread\",\"seeds\":" +
                            SeedList(rng, n, 1) + "}");
      case 1:
        return MakeItem(id, Op::kSpread1,
                        "{\"v\":2,\"id\":" + ids +
                            ",\"op\":\"spread\",\"seeds\":" +
                            SeedList(rng, n, 1) + ",\"accuracy\":\"exact\"}");
      default:
        return MakeItem(
            id, Op::kCascade,
            "{\"id\":" + ids + ",\"op\":\"cascade\",\"seeds\":" +
                SeedList(rng, n, 1) +
                ",\"world\":" + std::to_string(rng->NextBounded(worlds)) + "}");
    }
  }
  if (workload == "serve_heavy") {
    // Mix per 1000: 2 seed_select, 500 exact 10-seed spread, 200 sketch
    // spread, 150 typical, 148 reliability. The cheap ops stay under half,
    // so p50 falls inside the exact-spread class rather than on the edge
    // between two classes, where it would jump with the mix.
    const uint64_t r = rng->NextBounded(1000);
    if (r < 2) {
      return MakeItem(id, Op::kSeedSelect,
                      "{\"id\":" + ids +
                          ",\"op\":\"seed_select\",\"k\":50,"
                          "\"method\":\"tc\"}");
    }
    if (r < 502) {
      return MakeItem(id, Op::kSpread10,
                      "{\"v\":2,\"id\":" + ids +
                          ",\"op\":\"spread\",\"seeds\":" +
                          SeedList(rng, n, 10) + ",\"accuracy\":\"exact\"}");
    }
    if (r < 702) {
      return MakeItem(id, Op::kSketch,
                      "{\"v\":2,\"id\":" + ids +
                          ",\"op\":\"spread\",\"seeds\":" +
                          SeedList(rng, n, 10) + ",\"accuracy\":\"sketch\"}");
    }
    if (r < 852) {
      return MakeItem(id, Op::kTypical,
                      "{\"id\":" + ids + ",\"op\":\"typical\",\"seeds\":" +
                          SeedList(rng, n, 1) + "}");
    }
    return MakeItem(id, Op::kReliability,
                    "{\"id\":" + ids + ",\"op\":\"reliability\",\"seeds\":" +
                        SeedList(rng, n, 1) + ",\"threshold\":0.5}");
  }
  return MakeItem(id, Op::kSpread1,
                  "{\"id\":" + ids + ",\"op\":\"spread\",\"seeds\":" +
                      SeedList(rng, n, 1) + "}");
}

// Single-op updates over disjoint arcs per connection, so every update
// applies cleanly in any interleaving and the final graph does not depend
// on it: probability changes of existing arcs and inserts of new ones.
void AddUpdates(const Spec& spec, const soi::ProbGraph& graph, uint64_t seed,
                std::vector<Stream>* streams) {
  soi::Rng rng(seed ^ 0x7570646174657321ull);
  const NodeId n = graph.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> taken;
  auto fresh = [&](NodeId u, NodeId v) {
    const auto key = std::make_pair(u, v);
    if (std::find(taken.begin(), taken.end(), key) != taken.end()) return false;
    taken.push_back(key);
    return true;
  };
  for (uint32_t c = 0; c < streams->size(); ++c) {
    Stream& stream = (*streams)[c];
    for (uint32_t i = 0; i < spec.updates_per_connection; ++i) {
      const int64_t id = static_cast<int64_t>(c) * 10000000 + 5000000 + i;
      char prob[32];
      std::snprintf(prob, sizeof(prob), "%.3f",
                    0.05 + 0.9 * rng.NextDouble());
      std::string body;
      if (i % 2 == 0) {
        NodeId u = 0, v = 0;
        do {
          u = static_cast<NodeId>(rng.NextBounded(n));
        } while (graph.OutDegree(u) == 0 ||
                 !fresh(u, v = graph.OutNeighbors(u)[rng.NextBounded(
                               graph.OutDegree(u))]));
        body = "{\"id\":" + std::to_string(id) +
               ",\"op\":\"update\",\"ops\":[{\"op\":\"prob\",\"src\":" +
               std::to_string(u) + ",\"dst\":" + std::to_string(v) +
               ",\"prob\":" + prob + "}]}";
      } else {
        NodeId u = 0, v = 0;
        do {
          u = static_cast<NodeId>(rng.NextBounded(n));
          v = static_cast<NodeId>(rng.NextBounded(n));
        } while (u == v ||
                 std::binary_search(graph.OutNeighbors(u).begin(),
                                    graph.OutNeighbors(u).end(), v) ||
                 !fresh(u, v));
        body = "{\"id\":" + std::to_string(id) +
               ",\"op\":\"update\",\"ops\":[{\"op\":\"insert\",\"src\":" +
               std::to_string(u) + ",\"dst\":" + std::to_string(v) +
               ",\"prob\":" + prob + "}]}";
      }
      stream.updates.push_back(MakeItem(id, Op::kUpdate, std::move(body)));
    }
  }
}

std::vector<Stream> MakeStreams(const Spec& spec, const Options& options,
                                const soi::ProbGraph& graph) {
  std::vector<Stream> streams(spec.connections);
  for (uint32_t c = 0; c < spec.connections; ++c) {
    soi::Rng rng(options.seed * 1000003 + c);
    for (uint32_t i = 0; i < spec.stream_len; ++i) {
      const int64_t id = static_cast<int64_t>(c) * 10000000 + i;
      streams[c].reads.push_back(MakeRead(options.workload, id, i, &rng,
                                          graph.num_nodes(), spec.worlds));
    }
  }
  if (spec.update_every > 0) AddUpdates(spec, graph, options.seed, &streams);
  return streams;
}

// The request sequence of one connection: reads cycle, every
// update_every-th request is the next unused update.
class Cursor {
 public:
  Cursor(const Stream* stream, uint32_t update_every)
      : stream_(stream), update_every_(update_every) {}

  const Item& Next() {
    const uint64_t p = pos_++;
    if (update_every_ > 0 && p % update_every_ == update_every_ - 1 &&
        next_update_ < stream_->updates.size()) {
      return stream_->updates[next_update_++];
    }
    return stream_->reads[next_read_++ % stream_->reads.size()];
  }
  uint64_t updates_taken() const { return next_update_; }

 private:
  const Stream* stream_;
  uint32_t update_every_;
  uint64_t pos_ = 0;
  uint64_t next_read_ = 0;
  uint64_t next_update_ = 0;
};

std::string ExpectedResponse(Engine* engine, const std::string& line) {
  auto parsed = soi::service::ParseRequestLine(
      std::string_view(line).substr(0, line.size() - 1));
  if (!parsed.ok()) return "unparsable request";
  std::string out =
      soi::service::FormatResponseLine(parsed->id, parsed->version,
                                       engine->Run(parsed->request));
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

// -- Files shared by the prepare and run phases ----------------------------

std::string SnapshotPath(const Options& o) {
  return o.work_dir + "/" + o.workload + ".soisnap";
}
std::string ExpectPath(const Options& o) {
  return o.work_dir + "/" + o.workload + ".expect";
}
std::string PrepPath(const Options& o) {
  return o.work_dir + "/" + o.workload + ".prep";
}

// -- Server harness ---------------------------------------------------------

struct Server {
  std::thread thread;
  uint16_t port = 0;
  soi::Status result = soi::Status::OK();
};

// Starts ServeTcp on an ephemeral port and blocks until it listens.
void StartServer(Engine* engine, uint32_t max_connections, Server* server) {
  std::atomic<uint16_t> port{0};
  std::atomic<bool> listening{false};
  soi::service::ServeOptions serve_options;
  serve_options.max_connections = max_connections;
  serve_options.on_listening = [&port, &listening](uint16_t p) {
    port.store(p);
    listening.store(true);
  };
  soi::Status* result = &server->result;
  server->thread = std::thread([engine, serve_options, result]() {
    *result = soi::service::ServeTcp(engine, 0, serve_options);
  });
  while (!listening.load()) std::this_thread::yield();
  server->port = port.load();
}

// Sends one request over a fresh connection and returns the response line.
bool RoundTrip(uint16_t port, const std::string& line, std::string* response) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  auto reader = std::make_unique<LineReader>(fd);
  std::string_view got;
  const bool ok = WriteFull(fd, line) && reader->NextLine(&got);
  if (ok) response->assign(got);
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
  return ok;
}

// -- Load generation --------------------------------------------------------

// One timed request: when it was sent (open loop: when it was due) and its
// round trip from then.
struct Sample {
  uint64_t start_ns = 0;
  uint64_t rtt_ns = 0;
};

struct ClientResult {
  std::vector<Sample> reads;      // reads completed in the window
  std::vector<Sample> updates;    // updates completed in the window
  std::vector<uint64_t> late_ns;  // open loop: send time minus due time
  uint64_t sent = 0;                // every request sent, warmup included
  uint64_t window_done = 0;         // completed inside the measured window
  uint64_t window_ok_in_slo = 0;
  uint64_t window_sent = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t checked = 0;
  uint64_t updates_taken = 0;
  bool io_ok = true;
};

struct LoadControl {
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
};

// Judges one response; returns true when it is ok and, if sampled, equal
// to the expected bytes. Allocation-free.
bool Judge(const Item& item, std::string_view got, ClientResult* out) {
  if (got.substr(0, item.ok_prefix.size()) != item.ok_prefix) {
    ++out->failed;
    return false;
  }
  if (!item.expect.empty()) {
    ++out->checked;
    if (!SameResponse(got, item.expect)) {
      ++out->failed;
      ++out->mismatched;
      return false;
    }
  }
  return true;
}

// Closed-loop client: warmup, then request/response back to back until
// told to stop. The measured loop allocates nothing (vectors reserved).
void ClosedLoopClient(uint16_t port, const Stream* stream, const Spec* spec,
                      size_t capacity, LoadControl* control,
                      ClientResult* out) {
  // Touch the sample buffers up front: their resident size is then the
  // same in every run, so peak_rss_mb does not follow throughput.
  out->reads.resize(capacity);
  out->reads.clear();
  out->updates.resize(capacity / 8 + 16);
  out->updates.clear();
  const int fd = ConnectLoopback(port);
  auto reader = std::make_unique<LineReader>(fd);
  Cursor cursor(stream, spec->update_every);
  const uint64_t slo_ns = static_cast<uint64_t>(spec->slo_us * 1000);
  bool ok = fd >= 0;
  for (uint32_t i = 0; i < spec->warmup && ok; ++i) {
    const Item& item = cursor.Next();
    std::string_view got;
    ok = WriteFull(fd, item.line) && reader->NextLine(&got);
    ++out->sent;
    if (ok) Judge(item, got, out);
  }
  control->ready.fetch_add(1);
  while (!control->go.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  while (ok && !control->stop.load(std::memory_order_relaxed)) {
    const Item& item = cursor.Next();
    const uint64_t t0 = NowNs();
    std::string_view got;
    ok = WriteFull(fd, item.line) && reader->NextLine(&got);
    const uint64_t rtt = NowNs() - t0;
    ++out->sent;
    ++out->window_sent;
    if (!ok) break;
    const bool good = Judge(item, got, out);
    if (control->stop.load(std::memory_order_relaxed)) break;
    ++out->window_done;
    if (good && rtt <= slo_ns) ++out->window_ok_in_slo;
    auto* sink = item.op == Op::kUpdate ? &out->updates : &out->reads;
    if (sink->size() < sink->capacity()) sink->push_back({t0, rtt});
  }
  out->io_ok = ok;
  out->updates_taken = cursor.updates_taken();
  if (fd >= 0) {
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }
}

// Open-loop load over one connection: a sender thread writes request i
// when it falls due (t0 + i / rate), a receiver thread times each response
// from its due time.
void OpenLoop(uint16_t port, const Stream* stream, const Spec& spec,
              double seconds, ClientResult* out) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    out->io_ok = false;
    return;
  }
  auto reader = std::make_unique<LineReader>(fd);
  Cursor warm(stream, 0);
  for (uint32_t i = 0; i < spec.warmup && out->io_ok; ++i) {
    const Item& item = warm.Next();
    std::string_view got;
    out->io_ok = WriteFull(fd, item.line) && reader->NextLine(&got);
    ++out->sent;
    if (out->io_ok) Judge(item, got, out);
  }
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / spec.rate);
  const uint64_t total = static_cast<uint64_t>(seconds * spec.rate);
  out->reads.reserve(total);
  out->late_ns.reserve(total);
  const uint64_t slo_ns = static_cast<uint64_t>(spec.open_slo_us * 1000);
  const uint64_t t0 = NowNs() + 1000000;
  std::atomic<bool> send_ok{true};

  std::thread sender([&]() {
    Cursor cursor(stream, 0);
    for (uint64_t i = 0; i < total; ++i) {
      const uint64_t due = t0 + i * period_ns;
      // Spin rather than sleep: a sleeping sender wakes up to milliseconds
      // late on a busy machine, which would be charged to the server.
      uint64_t now = NowNs();
      while (now < due) now = NowNs();
      out->late_ns.push_back(now - due);
      if (!WriteFull(fd, cursor.Next().line)) {
        send_ok.store(false);
        break;
      }
    }
    ::shutdown(fd, SHUT_WR);
  });

  Cursor cursor(stream, 0);
  uint64_t received = 0;
  std::string_view got;
  while (received < total && reader->NextLine(&got)) {
    const uint64_t due = t0 + received * period_ns;
    const uint64_t latency = NowNs() - due;
    const Item& item = cursor.Next();
    ++received;
    const bool good = Judge(item, got, out);
    out->reads.push_back({due, latency});
    if (good && latency <= slo_ns) ++out->window_ok_in_slo;
  }
  sender.join();
  ::close(fd);
  out->sent += total;
  out->window_sent = total;
  out->window_done = received;
  out->failed += total - received;
  if (!send_ok.load()) out->io_ok = false;
}

// -- Traced replay ----------------------------------------------------------

struct ReplayResult {
  double wall_s = 0;
  uint64_t lines = 0;
  uint64_t failed = 0;
  // Per read request: its batch's parse, engine and format time (ns).
  std::vector<double> parse_ns, engine_ns, format_ns;
  std::vector<double> update_ms;
  std::vector<double> affected_worlds;
};

// Replays `lines` against `engine` in batches of the given sizes. With the
// tracer enabled, every parse, engine batch and format call gets a span.
ReplayResult Replay(Engine* engine, const std::vector<const Item*>& lines,
                    const std::vector<uint32_t>& batch_sizes,
                    Tracer* tracer) {
  ReplayResult r;
  const uint32_t max_batch =
      *std::max_element(batch_sizes.begin(), batch_sizes.end());
  std::vector<ProtocolRequest> slots(max_batch);
  std::vector<const soi::service::Request*> ptrs(max_batch);
  std::vector<soi::Result<soi::service::Response>> results;
  std::string out;
  out.reserve(1 << 20);
  const uint64_t t_start = NowNs();
  size_t pos = 0;
  for (size_t b = 0; pos < lines.size(); ++b) {
    const uint32_t size = static_cast<uint32_t>(std::min<size_t>(
        batch_sizes[b % batch_sizes.size()], lines.size() - pos));
    const size_t first_span = tracer->spans().size();
    for (uint32_t j = 0; j < size; ++j) {
      const Item& item = *lines[pos + j];
      auto span = tracer->Span("protocol.parse", item.id);
      const std::string_view text(item.line.data(), item.line.size() - 1);
      if (!soi::service::ParseRequestLineInto(text, &slots[j]).ok()) {
        ++r.failed;
      }
      ptrs[j] = &slots[j].request;
    }
    {
      auto span = tracer->Span("engine.batch");
      if (!engine
               ->RunBatchInto(std::span<const soi::service::Request* const>(
                                  ptrs.data(), size),
                              &results)
               .ok()) {
        results.assign(size, soi::Status::Internal("batch rejected"));
      }
    }
    for (uint32_t j = 0; j < size; ++j) {
      auto span = tracer->Span("protocol.format", slots[j].id);
      soi::service::AppendResponseLine(&out, slots[j].id, slots[j].version,
                                       results[j]);
    }
    for (uint32_t j = 0; j < size; ++j) {
      if (!results[j].ok()) {
        ++r.failed;
        continue;
      }
      const auto* update = std::get_if<soi::service::UpdateResponse>(
          &results[j]->payload);
      if (update != nullptr) {
        r.update_ms.push_back(static_cast<double>(results[j]->meta.elapsed_us) /
                              1000.0);
        r.affected_worlds.push_back(update->affected_worlds);
      }
    }
    if (tracer->enabled()) {
      uint64_t parse = 0, eng = 0, format = 0;
      const auto& spans = tracer->spans();
      for (size_t s = first_span; s < spans.size(); ++s) {
        const uint64_t d = spans[s].end_ns - spans[s].start_ns;
        if (std::strcmp(spans[s].name, "protocol.parse") == 0) parse += d;
        if (std::strcmp(spans[s].name, "engine.batch") == 0) eng += d;
        if (std::strcmp(spans[s].name, "protocol.format") == 0) format += d;
      }
      for (uint32_t j = 0; j < size; ++j) {
        if (lines[pos + j]->op == Op::kUpdate) continue;
        r.parse_ns.push_back(static_cast<double>(parse));
        r.engine_ns.push_back(static_cast<double>(eng));
        r.format_ns.push_back(static_cast<double>(format));
      }
    }
    out.clear();
    pos += size;
  }
  r.wall_s = NsToS(NowNs() - t_start);
  r.lines = lines.size();
  return r;
}

// Batch sizes as the data plane formed them: quantiles of the
// serve/batch_size histogram recorded during the socket run.
std::vector<uint32_t> BatchSizes(double* mean_batch, uint64_t requests) {
  std::vector<uint32_t> sizes;
  const soi::obs::Histogram* h =
      soi::obs::Registry::Get().FindHistogram("serve/batch_size");
  const uint64_t batches = h == nullptr ? 0 : h->Count();
  *mean_batch = batches == 0 ? 1.0
                             : static_cast<double>(requests) /
                                   static_cast<double>(batches);
  constexpr int kQuantiles = 64;
  for (int i = 0; i < kQuantiles && batches > 0; ++i) {
    const uint64_t v = h->ValueAtQuantile((i + 0.5) / kQuantiles);
    sizes.push_back(static_cast<uint32_t>(std::max<uint64_t>(v, 1)));
  }
  if (sizes.empty()) sizes.push_back(1);
  // Interleave small and large batches deterministically.
  std::vector<uint32_t> mixed;
  for (size_t i = 0, j = sizes.size(); i < j; ++i) {
    mixed.push_back(sizes[i]);
    if (i + 1 < j) mixed.push_back(sizes[--j]);
  }
  return mixed;
}

uint64_t CounterValue(const char* name) {
  const soi::obs::Counter* c = soi::obs::Registry::Get().FindCounter(name);
  return c == nullptr ? 0 : c->Get();
}

// Latency percentiles that one stall of a shared machine cannot swing: the
// samples, in completion order, are cut into up to ten windows of at least
// 1000 samples (so each window's p99 has at least ten samples beyond it),
// and each percentile is the median of the windows' percentiles.
struct LatencySummary {
  double p50_us = 0;
  double p99_us = 0;
};

LatencySummary WindowedLatency(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.start_ns + a.rtt_ns < b.start_ns + b.rtt_ns;
            });
  const size_t n = samples.size();
  const size_t k = std::clamp<size_t>(n / 1000, 1, 10);
  std::vector<double> p50s, p99s, us;
  for (size_t w = 0; w < k && n > 0; ++w) {
    us.clear();
    for (size_t i = n * w / k; i < n * (w + 1) / k; ++i) {
      us.push_back(NsToUs(samples[i].rtt_ns));
    }
    std::sort(us.begin(), us.end());
    p50s.push_back(QuantileSorted(us, 0.5));
    p99s.push_back(QuantileSorted(us, 0.99));
  }
  return {Median(p50s), Median(p99s)};
}

// The share of the slowest 1% of reads' round-trip time during which an
// update from another connection was in flight: how much of p99 is spent
// behind updates.
double UpdateShareOfTail(std::vector<Sample> reads,
                         const std::vector<Sample>& updates) {
  if (reads.empty() || updates.empty()) return 0.0;
  std::vector<std::pair<uint64_t, uint64_t>> busy;
  for (const Sample& u : updates) {
    busy.push_back({u.start_ns, u.start_ns + u.rtt_ns});
  }
  std::sort(busy.begin(), busy.end());
  std::vector<std::pair<uint64_t, uint64_t>> merged;
  for (const auto& iv : busy) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  std::sort(reads.begin(), reads.end(), [](const Sample& a, const Sample& b) {
    return a.rtt_ns > b.rtt_ns;
  });
  const size_t tail = std::max<size_t>(1, reads.size() / 100);
  double share = 0;
  for (size_t i = 0; i < tail; ++i) {
    const uint64_t begin = reads[i].start_ns;
    const uint64_t end = begin + reads[i].rtt_ns;
    uint64_t overlap = 0;
    for (const auto& iv : merged) {
      if (iv.second <= begin || iv.first >= end) continue;
      overlap += std::min(end, iv.second) - std::max(begin, iv.first);
    }
    share += static_cast<double>(overlap) /
             static_cast<double>(std::max<uint64_t>(reads[i].rtt_ns, 1));
  }
  return share / static_cast<double>(tail);
}

// -- Phases -----------------------------------------------------------------

int Prepare(const Options& options) {
  const Spec spec = MakeSpec(options);
  soi::SetGlobalThreads(options.build_threads);
  auto generated = WriteDataset(spec.config, spec.scale, options);
  if (!generated.ok()) {
    std::fprintf(stderr, "perfbench: dataset: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  auto graph = LoadGenerated(*generated);
  if (!graph.ok()) {
    std::fprintf(stderr, "perfbench: load: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  const std::vector<Stream> streams = MakeStreams(spec, options, *graph);
  const EngineOptions engine_options =
      ServingOptions(spec, options, options.build_threads);

  // The reference engine; for the static workloads its index is also what
  // the snapshot serializes, so served answers must equal its answers.
  // build_s is the median over build_reps builds from the loaded graph to
  // the served state (for the static workloads: index, typical table,
  // sketches, snapshot on disk); the last build is kept as the reference.
  std::vector<double> builds;
  std::optional<Engine> reference;
  for (uint32_t rep = 0; rep < spec.build_reps; ++rep) {
    reference.reset();
    const uint64_t t0 = NowNs();
    auto built = spec.dynamic ? Engine::CreateDynamic(*graph, engine_options)
                              : Engine::Create(*graph, engine_options);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: reference engine: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    reference.emplace(std::move(*built));
    if (!spec.dynamic) {
      soi::TypicalCascadeComputer computer(&reference->index());
      auto sweep = computer.ComputeAllFlat();
      if (!sweep.ok()) return 1;
      soi::SnapshotWriteOptions write_options;
      write_options.typical = &sweep->cascades;
      std::unique_ptr<soi::SketchSpreadOracle> sketches;
      if (spec.sketch_k > 0) {
        auto oracle = soi::SketchSpreadOracle::BuildDeterministic(
            reference->index(), spec.sketch_k, options.seed);
        if (!oracle.ok()) return 1;
        sketches =
            std::make_unique<soi::SketchSpreadOracle>(std::move(*oracle));
        write_options.sketches = sketches.get();
      }
      const soi::Status written =
          soi::WriteSnapshot(reference->graph(), reference->index(),
                             SnapshotPath(options), write_options);
      if (!written.ok()) {
        std::fprintf(stderr, "perfbench: snapshot: %s\n",
                     written.ToString().c_str());
        return 1;
      }
    }
    builds.push_back(NsToS(NowNs() - t0));
  }
  const double build_s = Median(builds);

  // Expected responses of the sampled reads. A dynamic engine's answers
  // change under updates, so only the pre-update first response is
  // checked against the prepared reference there.
  std::ofstream expect(ExpectPath(options), std::ios::binary);
  for (uint32_t c = 0; c < streams.size(); ++c) {
    for (uint32_t i = 0; i < streams[c].reads.size(); ++i) {
      if (i % kCheckEvery != 0 || (spec.dynamic && (c > 0 || i > 0))) {
        continue;
      }
      expect << c << ' ' << i << ' '
             << ExpectedResponse(&*reference, streams[c].reads[i].line)
             << '\n';
    }
  }
  if (!FlushToDisk(generated->path) ||
      (!spec.dynamic && !FlushToDisk(SnapshotPath(options)))) {
    return 1;
  }
  std::ofstream prep(PrepPath(options));
  prep.precision(17);
  prep << generated->num_nodes << ' ' << generated->num_edges << ' '
       << build_s << '\n';
  if (!expect || !prep) return 1;
  std::printf("%s: prepared %s (%u nodes, %" PRIu64 " arcs) in %.3fs\n",
              options.workload.c_str(), spec.config, generated->num_nodes,
              generated->num_edges, build_s);
  return 0;
}

bool LoadExpected(const Options& options, std::vector<Stream>* streams) {
  std::ifstream in(ExpectPath(options), std::ios::binary);
  std::string line;
  uint64_t loaded = 0;
  while (std::getline(in, line)) {
    std::istringstream head(line);
    uint32_t c = 0, i = 0;
    head >> c >> i;
    const size_t start = line.find(' ', line.find(' ') + 1);
    if (c >= streams->size() || i >= (*streams)[c].reads.size() ||
        start == std::string::npos) {
      return false;
    }
    (*streams)[c].reads[i].expect = line.substr(start + 1);
    ++loaded;
  }
  if (options.inject_wrong && !(*streams)[0].reads[0].expect.empty()) {
    (*streams)[0].reads[0].expect += " ";
  }
  return loaded > 0 && !(*streams)[0].reads[0].expect.empty();
}

int RunPhase(const Options& options) {
  const Spec spec = MakeSpec(options);
  Report report;
  RecordRun(options, &report);
  report.Record("dataset", "\"" + std::string(spec.config) + "\"");
  report.Record("scale", std::to_string(spec.scale));
  report.Record("worlds", std::to_string(spec.worlds));
  report.Record("sketch_k", std::to_string(spec.sketch_k));
  report.Record("serve_threads", "1");
  report.Record("connections", std::to_string(spec.connections));
  report.Record("slo_us", std::to_string(spec.slo_us));
  report.Record("open_loop_rate",
                options.trace ? std::to_string(spec.rate) : "0");

  // Untimed preparation inside the run process: the graph (for the request
  // streams and, in serve_update, the final-graph check) and the expected
  // responses the prepare phase computed.
  GeneratedGraph generated;
  generated.path = options.work_dir + "/" + spec.config + ".edges";
  double build_s = 0;
  {
    std::ifstream prep(PrepPath(options));
    prep >> generated.num_nodes >> generated.num_edges >> build_s;
    if (!prep) {
      std::fprintf(stderr, "perfbench: run the prepare phase first\n");
      return 1;
    }
  }
  auto graph = LoadGenerated(generated);
  if (!graph.ok()) return 1;
  std::vector<Stream> streams = MakeStreams(spec, options, *graph);
  if (!LoadExpected(options, &streams)) {
    std::fprintf(stderr, "perfbench: expected responses missing\n");
    return 1;
  }
  const EngineOptions engine_options = ServingOptions(spec, options, 1);
  Tracer tracer(options.trace);

  // -- Setup: open (or create) to first correct response, repeated --------
  std::vector<double> setup_s, open_s, make_index_s, from_parts_s,
      create_s, first_query_us, snapshot_share;
  std::unique_ptr<Engine> engine;
  // The first read of connection 0 answers every setup. A dynamic engine's
  // later answers depend on the updates applied so far, so its stream is
  // checked for status only.
  const Item& first = streams[0].reads[0];
  const std::string first_expect = first.expect;
  if (spec.dynamic) streams[0].reads[0].expect.clear();
  for (uint32_t rep = 0; rep < spec.setup_reps; ++rep) {
    engine.reset();
    soi::ProbGraph graph_copy;
    if (spec.dynamic) graph_copy = *graph;
    report.Attempt();
    const uint64_t t0 = NowNs();
    soi::Result<Engine> built = soi::Status::Internal("unset");
    if (spec.dynamic) {
      auto span = tracer.Span("dynamic.create");
      built = Engine::CreateDynamic(std::move(graph_copy), engine_options);
      create_s.push_back(NsToS(NowNs() - t0));
    } else {
      std::shared_ptr<const soi::Snapshot> snap;
      {
        auto span = tracer.Span("snapshot.open");
        auto opened = soi::Snapshot::Open(SnapshotPath(options));
        if (!opened.ok()) {
          report.Fail("snapshot open: " + opened.status().ToString());
          break;
        }
        snap = std::move(*opened);
      }
      open_s.push_back(NsToS(NowNs() - t0));
      soi::service::EngineParts parts;
      {
        auto span = tracer.Span("snapshot.make_index");
        const uint64_t t = NowNs();
        auto index = snap->MakeIndex();
        if (!index.ok()) {
          report.Fail("make index: " + index.status().ToString());
          break;
        }
        parts.index = std::move(*index);
        make_index_s.push_back(NsToS(NowNs() - t));
      }
      {
        auto span = tracer.Span("snapshot.make_parts");
        parts.graph = snap->MakeGraph();
        if (snap->info().has_typical) parts.typical = snap->MakeTypical();
        if (snap->info().has_sketches) {
          parts.sketches = snap->MakeSketchParts();
        }
        parts.storage = std::move(snap);
      }
      const uint64_t t = NowNs();
      auto span = tracer.Span("engine.from_parts");
      built = Engine::FromParts(std::move(parts), engine_options);
      from_parts_s.push_back(NsToS(NowNs() - t));
    }
    if (!built.ok()) {
      report.Fail("engine: " + built.status().ToString());
      break;
    }
    engine = std::make_unique<Engine>(std::move(*built));
    Server server;
    StartServer(engine.get(), 1, &server);
    std::string response;
    const uint64_t tq = NowNs();
    bool ok = false;
    {
      auto span = tracer.Span("engine.first_query");
      ok = RoundTrip(server.port, first.line, &response);
    }
    const uint64_t t1 = NowNs();
    server.thread.join();
    first_query_us.push_back(NsToUs(t1 - tq));
    setup_s.push_back(NsToS(t1 - t0));
    if (!spec.dynamic) {
      snapshot_share.push_back((open_s.back() + make_index_s.back()) /
                               setup_s.back());
    }
    if (!ok || !server.result.ok()) {
      report.Fail("first request: no response");
    } else if (!SameResponse(response, first_expect)) {
      report.Fail("first response differs from the reference: " +
                  response.substr(0, 200));
    }
  }
  if (engine == nullptr || report.failed() > 0) return report.Print();

  // -- Load over sockets (never traced) -------------------------------------
  soi::obs::Registry::Get().ResetValues();
  const uint32_t check_connections = spec.dynamic ? 1 : 0;
  Server server;
  StartServer(engine.get(), spec.connections + check_connections, &server);
  std::vector<ClientResult> clients(spec.connections);
  uint64_t window_ns = 0;
  uint64_t allocs = 0;
  {
    LoadControl control;
    const size_t capacity =
        static_cast<size_t>(options.seconds * spec.max_rate) /
            spec.connections +
        1024;
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < spec.connections; ++c) {
      threads.emplace_back(ClosedLoopClient, server.port, &streams[c], &spec,
                           capacity, &control, &clients[c]);
    }
    while (control.ready.load() < spec.connections) {
      std::this_thread::yield();
    }
    const uint64_t a0 = AllocCount();
    const uint64_t t0 = NowNs();
    control.go.store(true, std::memory_order_release);
    ::usleep(static_cast<useconds_t>(options.seconds * 1e6));
    control.stop.store(true);
    window_ns = NowNs() - t0;
    allocs = AllocCount() - a0;
    for (auto& t : threads) t.join();
  }
  // Peak RSS of setup plus serving, before the samples are post-processed.
  const double peak_rss_mb = PeakRssMb();

  std::vector<Sample> reads, updates;
  uint64_t done = 0, sent = 0, window_sent = 0, in_slo = 0, checked = 0;
  for (const ClientResult& c : clients) {
    reads.insert(reads.end(), c.reads.begin(), c.reads.end());
    updates.insert(updates.end(), c.updates.begin(), c.updates.end());
    done += c.window_done;
    sent += c.sent;
    window_sent += c.window_sent;
    in_slo += c.window_ok_in_slo;
    checked += c.checked;
    report.Attempt(c.sent);
    for (uint64_t i = 0; i < c.failed; ++i) {
      report.Fail(c.mismatched > 0 ? "response differs from the reference"
                                   : "response status not ok");
    }
    if (!c.io_ok) report.Fail("connection failed");
  }
  const double window = NsToS(window_ns);
  const LatencySummary read_latency = WindowedLatency(reads);
  const double p50 = read_latency.p50_us;
  const double p99 = read_latency.p99_us;
  const double qps = static_cast<double>(done) / window;
  std::printf("%s: %" PRIu64 " requests in %.3fs, %" PRIu64
              " responses byte-checked, %zu read samples\n",
              options.workload.c_str(), done, window, checked, reads.size());
  const uint64_t tier_sketch = CounterValue("service/requests_tier_sketch");
  const uint64_t tier_exact = CounterValue("service/requests_tier_exact");
  double mean_batch = 1.0;
  const std::vector<uint32_t> batch_sizes = BatchSizes(&mean_batch, sent);

  // -- serve_update: the served state must equal a fresh build ------------
  double checkpoint_mb = 0;
  if (spec.dynamic) {
    soi::DynamicGraph final_graph = soi::DynamicGraph::FromGraph(*graph);
    for (uint32_t c = 0; c < spec.connections; ++c) {
      for (uint64_t u = 0; u < clients[c].updates_taken; ++u) {
        auto parsed = soi::service::ParseRequestLine(std::string_view(
            streams[c].updates[u].line).substr(
            0, streams[c].updates[u].line.size() - 1));
        const auto& ops =
            std::get<soi::service::UpdateRequest>(parsed->request.payload).ops;
        for (const auto& op : ops) {
          if (!final_graph.Apply(op).ok()) report.Fail("update replay");
        }
      }
    }
    auto materialized = final_graph.Materialize();
    // build_s: the drift rebuild, a fresh engine on the final graph.
    std::vector<double> rebuilds;
    soi::Result<Engine> fresh = soi::Status::Internal("unset");
    for (uint32_t rep = 0; rep < spec.build_reps; ++rep) {
      const uint64_t t0 = NowNs();
      fresh = Engine::CreateDynamic(*materialized, engine_options);
      rebuilds.push_back(NsToS(NowNs() - t0));
    }
    build_s = Median(rebuilds);
    if (!fresh.ok()) {
      report.Fail("fresh engine: " + fresh.status().ToString());
    } else {
      if (engine->fingerprint() != soi::GraphFingerprint(*materialized)) {
        report.Fail("served graph differs from the final graph");
      }
      const std::string checkpoint = options.work_dir + "/checkpoint.soisnap";
      if (!soi::WriteSnapshot(*materialized, fresh->index(), checkpoint).ok()) {
        report.Fail("checkpoint write");
      }
      checkpoint_mb =
          static_cast<double>(FileBytes(checkpoint)) / (1024.0 * 1024.0);
      const int fd = ConnectLoopback(server.port);
      auto reader = std::make_unique<LineReader>(fd);
      for (uint32_t i = 0; i < streams[0].reads.size(); i += kCheckEvery) {
        const Item& item = streams[0].reads[i];
        std::string_view got;
        report.Attempt();
        if (!WriteFull(fd, item.line) || !reader->NextLine(&got)) {
          report.Fail("final check: no response");
          break;
        }
        std::string want = ExpectedResponse(&*fresh, item.line);
        if (options.inject_wrong && i == 0) want += " ";
        if (!SameResponse(got, want)) {
          report.Fail("answer after updates differs from a fresh build");
        }
      }
      ::shutdown(fd, SHUT_WR);
      ::close(fd);
    }
  }
  server.thread.join();
  if (!server.result.ok()) report.Fail("server: " + server.result.ToString());

  // -- Traced run only: one connection open loop at the offered rate -------
  LatencySummary open_latency;
  double open_slo_share = 0, late_p99_us = 0;
  if (options.trace && spec.rate > 0) {
    Server open_server;
    StartServer(engine.get(), 1, &open_server);
    ClientResult open;
    OpenLoop(open_server.port, &streams[0], spec, options.seconds, &open);
    open_server.thread.join();
    report.Attempt(open.sent);
    for (uint64_t i = 0; i < open.failed; ++i) {
      report.Fail("open loop: response status not ok or differs");
    }
    if (!open.io_ok || !open_server.result.ok()) {
      report.Fail("open loop: connection failed");
    }
    open_latency = WindowedLatency(open.reads);
    open_slo_share = open.window_sent == 0
                         ? 0.0
                         : static_cast<double>(open.window_ok_in_slo) /
                               static_cast<double>(open.window_sent);
    std::vector<double> late_us;
    for (uint64_t ns : open.late_ns) late_us.push_back(NsToUs(ns));
    std::sort(late_us.begin(), late_us.end());
    late_p99_us = QuantileSorted(late_us, 0.99);
  }
  RemoveTree(options.work_dir + "/checkpoint.soisnap");

  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("build_s", build_s, "s");
    report.Set("snapshot_mb",
               spec.dynamic ? checkpoint_mb
                            : static_cast<double>(
                                  FileBytes(SnapshotPath(options))) /
                                  (1024.0 * 1024.0),
               "MiB");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    report.Set("qps", qps, "1/s");
    report.Set("p50_us", p50, "us");
    report.Set("p99_us", p99, "us");
    report.Set("slo_share",
               window_sent == 0 ? 0.0
                                : static_cast<double>(in_slo) /
                                      static_cast<double>(window_sent),
               "share");
    return report.Print();
  }

  // -- Traced replay of the same stream -------------------------------------
  // The replay takes each connection's sequence as it was sent,
  // round-robin across connections, capped by a time budget measured on
  // the untraced pass; the traced pass replays the same lines.
  std::vector<const Item*> lines;
  {
    std::vector<Cursor> cursors;
    for (const Stream& s : streams) cursors.emplace_back(&s, spec.update_every);
    std::vector<uint64_t> remaining;
    for (const ClientResult& c : clients) remaining.push_back(c.sent);
    bool any = true;
    while (any && lines.size() < 400000) {
      any = false;
      for (size_t c = 0; c < cursors.size(); ++c) {
        if (remaining[c] == 0) continue;
        --remaining[c];
        lines.push_back(&cursors[c].Next());
        any = true;
      }
    }
  }
  // A dynamic replay applies the stream's updates again, so each pass runs
  // on a fresh engine over the original graph.
  auto replay_engine = [&]() -> std::unique_ptr<Engine> {
    if (!spec.dynamic) return nullptr;
    auto e = Engine::CreateDynamic(*graph, engine_options);
    return e.ok() ? std::make_unique<Engine>(std::move(*e)) : nullptr;
  };
  const double budget_s = options.seconds * 0.4;
  {
    // Size the replay: time a prefix untraced and cut to the budget.
    auto probe_engine = replay_engine();
    Engine* target = spec.dynamic ? probe_engine.get() : engine.get();
    if (target == nullptr) {
      report.Fail("replay engine: CreateDynamic failed");
      return report.Print();
    }
    Tracer off(false);
    const size_t probe = std::min<size_t>(lines.size(), 2000);
    std::vector<const Item*> head(lines.begin(), lines.begin() + probe);
    const ReplayResult r = Replay(target, head, batch_sizes, &off);
    const double per_line = r.wall_s / static_cast<double>(probe);
    const size_t fit = static_cast<size_t>(budget_s / std::max(per_line, 1e-9));
    if (fit < lines.size()) lines.resize(std::max<size_t>(fit, probe));
  }
  auto untraced_engine = replay_engine();
  Engine* target = spec.dynamic ? untraced_engine.get() : engine.get();
  if (target == nullptr) {
    report.Fail("replay engine: CreateDynamic failed");
    return report.Print();
  }
  Tracer off(false);
  const ReplayResult untraced = Replay(target, lines, batch_sizes, &off);
  untraced_engine.reset();
  auto traced_engine = replay_engine();
  target = spec.dynamic ? traced_engine.get() : engine.get();
  if (target == nullptr) {
    report.Fail("replay engine: CreateDynamic failed");
    return report.Print();
  }
  tracer.Clear();
  const ReplayResult traced = Replay(target, lines, batch_sizes, &tracer);
  report.Attempt(untraced.lines + traced.lines);
  for (uint64_t i = 0; i < untraced.failed + traced.failed; ++i) {
    report.Fail("replayed request failed");
  }

  // Per-op engine time: each sampled read alone in a batch of one.
  double op_us[kNumReadOps] = {};
  {
    std::vector<const soi::service::Request*> one(1);
    std::vector<soi::Result<soi::service::Response>> results;
    ProtocolRequest slot;
    for (int op = 0; op < kNumReadOps; ++op) {
      const uint32_t limit = static_cast<Op>(op) == Op::kSeedSelect ? 3 : 300;
      uint32_t n = 0;
      for (const Stream& s : streams) {
        for (const Item& item : s.reads) {
          if (static_cast<int>(item.op) != op || n >= limit) continue;
          if (!soi::service::ParseRequestLineInto(
                   std::string_view(item.line.data(), item.line.size() - 1),
                   &slot)
                   .ok()) {
            continue;
          }
          one[0] = &slot.request;
          report.Attempt();
          {
            auto span = tracer.Span(kOpSpan[op], item.id);
            if (!target->RunBatchInto(one, &results).ok() ||
                !results[0].ok()) {
              report.Fail("per-op request failed");
            }
          }
          ++n;
        }
      }
      if (n > 0) op_us[op] = tracer.TotalSeconds(kOpSpan[op]) * 1e6 / n;
    }
  }

  const double parse_med = Median(traced.parse_ns) / 1000.0;
  const double engine_med = Median(traced.engine_ns) / 1000.0;
  const double format_med = Median(traced.format_ns) / 1000.0;
  const double lines_n = static_cast<double>(traced.lines);
  for (int op = 0; op < kNumReadOps; ++op) {
    report.Set(kOpMetric[op], op_us[op], "us");
  }
  const double snapshot_bytes =
      spec.dynamic ? 0.0
                   : static_cast<double>(FileBytes(SnapshotPath(options)));
  report.Set("snapshot.bytes", snapshot_bytes, "bytes");
  report.Set("snapshot.open_s", Median(open_s), "s");
  report.Set("snapshot.make_index_s", Median(make_index_s), "s");
  report.Set("engine.from_parts_s", Median(from_parts_s), "s");
  report.Set("engine.first_query_us", Median(first_query_us), "us");
  report.Set("engine.requests_per_batch", mean_batch, "count");
  report.Set("engine.sketch_share",
             tier_sketch + tier_exact == 0
                 ? 0.0
                 : static_cast<double>(tier_sketch) /
                       static_cast<double>(tier_sketch + tier_exact),
             "share");
  report.Set("protocol.parse_ns",
             tracer.TotalSeconds("protocol.parse") * 1e9 / lines_n, "ns");
  report.Set("protocol.format_ns",
             tracer.TotalSeconds("protocol.format") * 1e9 / lines_n, "ns");
  report.Set("rtt.p50_us", p50, "us");
  report.Set("rtt.parse_us", parse_med, "us");
  report.Set("rtt.engine_us", engine_med, "us");
  report.Set("rtt.format_us", format_med, "us");
  report.Set("event_loop.residual_us",
             p50 - parse_med - engine_med - format_med, "us");
  report.Set("service.allocs_per_request",
             done == 0 ? 0.0
                       : static_cast<double>(allocs) /
                             static_cast<double>(done),
             "count");
  report.Set("dynamic.create_s", Median(create_s), "s");
  report.Set("dynamic.update_ms", Median(traced.update_ms), "ms");
  report.Set("dynamic.affected_worlds", Median(traced.affected_worlds),
             "count");
  report.Set("serve.update_rtt_p50_ms",
             WindowedLatency(updates).p50_us / 1000.0, "ms");
  report.Set("openloop.p50_us", open_latency.p50_us, "us");
  report.Set("openloop.p99_us", open_latency.p99_us, "us");
  report.Set("openloop.slo_share", open_slo_share, "share");
  report.Set("loadgen.late_p99_us", late_p99_us, "us");
  report.Set("trace.overhead_pct",
             untraced.wall_s > 0
                 ? 100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s
                 : 0.0,
             "%");
  report.Set("share.snapshot_of_setup", Median(snapshot_share), "share");
  report.Set("share.engine_of_p50", p50 > 0 ? engine_med / p50 : 0.0, "share");
  report.Set("share.update_of_p99", UpdateShareOfTail(reads, updates),
             "share");
  return report.Print();
}

}  // namespace

int RunServe(const Options& options) {
  return options.phase == "prepare" ? Prepare(options) : RunPhase(options);
}

}  // namespace perfbench

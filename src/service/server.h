#ifndef SOI_SERVICE_SERVER_H_
#define SOI_SERVICE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "service/engine.h"
#include "service/hot_swap.h"
#include "util/status.h"

namespace soi::service {

/// Serve-loop configuration (the engine's own admission control still
/// applies underneath).
struct ServeOptions {
  /// Flush a pending batch once it reaches this many requests. 0 = use the
  /// engine's max_batch. Values above the engine's max_batch are clamped.
  uint32_t batch_max = 0;
  /// ServeTcp only: stop accepting after this many connections (0 = serve
  /// forever). Lets tests and smoke scripts run a bounded server.
  uint32_t max_connections = 0;
  /// Cross-connection batching window in microseconds. 0 = flush as soon as
  /// the epoll ready set drains (lowest latency, still coalesces whatever
  /// arrived together); > 0 = keep accumulating requests across connections
  /// for up to this long after the first pending request before executing
  /// one batch — trades up to that much latency for larger deterministic
  /// batches under concurrent load.
  uint32_t batch_window_us = 0;
  /// Longest accepted request line in bytes (0 = unlimited). A longer line
  /// is answered with an in-order invalid_argument error and the parser
  /// resynchronizes at the next newline, so one hostile client cannot grow
  /// a server buffer without bound.
  size_t max_line_bytes = 1 << 20;
  /// Per-connection write backpressure threshold in bytes (0 = unlimited).
  /// Once a connection's un-sent output exceeds this, the server stops
  /// reading from it until the client drains its socket.
  size_t max_output_bytes = 4u << 20;
  /// ServeTcp only: invoked once the socket is listening, with the bound
  /// port — the race-free way for a test or supervisor to learn when (and
  /// where) to connect.
  std::function<void(uint16_t)> on_listening;
  /// Invoked at serve-loop boundaries: on every event-loop wakeup (including
  /// signal interruptions, so a SIGHUP handler's flag is seen promptly)
  /// while no update is on the writer thread. A wakeup skipped for that
  /// reason holds new updates back until the writer drains, then runs it.
  /// This is where a CLI reload handler checks its flag and
  /// EngineHandle::Swap()s in a fresh snapshot — never from signal context.
  /// Must not block for long; requests queue while it runs.
  std::function<void()> poll;
};

/// Runs the line-JSON protocol over a pair of file descriptors until EOF on
/// `in_fd` — the single-connection degenerate case of the epoll event loop
/// (see event_loop.h). Requests are batched greedily: lines already buffered
/// are grouped into one deterministic RunBatch call (up to batch_max).
/// Responses are written in request order. Malformed lines produce an
/// in-order error response and the stream keeps serving. Descriptors that
/// cannot be epoll-registered (regular files) are served by an equivalent
/// blocking driver. Returns only on EOF (OK) or an unrecoverable read/write
/// error (IOError).
Status ServeStream(Engine* engine, int in_fd, int out_fd,
                   const ServeOptions& options = {});

/// Hot-swappable variant: each batch Acquire()s the handle's current engine
/// and runs against it start-to-finish, so EngineHandle::Swap() never drops
/// or splits a request — in-flight batches finish on the old engine, the
/// next batch picks up the new one. batch_max is clamped against the engine
/// installed at call time.
Status ServeStream(const EngineHandle* handle, int in_fd, int out_fd,
                   const ServeOptions& options = {});

/// Listens on 127.0.0.1:`port` (0 = ephemeral; the chosen port is stored in
/// `*bound_port` if non-null) and serves all connections concurrently on a
/// single-threaded epoll event loop: N clients are multiplexed, their
/// requests coalesce into cross-connection batches (see
/// ServeOptions::batch_window_us), and slow readers get per-connection
/// write backpressure instead of blocking everyone else. Returns after
/// `max_connections` connections have been accepted and drained when that
/// is nonzero.
Status ServeTcp(Engine* engine, uint16_t port, const ServeOptions& options = {},
                uint16_t* bound_port = nullptr);

/// Hot-swappable variant (see the EngineHandle ServeStream overload).
Status ServeTcp(const EngineHandle* handle, uint16_t port,
                const ServeOptions& options = {},
                uint16_t* bound_port = nullptr);

}  // namespace soi::service

#endif  // SOI_SERVICE_SERVER_H_

#ifndef SOI_SERVICE_EVENT_LOOP_H_
#define SOI_SERVICE_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "service/engine.h"
#include "service/hot_swap.h"
#include "util/status.h"

namespace soi::service {

/// Configuration for one EventLoop instance. The caller (server.cc)
/// resolves user-facing ServeOptions into these concrete knobs — in
/// particular batch_max arrives already clamped against the engine's
/// admission limit.
struct EventLoopOptions {
  /// Flush threshold: a cross-connection batch is executed once this many
  /// requests are pending. Must be >= 1.
  uint32_t batch_max = 1;
  /// Adaptive batching window in microseconds. 0 = flush as soon as the
  /// epoll ready set drains (no event is ready right now); > 0 = keep
  /// accumulating requests across connections for up to this long after
  /// the first pending request, then flush. Granularity is the epoll_wait
  /// millisecond clock, so sub-millisecond windows behave like "drain plus
  /// up to 1ms".
  uint32_t batch_window_us = 0;
  /// Longest accepted request line. A longer line yields an in-order
  /// invalid_argument error response and the parser resynchronizes at the
  /// next newline — the buffer never grows unboundedly on a newline-less
  /// stream.
  size_t max_line_bytes = 1 << 20;
  /// Write backpressure threshold: once a connection's un-sent output
  /// exceeds this, the loop stops reading from it (drops EPOLLIN interest)
  /// until the client drains its socket. Bounds per-connection memory
  /// against slow readers.
  size_t max_output_bytes = 4u << 20;
  /// Serve-loop poll hook (reload checks etc.); invoked on every wakeup
  /// while no update is in flight, and when a skipped one is owed, after
  /// the writer drains. Borrowed pointer — may be null, must outlive the
  /// loop when set.
  const std::function<void()>* poll = nullptr;
};

/// Single-threaded epoll event loop multiplexing N protocol connections
/// over one engine — the serving data plane.
///
/// Architecture (DESIGN.md §16):
///   - per-connection non-blocking read/write buffers with in-situ line
///     parsing (ParseRequestLineInto over the connection buffer, reusing a
///     per-slot ProtocolRequest — zero allocations once warm);
///   - cross-connection batching: requests pending on ALL connections are
///     gathered (connection registration order, then per-connection
///     arrival order — deterministic) into chunks of <= batch_max and
///     executed via Engine::RunBatchInto; responses are serialized into
///     per-connection output buffers in per-connection request order;
///   - write backpressure via EPOLLOUT re-arming and max_output_bytes;
///   - hot swap: the engine is Acquire()d from the EngineHandle once per
///     flush, so EngineHandle::Swap() retires the old engine only after
///     in-flight chunks complete;
///   - updates off the loop thread: a dynamic engine's update requests run
///     on one writer thread, started by the first update, in submission
///     order. The connection that sent one is parked — not read, its later
///     requests held — until the response is appended; every other
///     connection keeps being served. The poll hook runs only while no
///     update is in flight; once one was skipped, new updates wait for the
///     writer to drain so that it runs.
///
/// One loop instance is not thread-safe; besides the writer thread, its
/// parallelism inside a batch comes from the engine's deterministic
/// runtime.
class EventLoop {
 public:
  /// Exactly one of `engine` / `handle` must be non-null (a fixed engine,
  /// or a hot-swappable handle acquired per flush). Both are borrowed.
  EventLoop(Engine* engine, const EngineHandle* handle,
            const EventLoopOptions& options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Serves one client over a pair of descriptors until EOF on `in_fd` —
  /// the single-connection degenerate case of the same loop (ServeStream).
  /// When either descriptor cannot be epoll-registered (regular files:
  /// `serve --stdin < requests.txt`), a blocking driver runs the identical
  /// parse/batch/flush machinery instead. The descriptors are borrowed:
  /// never closed, and their O_NONBLOCK state is restored on return.
  Status ServePair(int in_fd, int out_fd);

  /// Serves a listening socket: accepts up to `max_connections` clients
  /// (0 = unlimited) and multiplexes them all. Takes ownership of
  /// `listen_fd`. Returns once the listener is exhausted and every
  /// accepted connection has drained.
  Status ServeListener(int listen_fd, uint32_t max_connections);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace soi::service

#endif  // SOI_SERVICE_EVENT_LOOP_H_

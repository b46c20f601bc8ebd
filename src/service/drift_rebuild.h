#ifndef SOI_SERVICE_DRIFT_REBUILD_H_
#define SOI_SERVICE_DRIFT_REBUILD_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>

#include "service/engine.h"
#include "service/hot_swap.h"
#include "util/status.h"

namespace soi::service {

/// The drift-rebuild policy for a dynamic engine served behind an
/// EngineHandle (DESIGN §13.3). Once the engine's drift() reaches
/// EngineOptions::drift_rebuild_threshold, it captures the engine's state,
/// builds a fresh engine from the captured graph on a background thread,
/// replays the updates journaled since the capture onto it, and Swap()s it
/// in. By rebuild equivalence the swap changes no answer; it compacts
/// storage, revives dropped caches and resets drift.
///
/// Poll() advances that sequence by one step and never waits for the
/// build. Call it from one thread, and only while no update is being
/// applied to the handle's engine: an update that lands between the
/// catch-up replay and the swap would be lost. The event loop's poll hook
/// runs only while its writer thread is idle, which is what makes it the
/// place to call Poll() (ServeOptions::poll).
class DriftRebuilder {
 public:
  /// What one Poll() did.
  struct Event {
    bool started = false;  // a background rebuild began
    bool swapped = false;  // a rebuilt engine was swapped in
    size_t replayed = 0;   // journaled ops replayed onto it before the swap
    /// A failed rebuild or catch-up. The current engine keeps serving
    /// (drifted but correct) and a later Poll() tries again.
    Status status = Status::OK();
  };

  /// `options` are the ones the served engine was built with; a zero
  /// drift_rebuild_threshold disables the policy. `handle` is borrowed.
  DriftRebuilder(EngineHandle* handle, const EngineOptions& options);
  /// Waits for a background build that is still running.
  ~DriftRebuilder();

  DriftRebuilder(const DriftRebuilder&) = delete;
  DriftRebuilder& operator=(const DriftRebuilder&) = delete;

  Event Poll();

 private:
  EngineHandle* handle_;
  EngineOptions options_;
  std::future<Result<Engine>> rebuild_;
  std::shared_ptr<Engine> source_;  // the engine the capture came from
  uint64_t source_seq_ = 0;         // journal position of the capture
};

}  // namespace soi::service

#endif  // SOI_SERVICE_DRIFT_REBUILD_H_

#include "service/drift_rebuild.h"

#include <chrono>
#include <utility>
#include <vector>

namespace soi::service {

DriftRebuilder::DriftRebuilder(EngineHandle* handle,
                               const EngineOptions& options)
    : handle_(handle), options_(options) {}

DriftRebuilder::~DriftRebuilder() {
  if (rebuild_.valid()) rebuild_.wait();  // don't orphan a rebuild thread
}

DriftRebuilder::Event DriftRebuilder::Poll() {
  Event event;
  if (options_.drift_rebuild_threshold == 0) return event;
  if (!rebuild_.valid()) {
    std::shared_ptr<Engine> current = handle_->Acquire();
    if (current->drift() < options_.drift_rebuild_threshold) return event;
    Result<DynamicState> state = current->CaptureDynamicState();
    if (!state.ok()) {
      event.status = state.status();
      return event;
    }
    source_seq_ = state->journal_seq;
    source_ = std::move(current);
    rebuild_ = std::async(
        std::launch::async,
        [graph = std::move(state->graph), options = options_]() mutable {
          return Engine::CreateDynamic(std::move(graph), options);
        });
    event.started = true;
    return event;
  }
  if (rebuild_.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return event;
  }
  Result<Engine> next = rebuild_.get();
  std::shared_ptr<Engine> source = std::move(source_);
  if (!next.ok()) {
    event.status = next.status();
    return event;
  }
  const std::vector<GraphUpdate> catchup = source->JournalSince(source_seq_);
  if (!catchup.empty()) {
    Request replay;
    replay.payload = UpdateRequest{catchup};
    const Result<Response> replayed = next->Run(replay);
    if (!replayed.ok()) {
      event.status = replayed.status();
      return event;
    }
  }
  handle_->Swap(std::move(*next));
  event.swapped = true;
  event.replayed = catchup.size();
  return event;
}

}  // namespace soi::service

#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "util/check.h"

namespace soi {

namespace {

std::mutex g_config_mu;
uint32_t g_threads = 0;  // 0 = unresolved, use hardware concurrency
std::unique_ptr<ThreadPool> g_pool;
bool g_pool_built = false;

uint32_t ResolvedThreadsLocked() {
  return g_threads == 0 ? ThreadPool::HardwareConcurrency() : g_threads;
}

}  // namespace

void SetGlobalThreads(uint32_t num_threads) {
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_threads = num_threads;
  g_pool.reset();  // rebuilt lazily with the new budget
  g_pool_built = false;
}

uint32_t GlobalThreads() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  return ResolvedThreadsLocked();
}

ThreadPool* GlobalPool() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  if (!g_pool_built) {
    const uint32_t threads = ResolvedThreadsLocked();
    // The caller of a parallel region is itself one of the `threads` lanes.
    if (threads > 1) g_pool = std::make_unique<ThreadPool>(threads - 1);
    g_pool_built = true;
  }
  return g_pool.get();
}

uint32_t PlannedChunks(uint64_t range, uint64_t grain) {
  if (range == 0) return 0;
  grain = std::max<uint64_t>(1, grain);
  const uint64_t cap =
      std::min<uint64_t>(GlobalThreads(), (range + grain - 1) / grain);
  const uint64_t chunk_size = (range + cap - 1) / cap;
  return static_cast<uint32_t>((range + chunk_size - 1) / chunk_size);
}

void ParallelForChunks(
    uint64_t begin, uint64_t end, uint64_t grain,
    const std::function<void(uint32_t, uint64_t, uint64_t)>& fn) {
  if (end <= begin) return;
  const uint64_t range = end - begin;
  const uint32_t num_chunks = PlannedChunks(range, grain);
  const uint64_t chunk_size = (range + num_chunks - 1) / num_chunks;

  ThreadPool* pool = GlobalPool();
  if (num_chunks == 1 || pool == nullptr || pool->InWorker()) {
    // Serial (or nested-inside-a-worker) execution: same chunk
    // decomposition, run in order on this thread.
    for (uint32_t c = 0; c < num_chunks; ++c) {
      const uint64_t b = begin + c * chunk_size;
      fn(c, b, std::min(end, b + chunk_size));
    }
    return;
  }

  // Static chunk boundaries; threads claim whole chunks via a shared cursor.
  // The caller returns once every chunk has *run*, not once every helper
  // task has *started*: the pool's workers may all be blocked elsewhere
  // (e.g. on a lock one of the caller's chunks holds while it opens this
  // region), and then the caller runs every chunk itself. So the cursor and
  // the completion count live in state the helper tasks co-own; a helper
  // that starts late finds no chunk left and exits without touching `fn` or
  // anything else on the caller's stack.
  struct Shared {
    std::atomic<uint64_t> next_chunk{0};
    std::mutex mu;
    std::condition_variable cv;
    uint32_t done = 0;  // chunks finished; guarded by mu
  };
  const auto shared = std::make_shared<Shared>();
  const auto* fn_ptr = &fn;
  const auto run_chunks = [shared, fn_ptr, begin, end, chunk_size,
                           num_chunks] {
    uint64_t c;
    while ((c = shared->next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const uint64_t b = begin + c * chunk_size;
      (*fn_ptr)(static_cast<uint32_t>(c), b, std::min(end, b + chunk_size));
      std::lock_guard<std::mutex> lock(shared->mu);
      if (++shared->done == num_chunks) shared->cv.notify_one();
    }
  };

  const uint32_t num_helpers =
      std::min<uint32_t>(pool->num_threads(), num_chunks - 1);
  for (uint32_t i = 0; i < num_helpers; ++i) pool->Submit(run_chunks);
  run_chunks();  // the calling thread is a full participant
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->done == num_chunks; });
}

}  // namespace soi

// Shared pieces of the repo benchmark: options, the result report, the
// in-memory span tracer, order statistics, and the allocation-free socket
// helpers the load generators use.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/prob_graph.h"
#include "util/flat_sets.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  /// "prepare" generates inputs and reference answers (untimed, its own
  /// process); "run" measures.
  std::string phase = "run";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: same phases, checks and metric names, smaller counts.
  bool smoke = false;
  /// Self-test hook: corrupts one expected answer so the run must fail.
  bool inject_wrong = false;
  /// Scratch directory for generated graphs and snapshots.
  std::string work_dir = ".";
  std::string commit = "unknown";
  /// Worker threads of the offline build phases (fixed, <= nproc).
  uint32_t build_threads = 1;
};

/// Monotonic clock (steady_clock) in nanoseconds.
uint64_t NowNs();
inline double NsToS(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Heap allocations made by the whole process so far (a counting global
/// operator new is linked into the benchmark binary).
uint64_t AllocCount();

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// Bytes of a file, 0 when it does not exist.
uint64_t FileBytes(const std::string& path);

/// Median of `values` (copied; empty -> 0).
double Median(std::vector<double> values);
/// Linear-interpolated quantile of a sorted vector (empty -> 0).
double QuantileSorted(const std::vector<double>& sorted, double q);

/// FNV-1a digests of the outputs the answer checks compare.
uint64_t DigestIds(std::span<const soi::NodeId> ids);
uint64_t DigestSets(const soi::FlatSets& sets);

/// One recorded span: a named interval with its causing span and, for
/// serving replays, the request it belongs to.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request_id = -1;
};

/// Span recorder for the benchmark's own calls into each layer. Spans stay
/// in memory until the run ends; a disabled tracer records nothing and each
/// Scope costs one branch. Single-threaded: spans are only opened on the
/// benchmark's driving thread.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  Scope Span(const char* name, int64_t request_id = -1) {
    return Scope(this, name, request_id);
  }

  /// Sum of durations of every span called `name`, in seconds.
  double TotalSeconds(std::string_view name) const;
  /// Sum over spans called `name` of their duration minus the time their
  /// direct children cover, in seconds.
  double SelfSeconds(std::string_view name) const;
  const std::vector<SpanRecord>& spans() const { return spans_; }
  void Clear();

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// Collects the run's metrics, operation counts and run record, and prints
/// the result: human-readable lines, a run-record JSON line, and the final
/// JSON object on the last line of stdout.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Record(const std::string& key, const std::string& json_value);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and logs why on stderr.
  void Fail(const std::string& why);
  uint64_t failed() const { return failed_; }
  /// Prints everything; returns the process exit code (nonzero on any
  /// failed operation).
  int Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Adds the run-record fields every result carries.
void RecordRun(const Options& options, Report* report);

/// fsyncs a file the prepare phase wrote, so the run phase's timings do not
/// overlap its writeback. Returns false when the file cannot be synced.
bool FlushToDisk(const std::string& path);

/// Removes `path` and everything below it (best effort).
void RemoveTree(const std::string& path);

// -- Allocation-free client-side socket helpers ---------------------------

/// Connects to 127.0.0.1:port; -1 on failure.
int ConnectLoopback(uint16_t port);

/// Line framing over a socket: one buffer allocated up front, memmove
/// compaction, no heap traffic per line. It busy-polls the socket
/// (non-blocking reads) instead of sleeping in read(): on a virtual machine
/// a blocked thread's wake-up can take from tens of microseconds to
/// milliseconds depending on the host's load, and that delay would be
/// charged to the server's round trip.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd), buf_(1 << 20) {}
  bool NextLine(std::string_view* line);

 private:
  int fd_;
  std::vector<char> buf_;
  size_t pos_ = 0;
  size_t len_ = 0;
};

bool WriteFull(int fd, std::string_view data);

/// Byte comparison of two response lines that ignores the value of the
/// "elapsed_us" field (handler wall time, the one nondeterministic field).
bool SameResponse(std::string_view got, std::string_view want);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_

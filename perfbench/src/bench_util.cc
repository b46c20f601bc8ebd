#include "bench_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <thread>

#include "obs/metrics.h"

// ---------------------------------------------------------------------------
// Global allocation counter (the same counting operator new bench_serve
// uses): every operator new in the process bumps it, so the delta across a
// serving window whose client loops allocate nothing is the server's cost.

static std::atomic<uint64_t> g_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

uint64_t NowNs() { return soi::obs::NowNs(); }

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

double PeakRssMb() {
  return static_cast<double>(soi::obs::ReadMemoryStats().high_water_bytes) /
         (1024.0 * 1024.0);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

namespace {

uint64_t Fnv(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

}  // namespace

uint64_t DigestIds(std::span<const soi::NodeId> ids) {
  return Fnv(ids.data(), ids.size_bytes(), kFnvBasis);
}

uint64_t DigestSets(const soi::FlatSets& sets) {
  uint64_t h = kFnvBasis;
  std::vector<soi::NodeId> set;
  for (size_t i = 0; i < sets.num_sets(); ++i) {
    set.clear();
    sets.AppendSetTo(i, &set);
    const uint64_t size = set.size();
    h = Fnv(&size, sizeof(size), h);
    h = Fnv(set.data(), size * sizeof(soi::NodeId), h);
  }
  return h;
}

// -- Tracer ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1 << 18);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t request_id)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  SpanRecord record;
  record.name = name;
  record.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  record.request_id = request_id;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->open_.push_back(index_);
  record.start_ns = NowNs();
  tracer_->spans_.push_back(record);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->open_.pop_back();
}

double Tracer::TotalSeconds(std::string_view name) const {
  uint64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return NsToS(ns);
}

double Tracer::SelfSeconds(std::string_view name) const {
  int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) ns += static_cast<int64_t>(s.end_ns - s.start_ns);
    if (s.parent >= 0 && name == spans_[static_cast<size_t>(s.parent)].name) {
      ns -= static_cast<int64_t>(s.end_ns - s.start_ns);
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
}

// -- Report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Record(const std::string& key, const std::string& json_value) {
  record_.push_back({key, json_value});
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 20) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
}

int Report::Print() const {
  for (const auto& [name, value] : metrics_) {
    std::printf("  %-28s %16.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::string line = "{\"run_record\": {";
  for (size_t i = 0; i < record_.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + record_[i].first + "\": " + record_[i].second;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());

  const bool correct = failed_ == 0 && attempted_ > 0;
  line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    std::snprintf(buf, sizeof(buf), "%.10g", metrics_[i].second.first);
    line += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void RecordRun(const Options& options, Report* report) {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: this build is not optimized (build type "
                 "%s); timings are not comparable to Release numbers\n",
                 PERFBENCH_BUILD_TYPE);
  }
  auto quote = [](const std::string& s) { return "\"" + s + "\""; };
  report->Record("workload", quote(options.workload));
  report->Record("seed", std::to_string(options.seed));
  report->Record("phase", quote(options.phase));
  report->Record("seconds", std::to_string(options.seconds));
  report->Record("smoke", options.smoke ? "true" : "false");
  report->Record("commit", quote(options.commit));
  report->Record("build_type", quote(PERFBENCH_BUILD_TYPE));
  report->Record("optimized", optimized ? "true" : "false");
  report->Record("compiler", quote(PERFBENCH_COMPILER));
  report->Record("nproc",
                 std::to_string(std::thread::hardware_concurrency()));
  report->Record("build_threads", std::to_string(options.build_threads));
  report->Record("spans", options.trace ? "true" : "false");
}

bool FlushToDisk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// -- Sockets ---------------------------------------------------------------

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool LineReader::NextLine(std::string_view* line) {
  while (true) {
    for (size_t i = pos_; i < len_; ++i) {
      if (buf_[i] == '\n') {
        *line = std::string_view(buf_.data() + pos_, i - pos_);
        pos_ = i + 1;
        return true;
      }
    }
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
      len_ -= pos_;
      pos_ = 0;
    }
    if (len_ == buf_.size()) return false;  // line longer than the buffer
    const ssize_t n = ::recv(fd_, buf_.data() + len_, buf_.size() - len_,
                             MSG_DONTWAIT);
    if (n > 0) {
      len_ += static_cast<size_t>(n);
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      return false;
    } else {
      // Back off briefly so the spinning client leaves the core's shared
      // resources to the server.
#if defined(__x86_64__) || defined(__i386__)
      for (int i = 0; i < 32; ++i) __builtin_ia32_pause();
#endif
    }
  }
}

bool WriteFull(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool SameResponse(std::string_view got, std::string_view want) {
  static constexpr std::string_view kField = "\"elapsed_us\":";
  auto strip = [](std::string_view s, std::string_view* head,
                  std::string_view* tail) {
    const size_t at = s.find(kField);
    if (at == std::string_view::npos) {
      *head = s;
      *tail = {};
      return;
    }
    size_t end = at + kField.size();
    while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
    *head = s.substr(0, at);
    *tail = s.substr(end);
  };
  std::string_view gh, gt, wh, wt;
  strip(got, &gh, &gt);
  strip(want, &wh, &wt);
  return gh == wh && gt == wt;
}

}  // namespace perfbench

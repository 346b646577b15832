#pragma once
// In-memory span recorder for the traced benchmark run.
//
// The benchmark times each layer from the outside, around the public
// calls it makes into the library, so the library needs no change and
// its own TraceRecorder (which has no parent or request id and compiles
// out under SCANPOWER_TELEMETRY=OFF) is not involved. A span is (name,
// start, end, parent span, request id); spans stay in memory and are
// written as JSON lines when the run ends. A disabled recorder records
// nothing, so the untimed and timed paths share one code path.
//
// Single-threaded: the traced replays call into the library one request
// at a time, and the parent of a new span is the innermost open one.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// CPU time used so far by every thread of this process, in ms. Under a
/// hypervisor that accounts steal time (KVM), time the host takes a vCPU
/// away is not counted, so on a shared host this measures the work and
/// not the neighbours' load, as wall time does.
inline double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Opens a span under the innermost open one and returns its id (-1
  /// when disabled). A request id of -1 inherits the parent's.
  int begin(const char* name, std::int64_t request = -1) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (request < 0 && parent >= 0) request = spans_[parent].request;
    spans_.push_back({name, now_ns(), -1, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[id].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// One JSON object per line: name, start/end (ns since the recorder was
  /// made), parent index (-1 = root) and request id (-1 = none).
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t request;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on scope exit.
class Span {
 public:
  Span(SpanRecorder& rec, const char* name, std::int64_t request = -1)
      : rec_(rec), id_(rec.begin(name, request)) {}
  ~Span() { rec_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench

#pragma once

// In-memory span recorder for the traced run. Spans are opened and closed
// around calls into the program's public entry points; nothing is written
// until the run ends. Self time is a span's duration minus the part of its
// interval its children cover.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace framebench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;     ///< index into the recorder, -1 = root
  std::int64_t frame = -1;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) { spans_.reserve(1 << 14); }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Open a span; returns its id. Thread-safe (a rank thread may open the
  /// driver span while the main thread holds the world span open).
  int open(std::string name, int parent, std::int64_t frame) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), t, t, parent, frame});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start, end, parent, frame.
  void write_jsonl(std::ostream& out) const {
    out.precision(12);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"parent\":" << s.parent << ",\"frame\":" << s.frame << "}\n";
    }
  }

 private:
  Clock::time_point epoch_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. Closing happens at scope exit, also on exceptions.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int parent,
             std::int64_t frame)
      : rec_(rec), id_(rec.open(std::move(name), parent, frame)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
inline double covered_length(std::vector<std::pair<double, double>> intervals,
                             double lo, double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = -1.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) {
      continue;
    }
    if (!open || a > run_end) {
      if (open) {
        covered += run_end - run_start;
      }
      run_start = a;
      run_end = b;
      open = true;
    } else {
      run_end = std::max(run_end, b);
    }
  }
  if (open) {
    covered += run_end - run_start;
  }
  return covered;
}

/// Self time of every span: duration minus the union its children cover.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].end - spans[i].start;
    self[i] = dur - covered_length(children[i], spans[i].start, spans[i].end);
  }
  return self;
}

/// Sum of self times per (frame, span name).
inline std::map<std::int64_t, std::map<std::string, double>> self_by_frame(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::int64_t, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].frame][spans[i].name] += self[i];
  }
  return out;
}

}  // namespace framebench

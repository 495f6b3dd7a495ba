#pragma once

// The benchmark's own arithmetic: medians, tail-percentile selection,
// per-cycle counter deltas and closed-loop timing. Header-only so the
// self-test links nothing else.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace framebench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle half (the samples between the quartiles, by rank).
/// Unlike the median it moves smoothly when a sample mixes two modes — a
/// cold cycle either does or does not pay some start-up cost — and unlike
/// the mean it ignores one-off outliers.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(hi - lo);
}

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// The tail a run can support: the highest percentile that still has at
/// least `min_beyond` samples beyond it, i.e. the (min_beyond + 1)-th
/// largest sample, reported with its percentile 100 · (n − min_beyond) / n.
struct TailPick {
  double percentile = 0.0;  ///< 0 when the sample is too small
  double value = 0.0;
  std::size_t samples = 0;  ///< total sample count
  std::size_t beyond = 0;   ///< samples ranked after the reported one
  std::size_t blocks = 1;   ///< blocks whose tails the value is the median of
};

inline TailPick tail_percentile(std::vector<double> samples,
                                std::size_t min_beyond = 10) {
  TailPick pick;
  const std::size_t n = samples.size();
  pick.samples = n;
  if (n <= min_beyond) {
    return pick;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = n - min_beyond;  // 1-based
  pick.value = samples[rank - 1];
  pick.beyond = min_beyond;
  pick.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return pick;
}

/// The same tail taken per block of `block` consecutive samples, and the
/// median over the whole blocks (a trailing partial block is left out); a
/// sample shorter than two blocks gives the plain tail of all of it. Host
/// contention comes in bursts of a few seconds: one burst sets the 11th
/// largest of a whole run, but only one block's tail here.
inline TailPick blocked_tail(const std::vector<double>& samples,
                             std::size_t block, std::size_t min_beyond = 10) {
  const std::size_t whole = block > 0 ? samples.size() / block : 0;
  if (whole < 2) {
    return tail_percentile(samples, min_beyond);
  }
  std::vector<double> tails;
  TailPick pick;
  for (std::size_t b = 0; b < whole; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * block);
    pick = tail_percentile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(block)),
        min_beyond);
    tails.push_back(pick.value);
  }
  pick.value = median(tails);
  pick.samples = whole * block;
  pick.blocks = whole;
  return pick;
}

/// Snapshot of named monotone counters (program-reported totals).
using CounterMap = std::map<std::string, double>;

/// Per-cycle delta of the sum of `names` between two snapshots. Missing
/// names count as 0 (a counter is registered on first use).
inline double counter_delta(const CounterMap& before, const CounterMap& after,
                            const std::vector<std::string>& names) {
  double total = 0.0;
  for (const std::string& name : names) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    total += (a == after.end() ? 0.0 : a->second) -
             (b == before.end() ? 0.0 : b->second);
  }
  return total;
}

/// Mean over the first `count` entries (all when fewer are present).
inline double mean_of_first(const std::vector<double>& v, std::size_t count) {
  const std::size_t n = std::min(count, v.size());
  if (n == 0) {
    return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(n);
}

/// Outcome of a closed loop: one wall time per completed iteration, and the
/// loop's own wall time (iteration walls plus the loop's bookkeeping).
struct ClosedLoop {
  std::vector<double> cycle_seconds;
  double wall_seconds = 0.0;

  /// Iterations completed per second of loop wall time.
  [[nodiscard]] double rate() const {
    return wall_seconds > 0.0
               ? static_cast<double>(cycle_seconds.size()) / wall_seconds
               : 0.0;
  }
};

/// Run `cycle(i)` back to back — iteration i+1 starts only when iteration i
/// has returned — until `budget_seconds` of wall time have passed and at
/// least `min_cycles` iterations completed, or `max_cycles` ran. `cycle`
/// returns the seconds it wants excluded from the loop wall (work done
/// between frames that is not part of the measured system, such as an
/// output check); those seconds still count towards the budget.
template <class Clock = std::chrono::steady_clock>
ClosedLoop run_closed_loop(double budget_seconds, std::size_t min_cycles,
                           std::size_t max_cycles,
                           const std::function<double(std::size_t)>& cycle) {
  ClosedLoop loop;
  double excluded = 0.0;
  const auto start = Clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (std::size_t i = 0; i < max_cycles; ++i) {
    if (i >= min_cycles && elapsed() >= budget_seconds) {
      break;
    }
    const auto t0 = Clock::now();
    const double skip = cycle(i);
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    loop.cycle_seconds.push_back(wall - skip);
    excluded += skip;
  }
  loop.wall_seconds = elapsed() - excluded;
  return loop;
}

}  // namespace framebench

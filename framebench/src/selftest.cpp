// Self-test of the benchmark's own arithmetic: tail-percentile selection,
// per-cycle counter deltas, closed-loop timing and span self times. Exits
// non-zero when any expectation fails.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

/// A clock the test advances by hand, so closed-loop timing is exact.
struct FakeClock {
  using rep = long long;
  using period = std::nano;
  using duration = std::chrono::duration<rep, period>;
  using time_point = std::chrono::time_point<FakeClock>;
  static constexpr bool is_steady = true;
  static inline rep now_ns = 0;
  static time_point now() { return time_point(duration(now_ns)); }
  static void advance(double seconds) {
    now_ns += static_cast<rep>(std::llround(seconds * 1e9));
  }
};

void test_tail_percentile() {
  using framebench::tail_percentile;
  // 1..100 (unsorted input): the 11th largest is 90, i.e. p90, with
  // exactly 10 samples beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  const framebench::TailPick a = tail_percentile(hundred);
  expect(near(a.percentile, 90.0) && near(a.value, 90.0),
         "100 samples pick p90 = 90");
  expect(a.beyond == 10 && a.samples == 100, "p90 leaves 10 beyond");

  // 1000 samples: p99 = 990.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(i);
  }
  const framebench::TailPick b = tail_percentile(thousand);
  expect(near(b.percentile, 99.0) && near(b.value, 990.0) && b.beyond == 10,
         "1000 samples pick p99 = 990");

  // 40 samples: rank 30 of 40, p75.
  std::vector<double> forty;
  for (int i = 0; i < 40; ++i) {
    forty.push_back(i);
  }
  const framebench::TailPick c = tail_percentile(forty);
  expect(near(c.percentile, 75.0) && near(c.value, 29.0),
         "40 samples pick p75");

  // 11 samples: the minimum (rank 1) still has 10 beyond; 10 samples
  // support no percentile at all.
  forty.resize(11);
  const framebench::TailPick d = tail_percentile(forty);
  expect(near(d.value, 0.0) && d.beyond == 10, "11 samples pick the minimum");
  forty.resize(10);
  expect(near(tail_percentile(forty).percentile, 0.0),
         "10 samples support no percentile");
  expect(near(tail_percentile({}).percentile, 0.0), "empty sample");

  // Blocks of 110: each block's tail is its 11th largest (p90.9); the
  // median over blocks ignores one block full of hiccups.
  std::vector<double> runs;
  for (int blk = 0; blk < 3; ++blk) {
    for (int i = 0; i < 110; ++i) {
      runs.push_back(blk == 1 ? 1000.0 + i : i);  // block 1: all slow
    }
  }
  runs.push_back(5000.0);  // a partial block is left out
  const framebench::TailPick e = framebench::blocked_tail(runs, 110);
  expect(e.blocks == 3 && e.samples == 330, "three whole blocks");
  expect(near(e.value, 99.0), "median of block tails 99, 1099, 99");
  expect(near(e.percentile, 100.0 * 100.0 / 110.0), "block percentile");
  // Fewer than two whole blocks: the plain tail of all samples.
  const framebench::TailPick f = framebench::blocked_tail(hundred, 110);
  expect(f.blocks == 1 && near(f.value, 90.0), "short sample is one block");
}

void test_counter_delta() {
  using framebench::counter_delta;
  const framebench::CounterMap before = {{"a", 10}, {"b", 5}};
  const framebench::CounterMap after = {{"a", 25}, {"b", 5}, {"c", 7}};
  expect(near(counter_delta(before, after, {"a"}), 15.0), "single delta");
  expect(near(counter_delta(before, after, {"a", "b", "c"}), 22.0),
         "summed delta, counter registered mid-run counts from 0");
  expect(near(counter_delta(before, after, {"missing"}), 0.0),
         "absent counter contributes 0");
  expect(near(framebench::mean_of_first({4, 6, 100}, 2), 5.0),
         "mean over the fixed window ignores later cycles");
  expect(near(framebench::mean_of_first({4}, 5), 4.0),
         "short window averages what exists");
  expect(near(framebench::median({3, 1, 2}), 2.0), "odd median");
  expect(near(framebench::median({4, 1, 2, 3}), 2.5), "even median");
  expect(near(framebench::interquartile_mean({100, 1, 2, 3, 4, 5, 6, -50}),
              3.5),
         "interquartile mean drops the outer quarters");
  expect(near(framebench::interquartile_mean({7}), 7.0), "single sample");
}

void test_closed_loop() {
  // Cycle i takes 0.1·(i+1) s and spends 0.05 s on excluded checks. With a
  // 1 s budget the loop starts cycle i only while elapsed < 1 s.
  FakeClock::now_ns = 0;
  std::vector<std::size_t> started;
  const framebench::ClosedLoop loop = framebench::run_closed_loop<FakeClock>(
      1.0, 2, 100, [&](std::size_t i) {
        started.push_back(i);
        FakeClock::advance(0.1 * static_cast<double>(i + 1));
        FakeClock::advance(0.05);
        return 0.05;
      });
  // Elapsed after cycles 0..3: 0.15+0.25+0.35+0.45 = 1.2 s ≥ 1 s → stop.
  expect(loop.cycle_seconds.size() == 4, "loop stops once the budget is spent");
  expect(started.size() == 4 && started.back() == 3,
         "each cycle starts only after the previous returned");
  expect(near(loop.cycle_seconds[0], 0.1) && near(loop.cycle_seconds[3], 0.4),
         "cycle walls exclude the checks");
  expect(near(loop.wall_seconds, 1.0), "loop wall excludes the checks");
  expect(near(loop.rate(), 4.0), "cycles per second of loop wall");

  // The minimum cycle count overrides an exhausted budget.
  FakeClock::now_ns = 0;
  const framebench::ClosedLoop slow = framebench::run_closed_loop<FakeClock>(
      0.5, 3, 100, [](std::size_t) {
        FakeClock::advance(1.0);
        return 0.0;
      });
  expect(slow.cycle_seconds.size() == 3, "minimum cycle count honoured");
}

void test_self_times() {
  using framebench::Span;
  // frame [0,10] with children a [1,3], b [2,6] (overlapping), c [8,9];
  // a has a child [1,2].
  const std::vector<Span> spans = {
      {"frame", 0, 10, -1, 0}, {"a", 1, 3, 0, 0}, {"b", 2, 6, 0, 0},
      {"c", 8, 9, 0, 0},       {"a.child", 1, 2, 1, 0}};
  const std::vector<double> self = framebench::self_times(spans);
  expect(near(self[0], 10.0 - 5.0 - 1.0), "frame self = wall - union");
  expect(near(self[1], 1.0), "a self");
  expect(near(self[4], 1.0), "leaf self = duration");
  const auto by_frame = framebench::self_by_frame(spans);
  double total = 0.0;
  for (const auto& [name, v] : by_frame.at(0)) {
    total += v;
  }
  // The overlap [2,3] of a and b is counted in both, so the sum exceeds
  // the wall by exactly that overlap; disjoint children reconcile exactly.
  expect(near(total, 11.0), "self times sum to wall plus sibling overlap");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_counter_delta();
  test_closed_loop();
  test_self_times();
  if (failures == 0) {
    std::printf("framebench selftest: ok\n");
    return EXIT_SUCCESS;
  }
  return EXIT_FAILURE;
}

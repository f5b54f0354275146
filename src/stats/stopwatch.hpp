#pragma once
// Wall-clock stopwatch, accumulating phase timers and the per-thread
// context-switch meter.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>

namespace reptile::stats {

/// Simple wall-clock stopwatch. Pinned to a monotonic clock: the durations
/// feed the per-rank timing report and the obs stage histograms, which both
/// assume elapsed time never goes backwards (a system_clock NTP step would
/// produce negative stage seconds).
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  static_assert(clock::is_steady,
                "Stopwatch must use a monotonic clock: durations feed "
                "reports/histograms that reject negative time");
  clock::time_point start_;
};

/// Accumulates time across many start/stop intervals (e.g. total time a
/// worker thread spent blocked on remote lookups).
class Accumulator {
 public:
  void start() { start_ = clock::now(); }
  void stop() {
    total_ += std::chrono::duration<double>(clock::now() - start_).count();
  }
  double seconds() const noexcept { return total_; }
  void reset() noexcept { total_ = 0; }

 private:
  using clock = std::chrono::steady_clock;
  static_assert(clock::is_steady,
                "Accumulator must use a monotonic clock (see Stopwatch)");
  clock::time_point start_{};
  double total_ = 0;
};

/// Context switches of the calling thread since construction, from
/// getrusage(RUSAGE_THREAD): voluntary ones (the thread blocked and gave up
/// its CPU) and involuntary ones (the scheduler preempted it). This is the
/// kernel's bill for a thread's waits. Its CPU-time fields are not used:
/// they undercount on virtualized hosts. Construct and read it on the same
/// thread; counts are 0 where RUSAGE_THREAD does not exist.
class SwitchMeter {
 public:
  SwitchMeter() { sample(voluntary_, involuntary_); }

  /// Adds the switches since construction to the two counters.
  void add_to(std::uint64_t& voluntary, std::uint64_t& involuntary) const {
    std::uint64_t v = 0;
    std::uint64_t iv = 0;
    sample(v, iv);
    voluntary += v - voluntary_;
    involuntary += iv - involuntary_;
  }

 private:
  static void sample(std::uint64_t& voluntary, std::uint64_t& involuntary) {
#ifdef RUSAGE_THREAD
    rusage usage{};
    if (getrusage(RUSAGE_THREAD, &usage) == 0) {
      voluntary = static_cast<std::uint64_t>(usage.ru_nvcsw);
      involuntary = static_cast<std::uint64_t>(usage.ru_nivcsw);
      return;
    }
#endif
    voluntary = 0;
    involuntary = 0;
  }

  std::uint64_t voluntary_ = 0;
  std::uint64_t involuntary_ = 0;
};

}  // namespace reptile::stats

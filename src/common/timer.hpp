#pragma once

#include <chrono>

#include "common/check.hpp"

namespace hisim {

/// Monotonic wall-clock timer used by the benchmark harness and the
/// per-phase accounting in hisim::Result.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates time across disjoint intervals (e.g. total gather time over
/// all parts of a run). start()/stop() must alternate — an unbalanced call
/// would silently misattribute time (double start loses the first interval,
/// stop without start used to add a stale one), so checked builds abort on
/// either misuse.
class Stopwatch {
 public:
  void start() {
    HISIM_DCHECK_MSG(!running_, "Stopwatch::start() while already running");
    timer_.reset();
    running_ = true;
  }
  void stop() {
    HISIM_DCHECK_MSG(running_, "Stopwatch::stop() without a matching start()");
    if (running_) total_ += timer_.seconds();
    running_ = false;
  }
  double seconds() const { return total_; }
  void clear() { total_ = 0.0; running_ = false; }

 private:
  Timer timer_;
  double total_ = 0.0;
  bool running_ = false;
};

}  // namespace hisim

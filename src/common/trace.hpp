#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"

/// Structured tracing and metrics — the observability layer every
/// subsystem reports through (see docs/ARCHITECTURE.md, "Observability").
///
/// Two independent facilities share this header:
///
///   Spans    RAII TraceSpan objects record named, categorized duration
///            events into per-thread bounded event buffers ("rings"),
///            merged serially at export into Chrome trace / Perfetto
///            JSON ({"traceEvents": [...]}, ph:"X" complete events with
///            pid/tid, plus ph:"C" counter samples). Span collection is
///            OFF by default and costs one relaxed atomic load per
///            instrumentation site while disabled — hot loops may carry
///            spans without a guard. Enable via TraceSession::start()
///            (Options::trace and the CLI --trace flag do this for you)
///            or the HISIM_TRACE environment variable.
///
///   Metrics  A MetricsRegistry of named monotonic counters and value
///            distributions (count/min/max/sum -> mean). Metrics are
///            always on: counters are one relaxed fetch_add, and the
///            per-phase numbers they carry feed Result::to_json's
///            "metrics" object on every target, traced or not.
///
/// Naming convention: `module.noun` for metrics ("exchange.bytes",
/// "partition.refine_passes", "pool.tasks"); span names are short phase
/// words ("partition", "apply", "exchange.wait") with the owning
/// subsystem as the category.
///
/// Concurrency contract: event emission is safe from any thread (each
/// thread owns its ring; exiting threads return rings to a free list
/// under the collector mutex, and every event carries its thread id so
/// reuse cannot misattribute). start(), stop(), clear(), and the export
/// functions must be called while no traced work is in flight — the
/// fork-join barrier at the end of every parallel region (and the
/// task_group joins inside the exchange handles) provides exactly that
/// quiescence at the engine's call sites.
namespace hisim::trace {

// ---------------------------------------------------------------------------
// Metrics

/// Monotonic counter. add() is one relaxed fetch_add — safe and cheap
/// from any thread, including pool workers and exchange movers.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Value distribution: count, min, max, sum (mean derived). record()
/// takes the internal lock — intended for per-part/per-step/per-exchange
/// granularity, not per-amplitude loops.
class Distribution {
 public:
  void record(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };
  Snapshot snapshot() const;

 private:
  mutable Mutex mu_;
  Snapshot s_ HISIM_GUARDED_BY(mu_);
};

/// Registry of named counters and distributions. counter() /
/// distribution() find-or-create under the registry lock and return a
/// stable reference (std::map nodes never move), so call sites cache the
/// reference and pay only the counter's own relaxed add afterwards.
///
/// Two usage patterns:
///   - MetricsRegistry::global(): process-wide totals ("pool.tasks",
///     "partition.refine_passes") exported with the trace.
///   - A run-local registry on an execute's stack: per-run phase numbers
///     (dist::execute_plan's steps) that concurrent executes must not
///     cross-pollute; flattened into Result::metrics when the run ends.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Distribution& distribution(const std::string& name);

  /// Flat name -> value view: counters as `name`, distributions expanded
  /// to `name.count` / `name.min` / `name.max` / `name.sum` /
  /// `name.mean`. Zero-count distributions are omitted.
  std::map<std::string, double> flat() const;

  /// The flat() view as a JSON object (stable key order).
  std::string to_json() const;

  /// The process-wide registry.
  static MetricsRegistry& global();

 private:
  mutable Mutex mu_;
  // node-based maps: references handed out by counter()/distribution()
  // stay valid for the registry's lifetime.
  std::map<std::string, Counter> counters_ HISIM_GUARDED_BY(mu_);
  std::map<std::string, Distribution> dists_ HISIM_GUARDED_BY(mu_);
};

/// Serializes an already-flattened metrics map as a JSON object — the
/// shared emitter for Result::to_json and the trace file. Values print
/// with 17 significant digits, so counts and byte totals stay exact and
/// every value parses back to the same double.
std::string metrics_to_json(const std::map<std::string, double>& flat);

// ---------------------------------------------------------------------------
// Spans

/// True while a trace session is collecting. One relaxed atomic load —
/// this is the whole disabled-mode cost of a TraceSpan.
bool enabled();

/// Interns a runtime string (e.g. an optimization pass name) into
/// storage that outlives every event referencing it, returning a stable
/// pointer. Span/counter-sample names passed as plain `const char*` must
/// be string literals; intern anything dynamic.
const char* intern(const std::string& name);

/// RAII duration span: records one ph:"X" complete event from
/// construction to destruction when tracing is enabled, nothing
/// otherwise. `name` and `category` must outlive the session (string
/// literals, or intern()).
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches one integer argument (step index, rank, gate count) shown
  /// under the event in the trace viewer. `key` must be a literal.
  void arg(const char* key, std::int64_t value) {
    arg_key_ = key;
    arg_ = value;
  }

 private:
  bool active_;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  const char* arg_key_ = nullptr;
  std::int64_t arg_ = 0;
  std::uint64_t begin_ns_ = 0;
};

/// Records one ph:"C" counter sample (a counter track in Perfetto) when
/// tracing is enabled. `name` must be a literal or interned.
void counter_sample(const char* name, double value);

// ---------------------------------------------------------------------------
// Session

/// Handle over the process-global span collector. Spans from every
/// thread land in one event pool; start()/stop() bracket a collection
/// window and the export functions serialize it.
class TraceSession {
 public:
  /// Discards previously collected events and begins collecting.
  static void start();
  /// Stops collecting (already-constructed spans still complete).
  static void stop();
  /// True while collecting — same value as trace::enabled().
  static bool active();

  /// Number of events collected so far (merged over every ring).
  static std::size_t event_count();
  /// Events that were dropped because a thread's ring filled up.
  static std::size_t dropped_count();

  /// The collected events plus the global metrics registry as one
  /// Chrome-trace JSON document:
  ///   {"traceEvents": [...], "displayTimeUnit": "ms", "metrics": {...}}
  /// Loads in Perfetto / chrome://tracing (unknown top-level keys are
  /// ignored there; tools/trace_summary.py reads both blocks).
  static std::string chrome_json();

  /// Writes chrome_json() to `path`; throws hisim::Error naming the path
  /// when it cannot be opened or fully written.
  static void write(const std::string& path);

  /// Discards every collected event (rings stay allocated).
  static void clear();
};

}  // namespace hisim::trace

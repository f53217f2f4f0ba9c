#include "common/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace hisim::trace {
namespace {

/// The whole disabled-mode cost of a span: this one relaxed load.
std::atomic<bool> g_enabled{false};

/// One trace event: a completed span (ph:"X") or a counter sample
/// (ph:"C"). Names are pointers into static storage (literals or the
/// intern table), so events are POD and rings never allocate on emit.
struct Event {
  enum class Kind : std::uint8_t { Span, Counter };
  const char* name = nullptr;
  const char* category = nullptr;
  const char* arg_key = nullptr;  // Span only; nullptr = no arg
  std::int64_t arg = 0;
  std::uint64_t t0_ns = 0;   // since the collector's base clock
  std::uint64_t dur_ns = 0;  // Span only
  double value = 0.0;        // Counter only
  std::uint32_t tid = 0;
  Kind kind = Kind::Span;
};

/// Bounded single-writer event buffer. The owning thread appends and
/// publishes with a release store of the size; readers (export/merge,
/// only while collection is quiescent) acquire-load the size first —
/// that pairing is the whole synchronization story, no lock on the emit
/// path. Full ring = drop the new event and count it (never overwrite:
/// the earliest events carry the session structure).
class EventRing {
 public:
  static constexpr std::size_t kCapacity = 1u << 14;  // events per thread

  EventRing() : buf_(kCapacity) {}

  void push(const Event& e, std::atomic<std::uint64_t>& dropped) {
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    if (n >= kCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buf_[n] = e;
    size_.store(n + 1, std::memory_order_release);
  }

  std::uint32_t size() const {
    return size_.load(std::memory_order_acquire);
  }
  const Event& at(std::uint32_t i) const { return buf_[i]; }
  void clear() { size_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<Event> buf_;
  std::atomic<std::uint32_t> size_{0};
};

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Owns every ring ever created. Rings are never destroyed while the
/// process runs (a dangling thread_local pointer must be impossible);
/// exiting threads return theirs to the free list for the next thread —
/// events survive the handoff, and per-event tids keep them attributed
/// to the thread that emitted them.
class Collector {
 public:
  Collector() : base_(std::chrono::steady_clock::now()) {}

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - base_)
            .count());
  }

  EventRing* acquire_ring() {
    MutexLock lk(mu_);
    if (!free_.empty()) {
      EventRing* r = free_.back();
      free_.pop_back();
      return r;
    }
    rings_.push_back(std::make_unique<EventRing>());
    return rings_.back().get();
  }

  void release_ring(EventRing* r) {
    MutexLock lk(mu_);
    free_.push_back(r);
  }

  /// Visits every collected event. Caller guarantees quiescence (no
  /// traced work in flight) — the contract documented on TraceSession.
  template <typename Fn>
  void for_each_event(Fn&& fn) const {
    MutexLock lk(mu_);
    for (const auto& ring : rings_) {
      const std::uint32_t n = ring->size();
      for (std::uint32_t i = 0; i < n; ++i) fn(ring->at(i));
    }
  }

  std::size_t event_count() const {
    std::size_t n = 0;
    MutexLock lk(mu_);
    for (const auto& ring : rings_) n += ring->size();
    return n;
  }

  void clear() {
    MutexLock lk(mu_);
    for (const auto& ring : rings_) ring->clear();
    dropped_.store(0, std::memory_order_relaxed);
  }

  const char* intern(const std::string& name) {
    MutexLock lk(mu_);
    return interned_.insert(name).first->c_str();
  }

  std::atomic<std::uint64_t>& dropped() { return dropped_; }
  std::size_t dropped_count() const {
    return static_cast<std::size_t>(
        dropped_.load(std::memory_order_relaxed));
  }

 private:
  const std::chrono::steady_clock::time_point base_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<EventRing>> rings_ HISIM_GUARDED_BY(mu_);
  std::vector<EventRing*> free_ HISIM_GUARDED_BY(mu_);
  std::set<std::string> interned_ HISIM_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> dropped_{0};
};

/// Leaked on purpose: thread_local ring handles release into the
/// collector from thread-exit destructors whose order against static
/// destruction is unspecified — a collector that never dies makes that
/// path unconditionally safe.
Collector& collector() {
  static Collector* c = new Collector;
  return *c;
}

/// Per-thread ring handle; the destructor hands the ring back when the
/// thread exits (task_group workers come and go per exchange).
struct ThreadRing {
  EventRing* ring = nullptr;
  ~ThreadRing() {
    if (ring) collector().release_ring(ring);
  }
};

void push_event(Event e) {
  thread_local ThreadRing tl;
  if (!tl.ring) tl.ring = collector().acquire_ring();
  e.tid = thread_id();
  tl.ring->push(e, collector().dropped());
}

void json_escaped(std::ostringstream& os, const char* s) {
  os << '"';
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
  os << '"';
}

/// HISIM_TRACE autostart: a non-empty value enables collection from
/// process start; any value other than "1" is also an output path
/// written at exit (the CLI's --trace flag is the explicit spelling).
const bool g_env_autostart = [] {
  // getenv is safe here despite concurrency-mt-unsafe's blanket rule:
  // this initializer runs once during static init, before main and
  // before any worker thread exists.
  const char* env = std::getenv("HISIM_TRACE");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr || *env == '\0') return false;
  TraceSession::start();
  static const std::string path = env;
  if (path != "1") {
    std::atexit([] {
      TraceSession::stop();
      try {
        TraceSession::write(path);
      } catch (const Error& e) {
        std::fprintf(stderr, "HISIM_TRACE: %s\n", e.what());
      }
    });
  }
  return true;
}();

}  // namespace

// ---------------------------------------------------------------------------
// Metrics

void Distribution::record(double v) {
  MutexLock lk(mu_);
  if (s_.count == 0) {
    s_.min = s_.max = v;
  } else {
    if (v < s_.min) s_.min = v;
    if (v > s_.max) s_.max = v;
  }
  s_.sum += v;
  ++s_.count;
}

Distribution::Snapshot Distribution::snapshot() const {
  MutexLock lk(mu_);
  return s_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lk(mu_);
  return counters_[name];
}

Distribution& MetricsRegistry::distribution(const std::string& name) {
  MutexLock lk(mu_);
  return dists_[name];
}

std::map<std::string, double> MetricsRegistry::flat() const {
  std::map<std::string, double> out;
  MutexLock lk(mu_);
  for (const auto& [name, c] : counters_)
    out[name] = static_cast<double>(c.value());
  for (const auto& [name, d] : dists_) {
    const Distribution::Snapshot s = d.snapshot();
    if (s.count == 0) continue;
    out[name + ".count"] = static_cast<double>(s.count);
    out[name + ".min"] = s.min;
    out[name + ".max"] = s.max;
    out[name + ".sum"] = s.sum;
    out[name + ".mean"] = s.mean();
  }
  return out;
}

std::string MetricsRegistry::to_json() const { return metrics_to_json(flat()); }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry;  // leaked, like Collector
  return *r;
}

std::string metrics_to_json(const std::map<std::string, double>& flat) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, value] : flat) {
    if (!first) os << ", ";
    first = false;
    json_escaped(os, name.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os << ": " << buf;
  }
  os << '}';
  return os.str();
}

// ---------------------------------------------------------------------------
// Spans

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

const char* intern(const std::string& name) {
  return collector().intern(name);
}

TraceSpan::TraceSpan(const char* name, const char* category)
    : active_(enabled()) {
  if (!active_) return;
  name_ = name;
  category_ = category;
  begin_ns_ = collector().now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  Event e;
  e.kind = Event::Kind::Span;
  e.name = name_;
  e.category = category_;
  e.arg_key = arg_key_;
  e.arg = arg_;
  e.t0_ns = begin_ns_;
  e.dur_ns = collector().now_ns() - begin_ns_;
  push_event(e);
}

void counter_sample(const char* name, double value) {
  if (!enabled()) return;
  Event e;
  e.kind = Event::Kind::Counter;
  e.name = name;
  e.t0_ns = collector().now_ns();
  e.value = value;
  push_event(e);
}

// ---------------------------------------------------------------------------
// Session

void TraceSession::start() {
  collector().clear();
  g_enabled.store(true, std::memory_order_relaxed);
}

void TraceSession::stop() {
  g_enabled.store(false, std::memory_order_relaxed);
}

bool TraceSession::active() { return enabled(); }

std::size_t TraceSession::event_count() { return collector().event_count(); }

std::size_t TraceSession::dropped_count() {
  return collector().dropped_count();
}

void TraceSession::clear() { collector().clear(); }

std::string TraceSession::chrome_json() {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  bool first = true;
  collector().for_each_event([&](const Event& e) {
    os << (first ? "\n" : ",\n");
    first = false;
    char buf[64];
    if (e.kind == Event::Kind::Span) {
      os << "{\"name\": ";
      json_escaped(os, e.name);
      os << ", \"cat\": ";
      json_escaped(os, e.category != nullptr ? e.category : "default");
      // Chrome trace timestamps are microseconds; fractional digits keep
      // the nanosecond resolution.
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(e.t0_ns) * 1e-3);
      os << ", \"ph\": \"X\", \"ts\": " << buf;
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(e.dur_ns) * 1e-3);
      os << ", \"dur\": " << buf;
      os << ", \"pid\": 1, \"tid\": " << e.tid;
      if (e.arg_key != nullptr) {
        os << ", \"args\": {";
        json_escaped(os, e.arg_key);
        os << ": " << e.arg << '}';
      }
      os << '}';
    } else {
      os << "{\"name\": ";
      json_escaped(os, e.name);
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(e.t0_ns) * 1e-3);
      os << ", \"ph\": \"C\", \"ts\": " << buf;
      os << ", \"pid\": 1, \"tid\": " << e.tid;
      std::snprintf(buf, sizeof buf, "%.17g", e.value);  // exact counts
      os << ", \"args\": {\"value\": " << buf << "}}";
    }
  });
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"metrics\": "
     << MetricsRegistry::global().to_json() << "\n}\n";
  return os.str();
}

void TraceSession::write(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw Error("cannot open trace output '" + path + "' for writing");
  out << chrome_json();
  out.flush();
  if (!out)
    throw Error("failed writing trace output '" + path + "'");
}

}  // namespace hisim::trace

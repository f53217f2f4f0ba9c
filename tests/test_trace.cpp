#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "hisvsim/engine.hpp"

// Source tree root, injected by CMake so the export round-trip test can
// find tools/trace_summary.py regardless of the build directory.
#ifndef HISIM_SOURCE_DIR
#define HISIM_SOURCE_DIR "."
#endif

namespace hisim {
namespace {

using trace::Distribution;
using trace::MetricsRegistry;
using trace::TraceSession;
using trace::TraceSpan;

/// Every test that starts a session must leave tracing disabled and the
/// event pool empty, or it would leak events into later tests.
struct SessionGuard {
  ~SessionGuard() {
    TraceSession::stop();
    TraceSession::clear();
  }
};

TEST(Metrics, CounterMath) {
  MetricsRegistry reg;
  trace::Counter& c = reg.counter("exchange.count");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name, same counter; new name, fresh counter.
  EXPECT_EQ(reg.counter("exchange.count").value(), 42u);
  EXPECT_EQ(reg.counter("exchange.bytes").value(), 0u);
}

TEST(Metrics, DistributionMath) {
  MetricsRegistry reg;
  Distribution& d = reg.distribution("step.wall_seconds");
  EXPECT_EQ(d.snapshot().count, 0u);
  EXPECT_EQ(d.snapshot().mean(), 0.0);
  d.record(2.0);
  d.record(-1.0);
  d.record(5.0);
  const Distribution::Snapshot s = d.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, -1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.sum, 6.0);
  EXPECT_EQ(s.mean(), 2.0);
}

TEST(Metrics, FlatNamingAndEmptyDistributionOmission) {
  MetricsRegistry reg;
  reg.counter("pool.tasks").add(7);
  // A count past 10^9 (a 20-qubit run's outer traffic) prints exactly.
  reg.counter("sv.outer_bytes_moved").add(1543503872);
  reg.distribution("apply.seconds").record(0.5);
  reg.distribution("never.recorded");  // zero-count: must not appear
  const std::map<std::string, double> flat = reg.flat();
  EXPECT_EQ(flat.at("pool.tasks"), 7.0);
  EXPECT_EQ(flat.at("apply.seconds.count"), 1.0);
  EXPECT_EQ(flat.at("apply.seconds.min"), 0.5);
  EXPECT_EQ(flat.at("apply.seconds.max"), 0.5);
  EXPECT_EQ(flat.at("apply.seconds.sum"), 0.5);
  EXPECT_EQ(flat.at("apply.seconds.mean"), 0.5);
  EXPECT_EQ(flat.count("never.recorded.count"), 0u);
  const std::string json = trace::metrics_to_json(flat);
  EXPECT_NE(json.find("\"pool.tasks\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"sv.outer_bytes_moved\": 1543503872"),
            std::string::npos)
      << json;
}

TEST(Trace, DisabledModeCollectsNothing) {
  SessionGuard guard;
  TraceSession::stop();
  TraceSession::clear();
  ASSERT_FALSE(TraceSession::active());
  {
    TraceSpan span("ghost", "test");
    span.arg("x", 1);
    trace::counter_sample("ghost.counter", 1.0);
  }
  EXPECT_EQ(TraceSession::event_count(), 0u);
  EXPECT_EQ(TraceSession::dropped_count(), 0u);
}

TEST(Trace, NestedSpansCompleteInnerFirst) {
  SessionGuard guard;
  TraceSession::start();
  {
    TraceSpan outer("outer", "test");
    {
      TraceSpan inner("inner", "test");
      inner.arg("idx", 3);
    }
  }
  TraceSession::stop();
  EXPECT_EQ(TraceSession::event_count(), 2u);
  const std::string json = TraceSession::chrome_json();
  const std::size_t inner_pos = json.find("\"name\": \"inner\"");
  const std::size_t outer_pos = json.find("\"name\": \"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  // Spans are recorded at completion, so the inner span lands first in
  // its thread's ring and the export preserves that order.
  EXPECT_LT(inner_pos, outer_pos);
  EXPECT_NE(json.find("\"cat\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"idx\": 3}"), std::string::npos);
}

TEST(Trace, CounterSampleEmitsCounterEvent) {
  SessionGuard guard;
  TraceSession::start();
  trace::counter_sample("exchange.bytes", 42.5);
  TraceSession::stop();
  const std::string json = TraceSession::chrome_json();
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 42.5}"), std::string::npos);
}

TEST(Trace, InternedNamesOutliveTheirSource) {
  SessionGuard guard;
  TraceSession::start();
  {
    std::string dynamic = "pass.fuse_adjacent";
    const char* stable = trace::intern(dynamic);
    dynamic.clear();  // the interned copy must be independent
    TraceSpan span(stable, "opt");
  }
  TraceSession::stop();
  EXPECT_NE(TraceSession::chrome_json().find("pass.fuse_adjacent"),
            std::string::npos);
  // Interning the same name again returns the same storage.
  EXPECT_EQ(trace::intern("pass.fuse_adjacent"),
            trace::intern(std::string("pass.fuse_adjacent")));
}

TEST(Trace, CrossThreadMergeUnderForRangeStorm) {
  SessionGuard guard;
  parallel::set_num_threads(4);
  TraceSession::start();
  std::atomic<int> bodies{0};
  parallel::for_range(
      0, 2048,
      [&](Index lo, Index hi) {
        for (Index i = lo; i < hi; ++i) {
          TraceSpan span("storm", "test");
          span.arg("i", static_cast<std::int64_t>(i));
          bodies.fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/1);
  TraceSession::stop();
  EXPECT_EQ(bodies.load(), 2048);
  // 2048 storm spans plus the pool.region span; nothing may be lost.
  EXPECT_GE(TraceSession::event_count(), 2048u);
  EXPECT_EQ(TraceSession::dropped_count(), 0u);
  parallel::set_num_threads(0);
}

TEST(Trace, FullRingDropsNewestAndCounts) {
  SessionGuard guard;
  TraceSession::start();
  // Far past any per-thread ring capacity; the overflow must be dropped
  // (never overwritten) and accounted for exactly.
  const std::size_t attempts = (1u << 14) + 64;
  for (std::size_t i = 0; i < attempts; ++i) TraceSpan span("flood", "test");
  TraceSession::stop();
  EXPECT_LT(TraceSession::event_count(), attempts);
  EXPECT_GT(TraceSession::dropped_count(), 0u);
  EXPECT_EQ(TraceSession::event_count() + TraceSession::dropped_count(),
            attempts);
}

TEST(Trace, ExportRoundTripThroughTraceSummary) {
  if (std::system("python3 -c \"\" > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 unavailable";
  SessionGuard guard;
  TraceSession::start();
  {
    TraceSpan span("compile", "engine");
    span.arg("gates", 12);
    TraceSpan nested("partition", "partition");
  }
  trace::counter_sample("exchange.bytes", 4096.0);
  TraceSession::stop();
  const std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  TraceSession::write(path);
  const std::string cmd = std::string("python3 \"") + HISIM_SOURCE_DIR +
                          "/tools/trace_summary.py\" --validate \"" + path +
                          "\"";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::remove(path.c_str());
}

TEST(Trace, WriteToUnopenablePathThrows) {
  SessionGuard guard;
  EXPECT_THROW(TraceSession::write("no_such_dir/trace.json"), Error);
}

// ---------------------------------------------------------------------------
// Engine integration

std::vector<Options> all_target_options() {
  std::vector<Options> out;
  for (Target t : {Target::Flat, Target::Hierarchical,
                   Target::DistributedSerial, Target::DistributedThreaded,
                   Target::IqsBaseline}) {
    Options o;
    o.target = t;
    o.limit = 4;
    if (t == Target::DistributedThreaded) o.level2_limit = 3;
    if (target_is_distributed(t)) o.process_qubits = 2;
    out.push_back(o);
  }
  return out;
}

/// Result::metrics is the one report: every consumer (bench/e2e's
/// metric(), the paper benches, the CLI) reads these keys, and a missing
/// key would read as zero there. Pins the key set per target and the
/// relations between the derived totals and the keys.
TEST(Trace, MetricsOnEveryTarget) {
  for (const char* name : {"bv", "qft"}) {
    const Circuit c = circuits::make_by_name(name, 8);
    for (const Options& o : all_target_options()) {
      SCOPED_TRACE(std::string(name) + " on " + target_name(o.target));
      const Result r = Engine::compile(c, o).execute();
      const auto& m = r.metrics;
      const auto expect_keys = [&m](std::initializer_list<const char*> keys) {
        for (const char* key : keys) EXPECT_EQ(m.count(key), 1u) << key;
      };
      const auto get = [&m](const char* key) {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
      };
      // The stable compile keys exist on every target (zero when a phase
      // was skipped), and every execution stamps its wall time and the
      // time of its norm/shots/observables tail.
      expect_keys({"compile.total_seconds", "compile.partition_seconds",
                   "compile.optimize_seconds", "compile.gates_removed",
                   "execute.wall_seconds", "observe.seconds"});
      EXPECT_NE(r.to_json().find("\"metrics\": {"), std::string::npos);

      // Plans with a second level relayout in place; the others never do.
      // The distributed-serial plan's auto level 2 is off: 16 >= 6 local
      // qubits.
      const bool level2 =
          o.target == Target::Hierarchical || o.level2_limit > 0;
      EXPECT_EQ(m.count("relayout.seconds"), level2 ? 1u : 0u);
      EXPECT_EQ(m.count("relayout.bytes"), level2 ? 1u : 0u);
      if (!target_is_distributed(o.target)) {
        expect_keys({"apply.seconds"});
        EXPECT_EQ(m.count("gather.seconds"), 0u);
        // One rank exchanges nothing and reports no per-step distributions.
        for (const auto& [key, value] : m) {
          EXPECT_NE(key.rfind("exchange.", 0), 0u) << key;
          EXPECT_NE(key.rfind("step.", 0), 0u) << key;
        }
        EXPECT_EQ(m.count("apply.seconds.sum"), 0u);
        EXPECT_EQ(r.total_seconds(),
                  get("apply.seconds") + get("relayout.seconds"));
        continue;
      }
      // Sharded: the same keys on the distributed executor and the IQS
      // baseline, plus the final shard gather the engine times.
      expect_keys({"apply.seconds.sum", "exchange.count", "exchange.bytes",
                   "exchange.messages", "exchange.modeled_seconds.sum",
                   "exchange.modeled_avg_seconds", "gather.seconds"});
      // A report-only run skips the gather but still times its shard norm.
      ExecOptions report_only;
      report_only.want_state = false;
      const Result ro = Engine::compile(c, o).execute(report_only);
      EXPECT_EQ(ro.metrics.count("gather.seconds"), 0u);
      EXPECT_EQ(ro.metrics.count("observe.seconds"), 1u);
      const double comm = m.at("exchange.modeled_seconds.sum");
      EXPECT_EQ(r.total_seconds(), m.at("apply.seconds.sum") + comm);
      EXPECT_GE(comm, 0.0);
      EXPECT_LE(comm, r.total_seconds());  // comm share in [0, 1]
      if (o.target == Target::IqsBaseline) continue;
      expect_keys({"exchange.measured_seconds.sum", "step.wall_seconds.sum",
                   "exchange.overlap_seconds.sum", "step.pipelined_seconds"});
      EXPECT_LE(m.at("step.pipelined_seconds"), r.total_seconds() + 1e-9);
    }
  }
}

TEST(Trace, OptionsTraceStartsASession) {
  SessionGuard guard;
  ASSERT_FALSE(TraceSession::active());
  Options o;
  o.target = Target::Flat;
  o.trace = true;
  const Circuit c = circuits::make_by_name("bv", 6);
  const ExecutionPlan plan = Engine::compile(c, o);
  EXPECT_TRUE(TraceSession::active());
  (void)plan.execute();
  TraceSession::stop();
  EXPECT_GT(TraceSession::event_count(), 0u);
}

/// Counter ("C") events on the exchange tracks in a Chrome-trace export.
std::size_t exchange_counter_events(const std::string& json) {
  std::size_t count = 0;
  for (const char* track : {"exchange.bytes", "exchange.messages"}) {
    const std::string event =
        std::string("{\"name\": \"") + track + "\", \"ph\": \"C\"";
    for (std::size_t at = json.find(event); at != std::string::npos;
         at = json.find(event, at + 1))
      ++count;
  }
  return count;
}

// One rank never exchanges, so a single-node execute draws no exchange
// counter track; a sharded one samples both after every step.
TEST(Trace, ExchangeCountersOnlyWhenSharded) {
  const Circuit c = circuits::make_by_name("qft", 8);
  for (Target t :
       {Target::Flat, Target::Hierarchical, Target::DistributedSerial}) {
    SCOPED_TRACE(target_name(t));
    Options o;
    o.target = t;
    o.limit = 4;
    if (target_is_distributed(t)) o.process_qubits = 2;
    const ExecutionPlan plan = Engine::compile(c, o);
    SessionGuard guard;
    TraceSession::start();
    (void)plan.execute();
    TraceSession::stop();
    const std::size_t counters =
        exchange_counter_events(TraceSession::chrome_json());
    if (target_is_distributed(t))
      EXPECT_EQ(counters, 2 * plan.num_parts());
    else
      EXPECT_EQ(counters, 0u);
  }
}

TEST(Trace, TracingLeavesResultsBitIdentical) {
  Options o;
  o.target = Target::DistributedThreaded;
  o.limit = 4;
  o.process_qubits = 2;
  const Circuit c = circuits::make_by_name("qft", 8);
  const ExecutionPlan plan = Engine::compile(c, o);
  const Result off = plan.execute();
  SessionGuard guard;
  TraceSession::start();
  const Result on = plan.execute();
  TraceSession::stop();
  EXPECT_GT(TraceSession::event_count(), 0u);
  ASSERT_EQ(off.state.size(), on.state.size());
  for (Index i = 0; i < off.state.size(); ++i) {
    ASSERT_EQ(off.state[i].real(), on.state[i].real()) << "amp " << i;
    ASSERT_EQ(off.state[i].imag(), on.state[i].imag()) << "amp " << i;
  }
  EXPECT_EQ(off.norm, on.norm);
}

}  // namespace
}  // namespace hisim

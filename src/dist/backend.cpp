#include "dist/backend.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dist/layout.hpp"

namespace hisim::dist {
namespace {

/// Fills destination shard r2 by pulling through the inverse permutation,
/// in runs of 2^b offsets that the permutation leaves in place (b =
/// run_bits of the local slots): each run is one contiguous source range,
/// so it costs one index computation and one std::copy. The run loop is
/// split over the pool on the caller's thread and runs inline on a
/// threaded-backend worker, which holds an inline_scope.
void fill_shard(const ExchangePlan& plan, unsigned r2) {
  const unsigned l = plan.local_qubits;
  const unsigned n = static_cast<unsigned>(plan.inv.size());
  const Index ldim = Index{1} << l;
  const unsigned b = run_bits(std::span(plan.inv).first(l));
  const Index run = Index{1} << b;
  // Contribution of the destination rank bits to the source index is
  // constant across the shard; only the offset bits above the run vary.
  Index base = 0;
  for (unsigned s = l; s < n; ++s)
    if ((r2 >> (s - l)) & 1u) base |= Index{1} << plan.inv[s];

  const std::vector<sv::StateVector>& src = *plan.src;
  cplx* out = (*plan.dst)[r2].data();
  auto move_runs = [&](Index lo, Index hi) {
    for (Index j = lo; j < hi; j += run) {
      Index c = base;
      for (unsigned s = b; s < l; ++s)
        if ((j >> s) & 1u) c |= Index{1} << plan.inv[s];
      const cplx* from =
          src[static_cast<unsigned>(c >> l)].data() + (c & (ldim - 1));
      std::copy(from, from + run, out + j);
    }
  };
  // Chunks of whole runs: a grain that is a multiple of the run keeps
  // every chunk boundary on a run boundary.
  parallel::for_range(0, ldim, move_runs,
                      std::max(run, parallel::kDefaultGrain));
}

/// Handle for exchanges that completed before start_exchange returned.
class ReadyHandle final : public ExchangeHandle {
 public:
  explicit ReadyHandle(double seconds) : seconds_(seconds) {}
  void wait_shard(unsigned) override {}
  void wait_all() override {}
  double seconds() const override { return seconds_; }
  double finished_after() const override { return 0.0; }

 private:
  double seconds_ = 0.0;
};

/// Handle owning the per-host movement threads. Shard arrival is flagged
/// under one mutex/condvar pair (annotated: done_ and in_flight_ are
/// HISIM_GUARDED_BY(mu_), so the wait/signal protocol is proven at
/// compile time on Clang builds); completion of the whole exchange is a
/// parallel::latch counted down once per worker, so wait_all() does not
/// need to join threads (the task_group joins on destruction). The
/// in-flight window is measured from spawn to the last worker's finish
/// (not to wait_all, which may be called long after the movement ended
/// while the caller was computing).
class ThreadedHandle final : public ExchangeHandle {
 public:
  ThreadedHandle(ExchangePlan plan, unsigned workers)
      : plan_(std::move(plan)), done_(plan_.num_ranks, 0), finished_(workers) {
    // Balanced host split: every worker gets floor/ceil(hosts/workers)
    // hosts (workers <= hosts by construction), so none sit idle.
    const unsigned hosts = plan_.physical;
    for (unsigned w = 0; w < workers; ++w) {
      const unsigned h_begin = hosts * w / workers;
      const unsigned h_end = hosts * (w + 1) / workers;
      group_.spawn([this, h_begin, h_end] { move_hosts(h_begin, h_end); });
    }
  }

  ~ThreadedHandle() override { group_.join(); }

  void wait_shard(unsigned rank) override {
    trace::TraceSpan span("exchange.wait", "exchange");
    span.arg("rank", rank);
    MutexLock lk(mu_);
    while (done_[rank] == 0) cv_.wait(lk);
  }

  void wait_all() override {
    finished_.wait();
    MutexLock lk(mu_);
    seconds_ = in_flight_;
  }

  double seconds() const override { return seconds_; }
  double finished_after() const override { return seconds_; }

 private:
  void move_hosts(unsigned h_begin, unsigned h_end) {
    const unsigned v = plan_.num_ranks;
    for (unsigned h = h_begin; h < h_end; ++h) {
      const unsigned r_begin = h * plan_.vranks_per_host;
      const unsigned r_end = std::min(v, r_begin + plan_.vranks_per_host);
      for (unsigned r2 = r_begin; r2 < r_end; ++r2) {
        trace::TraceSpan span("exchange.shard", "exchange");
        span.arg("rank", r2);
        fill_shard(plan_, r2);
        {
          MutexLock lk(mu_);
          done_[r2] = 1;
        }
        cv_.notify_all();
      }
    }
    {
      MutexLock lk(mu_);
      in_flight_ = std::max(in_flight_, timer_.seconds());
    }
    finished_.count_down();
  }

  ExchangePlan plan_;  // immutable after construction; read lock-free
  Timer timer_;  // starts when the handle (and its workers) is created
  parallel::task_group group_;
  Mutex mu_;
  CondVar cv_;
  std::vector<std::uint8_t> done_ HISIM_GUARDED_BY(mu_);
  parallel::latch finished_;  // one count per worker
  // Spawn → last worker finished, folded in by each finishing worker.
  double in_flight_ HISIM_GUARDED_BY(mu_) = 0.0;
  // Snapshotted from in_flight_ by wait_all(); per the ExchangeHandle
  // contract seconds() is only called after wait_all(), single-threaded.
  double seconds_ = 0.0;
};

}  // namespace

std::unique_ptr<ExchangeHandle> SerialBackend::start_exchange(
    const ExchangePlan& plan) {
  Timer timer;
  for (unsigned r2 = 0; r2 < plan.num_ranks; ++r2) fill_shard(plan, r2);
  return std::make_unique<ReadyHandle>(timer.seconds());
}

std::unique_ptr<ExchangeHandle> ThreadedBackend::start_exchange(
    const ExchangePlan& plan) {
  const unsigned workers =
      std::max(1u, std::min(plan.physical, parallel::num_threads()));
  return std::make_unique<ThreadedHandle>(plan, workers);
}

CommBackend& serial_backend() {
  static SerialBackend backend;
  return backend;
}

CommBackend& threaded_backend() {
  static ThreadedBackend backend;
  return backend;
}

CommBackend& backend_for(BackendKind kind) {
  return kind == BackendKind::Threaded ? threaded_backend() : serial_backend();
}

BackendKind parse_backend(const std::string& name) {
  if (name == "serial") return BackendKind::Serial;
  if (name == "threaded") return BackendKind::Threaded;
  throw Error("unknown comm backend '" + name + "' (serial|threaded)");
}

const char* backend_kind_name(BackendKind kind) {
  return kind == BackendKind::Threaded ? "threaded" : "serial";
}

}  // namespace hisim::dist

#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/trace.hpp"

namespace hisim::parallel {
namespace {

std::atomic<unsigned> g_threads{0};  // 0 = hardware_concurrency

// Depth of fork-join regions (or inline_scopes) active on this thread;
// nonzero makes for_range run inline instead of touching the shared pool.
thread_local int tl_inline_depth = 0;

struct InlineDepthGuard {
  InlineDepthGuard() { ++tl_inline_depth; }
  ~InlineDepthGuard() { --tl_inline_depth; }
};

unsigned resolved_threads() {
  const unsigned configured = g_threads.load(std::memory_order_relaxed);
  if (configured != 0) return configured;
  // Asked once: hardware_concurrency() can cost a syscall, and every
  // for_range lands here.
  static const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

/// A minimal fork-join pool: workers sleep between parallel regions.
/// Recreated if the requested width changes. One region at a time:
/// concurrent run() callers serialize on run_mu_.
///
/// Lock discipline (thread-safety analysis): the wakeup protocol state
/// (epoch_/stop_/pending_) and the region parameters are all guarded by
/// mu_. The one deliberate exception is work(), which reads the region
/// parameters lock-free — see its comment for the publication protocol
/// that replaces the proof; it is the single sanctioned
/// HISIM_NO_THREAD_SAFETY_ANALYSIS escape in the tree.
class Pool {
 public:
  explicit Pool(unsigned width) : width_(width) {
    for (unsigned i = 1; i < width_; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~Pool() {
    {
      MutexLock lk(mu_);
      stop_ = true;
      ++epoch_;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  unsigned width() const { return width_; }

  void run(Index begin, Index end, Index grain,
           const std::function<void(Index, Index)>& fn)
      HISIM_EXCLUDES(run_mu_, mu_) {
    MutexLock run_lk(run_mu_);  // one region at a time
    const Index n = end - begin;
    const Index chunks = (n + grain - 1) / grain;
    static trace::Counter& tasks =
        trace::MetricsRegistry::global().counter("pool.tasks");
    tasks.add(static_cast<std::uint64_t>(chunks));
    trace::TraceSpan span("pool.region", "parallel");
    span.arg("chunks", static_cast<std::int64_t>(chunks));
    {
      MutexLock lk(mu_);
      begin_ = begin;
      end_ = end;
      grain_ = grain;
      fn_ = &fn;
      next_chunk_.store(0, std::memory_order_relaxed);
      pending_ = static_cast<int>(width_);
      ++epoch_;
    }
    cv_.notify_all();
    work(chunks);  // calling thread participates
    MutexLock lk(mu_);
    while (pending_ != 0) done_cv_.wait(lk);
    fn_ = nullptr;
  }

 private:
  void worker_loop(unsigned /*id*/) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(Index, Index)>* fn = nullptr;
      Index chunks = 0;
      {
        MutexLock lk(mu_);
        while (!stop_ && epoch_ == seen) cv_.wait(lk);
        seen = epoch_;
        if (stop_) return;
        fn = fn_;
        chunks = fn ? (end_ - begin_ + grain_ - 1) / grain_ : 0;
      }
      if (fn) work(chunks);
    }
  }

  /// Reads the region parameters (begin_/end_/grain_/fn_) without mu_ —
  /// safe by the publication protocol the analysis cannot express: run()
  /// writes them under mu_ *before* bumping epoch_, every worker
  /// observes the bump under mu_ before calling in (acquiring the
  /// happens-before edge), and the fields stay frozen until pending_
  /// (whose decrement below is back under mu_) reaches zero. The only
  /// sanctioned no-analysis escape outside the annotation header.
  void work(Index chunks) HISIM_NO_THREAD_SAFETY_ANALYSIS {
    {
      InlineDepthGuard in_region;  // nested for_range inside fn runs inline
      for (;;) {
        const Index c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunks) break;
        const Index lo = begin_ + c * grain_;
        const Index hi = std::min(end_, lo + grain_);
        (*fn_)(lo, hi);
      }
    }
    MutexLock lk(mu_);
    if (--pending_ == 0) done_cv_.notify_all();
  }

  unsigned width_;
  std::vector<std::thread> workers_;
  Mutex run_mu_;
  Mutex mu_;
  CondVar cv_, done_cv_;
  std::uint64_t epoch_ HISIM_GUARDED_BY(mu_) = 0;
  bool stop_ HISIM_GUARDED_BY(mu_) = false;
  int pending_ HISIM_GUARDED_BY(mu_) = 0;
  // Region parameters: written under mu_ by run(), read lock-free inside
  // work() during a region (see work()'s publication protocol).
  Index begin_ HISIM_GUARDED_BY(mu_) = 0;
  Index end_ HISIM_GUARDED_BY(mu_) = 0;
  Index grain_ HISIM_GUARDED_BY(mu_) = 1;
  std::atomic<Index> next_chunk_{0};
  const std::function<void(Index, Index)>* fn_ HISIM_GUARDED_BY(mu_) = nullptr;
};

/// Shared ownership so a width change (set_num_threads from another
/// thread) cannot destroy a Pool that a concurrent for_range is still
/// running a region on — the old pool dies when its last region ends.
std::shared_ptr<Pool> pool_instance(unsigned width) {
  static std::shared_ptr<Pool> pool;  // guarded by mu (function-local)
  static Mutex mu;
  MutexLock lk(mu);
  if (!pool || pool->width() != width) pool = std::make_shared<Pool>(width);
  return pool;
}

}  // namespace

void set_num_threads(unsigned n) {
  g_threads.store(n, std::memory_order_relaxed);
}

unsigned num_threads() { return resolved_threads(); }

void for_range(Index begin, Index end,
               const std::function<void(Index, Index)>& fn, Index grain) {
  if (end <= begin) return;
  const unsigned width = resolved_threads();
  if (width <= 1 || end - begin <= grain || tl_inline_depth > 0) {
    fn(begin, end);
    return;
  }
  pool_instance(width)->run(begin, end, grain, fn);
}

inline_scope::inline_scope() { ++tl_inline_depth; }
inline_scope::~inline_scope() { --tl_inline_depth; }

struct latch::Impl {
  mutable Mutex mu;
  mutable CondVar cv;
  std::ptrdiff_t count HISIM_GUARDED_BY(mu);
};

latch::latch(std::ptrdiff_t count) : impl_(new Impl{{}, {}, count}) {}

latch::~latch() { delete impl_; }

void latch::count_down(std::ptrdiff_t n) {
  MutexLock lk(impl_->mu);
  impl_->count -= n;
  if (impl_->count <= 0) impl_->cv.notify_all();
}

void latch::wait() const {
  MutexLock lk(impl_->mu);
  while (impl_->count > 0) impl_->cv.wait(lk);
}

bool latch::try_wait() const {
  MutexLock lk(impl_->mu);
  return impl_->count <= 0;
}

void task_group::spawn(std::function<void()> fn) {
  threads_.emplace_back([fn = std::move(fn)] {
    inline_scope inline_only;
    fn();
  });
}

void task_group::join() {
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

}  // namespace hisim::parallel

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace hisim {

/// Capability-annotated mutex. Raw std::mutex is invisible to Clang's
/// thread-safety analysis, so every lock in src/ is one of these (the
/// hisim-lint `mutex` rule confines the std primitives to this module):
/// fields the mutex protects carry HISIM_GUARDED_BY(mu_), and the
/// analysis then proves — on every Clang build — that no code path
/// touches them without holding the lock. Non-reentrant, like the
/// std::mutex it wraps.
class HISIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HISIM_ACQUIRE() { mu_.lock(); }
  void unlock() HISIM_RELEASE() { mu_.unlock(); }
  bool try_lock() HISIM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scoped lock over a Mutex (the only idiomatic way to hold one:
/// scoped acquisition is what the analysis reasons about best). Always
/// holds the lock for its whole lifetime; CondVar::wait releases and
/// re-acquires it internally without changing the held-capability state.
class HISIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HISIM_ACQUIRE(mu) : lk_(mu.mu_) {}
  ~MutexLock() HISIM_RELEASE() {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable paired with Mutex/MutexLock.
///
/// wait() carries no HISIM_REQUIRES annotation: the capability it needs
/// is "the mutex `lk` holds", and the analysis cannot alias a scoped
/// lock's capability through an accessor, so any spelling would produce
/// false positives at every call site. Holding the lock is instead
/// guaranteed by construction (a MutexLock exists in the calling scope)
/// — which is exactly what makes guarded reads in the canonical wait
/// idiom check out:
///
///   MutexLock lk(mu_);
///   while (!ready_) cv_.wait(lk);   // ready_ is HISIM_GUARDED_BY(mu_)
///
/// There is deliberately no predicate-lambda overload: the lambda body
/// would be analyzed as a separate function that does not know mu_ is
/// held, failing the analysis on precisely the reads it should accept.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases lk's mutex and blocks; the mutex is re-acquired
  /// before returning. Spurious wakeups possible — always wait in a loop.
  void wait(MutexLock& lk) { cv_.wait(lk.lk_); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Shared-memory parallelism shim. The state-vector kernels call
/// parallel_for over amplitude ranges; on a single-core host this runs
/// sequentially with zero overhead, on larger machines it fans out over a
/// lazily created thread pool (strong-scaling experiments in the paper use
/// OpenMP; a pool keeps the library dependency-free and deterministic).
namespace parallel {

/// Set the number of worker threads used by parallel_for. 0 = hardware
/// concurrency. Takes effect on the next parallel_for call.
void set_num_threads(unsigned n);

/// Current configured worker count (after defaulting).
unsigned num_threads();

/// for_range's default chunk: 4096 indices.
inline constexpr Index kDefaultGrain = Index{1} << 12;

/// Invoke fn(begin, end) over a partition of [begin, end) across workers.
/// Ranges below `grain` run inline on the calling thread.
///
/// Re-entrancy: a call made from inside another for_range region (pool
/// worker or participating caller), or from a thread holding an
/// inline_scope, runs inline instead of re-entering the shared pool, so
/// kernels may be invoked from already-parallel code without deadlocking
/// the fork-join pool. Concurrent top-level calls from distinct threads
/// are serialized against each other.
void for_range(Index begin, Index end,
               const std::function<void(Index, Index)>& fn,
               Index grain = kDefaultGrain);

/// True when every for_range this thread issues runs inline: inside a
/// for_range region or under an inline_scope. Callers that size per-worker
/// buffers by num_threads() use it to size for one worker instead.
bool inline_only();

/// RAII guard forcing every for_range issued by this thread to run inline
/// for the guard's lifetime. Comm-backend worker threads hold one so their
/// data movement never competes with the caller's fork-join regions (a
/// worker blocking on the shared pool while the main thread's region waits
/// on that worker would deadlock).
class inline_scope {
 public:
  inline_scope();
  ~inline_scope();
  inline_scope(const inline_scope&) = delete;
  inline_scope& operator=(const inline_scope&) = delete;
};

/// Single-use count-down latch (std::latch with a waitable count query):
/// count_down() by producers, wait() blocks until the count reaches zero.
/// The threaded comm backend's exchange handle counts one per movement
/// worker so its barrier can complete without joining threads.
class latch {
 public:
  explicit latch(std::ptrdiff_t count);
  latch(const latch&) = delete;
  latch& operator=(const latch&) = delete;
  ~latch();

  /// Decrements the count by n (must not drop below zero).
  void count_down(std::ptrdiff_t n = 1);
  /// Blocks until the count reaches zero.
  void wait() const;
  /// True iff the count already reached zero (non-blocking).
  bool try_wait() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Owns a set of plain worker threads spawned for one async region and
/// joins them on destruction. Each spawned thread runs under an
/// inline_scope (see above). Unlike for_range this is not pooled — it is
/// the structured-concurrency helper for long-lived overlap work (comm
/// backends), not for data-parallel loops.
class task_group {
 public:
  task_group() = default;
  task_group(const task_group&) = delete;
  task_group& operator=(const task_group&) = delete;
  ~task_group() { join(); }

  /// Launches fn on a new thread owned by the group.
  void spawn(std::function<void()> fn);
  /// Blocks until every spawned thread has finished. Idempotent.
  void join();

  std::size_t size() const { return threads_.size(); }

 private:
  std::vector<std::thread> threads_;
};

}  // namespace parallel
}  // namespace hisim

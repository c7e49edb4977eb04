// Concurrency annotations and locking primitives — the single place raw
// std::mutex / std::condition_variable are allowed to appear (enforced by
// tools/arclint rule `raw-mutex`). Everything that shares state across
// threads locks through the wrappers below, which carry Clang Thread Safety
// Analysis capabilities: a clang build with -Wthread-safety statically
// proves that every GUARDED_BY member is only touched with its mutex held
// and that REQUIRES contracts hold at every call site. On non-clang
// compilers the attributes expand to nothing and the wrappers are
// zero-overhead shims over the std primitives.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// (the macro set below is the documented canonical spelling).
//
// arclint: allow-file(raw-mutex): this header *is* the wrapper layer.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ARC_TSA(x) __attribute__((x))
#endif
#endif
#ifndef ARC_TSA
#define ARC_TSA(x)  // not clang: attributes compile away
#endif

#define ARC_CAPABILITY(x) ARC_TSA(capability(x))
#define ARC_SCOPED_CAPABILITY ARC_TSA(scoped_lockable)
#define ARC_GUARDED_BY(x) ARC_TSA(guarded_by(x))
#define ARC_PT_GUARDED_BY(x) ARC_TSA(pt_guarded_by(x))
#define ARC_REQUIRES(...) ARC_TSA(requires_capability(__VA_ARGS__))
#define ARC_EXCLUDES(...) ARC_TSA(locks_excluded(__VA_ARGS__))
#define ARC_ACQUIRE(...) ARC_TSA(acquire_capability(__VA_ARGS__))
#define ARC_RELEASE(...) ARC_TSA(release_capability(__VA_ARGS__))
#define ARC_TRY_ACQUIRE(...) ARC_TSA(try_acquire_capability(__VA_ARGS__))
#define ARC_ACQUIRED_BEFORE(...) ARC_TSA(acquired_before(__VA_ARGS__))
#define ARC_ACQUIRED_AFTER(...) ARC_TSA(acquired_after(__VA_ARGS__))
#define ARC_RETURN_CAPABILITY(x) ARC_TSA(lock_returned(x))
#define ARC_NO_TSA ARC_TSA(no_thread_safety_analysis)

namespace arcadia::util {

/// Annotated mutual-exclusion capability. Prefer the scoped MutexLock;
/// lock()/unlock() exist for the rare hand-rolled critical section (and for
/// CondVar, which unlocks/relocks around the wait).
class ARC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ARC_ACQUIRE() { mu_.lock(); }
  void unlock() ARC_RELEASE() { mu_.unlock(); }
  bool try_lock() ARC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over a Mutex (std::lock_guard with a capability).
class ARC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ARC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ARC_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. wait() takes the Mutex itself
/// (not a lock object) so the REQUIRES contract names the capability the
/// analysis tracks; use the loop form — no predicate overload, because a
/// predicate lambda would read guarded state from an un-annotated closure
/// and defeat the analysis:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);
class CondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mu`, blocks, and re-acquires before returning.
  void wait(Mutex& mu) ARC_REQUIRES(mu) { cv_.wait(mu); }

 private:
  std::condition_variable_any cv_;
};

/// Scoped *logical lane* marker for sharded simulation. A lane names a
/// serial execution context that may migrate between OS threads: shard k's
/// window runs on whichever pool worker picks it up this round, but never
/// on two threads at once (the coordinator's barrier protocol guarantees
/// that). SerialDomain keys on the active lane when one is set, so the
/// "all mutating calls happen serially" discipline keeps holding — and
/// keeps being checked — across thread migrations. Tokens are odd
/// (shard lanes use `ptr | 1`) so they can never collide with the even
/// per-thread keys SerialDomain derives when no lane is active. Nesting
/// saves and restores the outer lane.
class SerialLane {
 public:
  explicit SerialLane(std::uintptr_t token) : saved_(current_) {
    if (token != 0) current_ = token;
  }
  ~SerialLane() { current_ = saved_; }

  SerialLane(const SerialLane&) = delete;
  SerialLane& operator=(const SerialLane&) = delete;

  static std::uintptr_t current() { return current_; }

 private:
  inline static thread_local std::uintptr_t current_ = 0;
  std::uintptr_t saved_;
};

/// Debug ownership checker for classes whose discipline is not a mutex but
/// "all mutating calls happen serially" (on the simulation thread, or —
/// under the sharded kernel — inside one shard's SerialLane): GaugeManager,
/// FleetManager, PlanExecutor. Binds to the first caller's key and asserts
/// every later check() presents the same key; a no-op in NDEBUG builds.
/// The key is the active SerialLane token when one is set (odd), else a
/// hash of the OS thread id (forced even), so lane-scoped execution may
/// migrate between pool workers while lane-less code keeps the classic
/// one-thread binding. Binding is lazy (not at construction) because
/// ExperimentSuite builds a rig on one pool thread and drives it there —
/// the constructing thread is the owning thread, but only by the time the
/// first call lands.
class SerialDomain {
 public:
  SerialDomain() = default;

  // Movable so owners can live in growing containers (vector<Shard>).
  // Moving a domain is only legal while its owner is quiescent, which is
  // exactly when container growth happens; the binding travels along.
  SerialDomain([[maybe_unused]] SerialDomain&& other) noexcept {
#ifndef NDEBUG
    owner_.store(other.owner_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
#endif
  }
  SerialDomain& operator=([[maybe_unused]] SerialDomain&& other) noexcept {
#ifndef NDEBUG
    owner_.store(other.owner_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
#endif
    return *this;
  }

  void check() const {
#ifndef NDEBUG
    const std::uintptr_t self = caller_key();
    std::uintptr_t expected = 0;  // unbound
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first call: bound to this lane/thread
    }
    assert(expected == self &&
           "SerialDomain: call from outside the owning lane/thread");
#endif
  }

  /// Release ownership (tests that legitimately hand an object between
  /// phases re-bind on the next check()).
  void detach() {
#ifndef NDEBUG
    owner_.store(0, std::memory_order_relaxed);
#endif
  }

 private:
#ifndef NDEBUG
  static std::uintptr_t caller_key() {
    if (const std::uintptr_t lane = SerialLane::current(); lane != 0) {
      return lane;  // shard lanes are odd
    }
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return (static_cast<std::uintptr_t>(h) << 1) | 2;  // even, never 0
  }

  mutable std::atomic<std::uintptr_t> owner_{0};
#endif
};

}  // namespace arcadia::util

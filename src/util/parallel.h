#ifndef RECEIPT_UTIL_PARALLEL_H_
#define RECEIPT_UTIL_PARALLEL_H_

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace receipt {

/// Returns the number of threads the next parallel region will use.
inline int MaxThreads() { return omp_get_max_threads(); }

/// Item count below which ParallelFor and the reducers run inline: under
/// a few thousand cheap items, forking and joining a team costs more than
/// the loop itself.
inline constexpr size_t kParallelCutoff = 4096;

namespace detail {

/// The one place a team of threads is forked: runs `body(tid, i)` for i in
/// [0, n) on `num_threads` threads with dynamic scheduling at grain `chunk`
/// (the workloads here are highly skewed, e.g. wedge exploration per
/// vertex, so static chunking load-balances poorly). `tid` is the calling
/// thread's index in the team, in [0, num_threads).
template <typename Body>
void RunOnTeam(size_t n, int num_threads, int chunk, Body&& body) {
#pragma omp parallel num_threads(num_threads)
  {
    const int tid = omp_get_thread_num();
#pragma omp for schedule(dynamic, chunk)
    for (size_t i = 0; i < n; ++i) body(tid, i);
  }
}

/// Folds make(i) over i in [0, n) with `fold`, starting from `identity`.
/// Inputs of kParallelCutoff items or more are cut into 4 fixed blocks per
/// thread whose partials are folded in block order, so for an associative
/// fold (integer sums, max) the result does not depend on the thread count
/// or the schedule. `partials_scratch` (optional) keeps the per-block
/// buffer across calls.
template <typename T, typename Make, typename Fold>
T ParallelReduce(size_t n, int num_threads, Make&& make, T identity,
                 Fold&& fold, std::vector<T>* partials_scratch) {
  const auto fold_range = [&](size_t lo, size_t hi) {
    T acc = identity;
    for (size_t i = lo; i < hi; ++i) acc = fold(acc, make(i));
    return acc;
  };
  if (num_threads <= 1 || n < kParallelCutoff) return fold_range(0, n);
  const size_t num_blocks = static_cast<size_t>(num_threads) * 4;
  const size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<T> local_partials;
  std::vector<T>& partials =
      partials_scratch != nullptr ? *partials_scratch : local_partials;
  partials.assign(num_blocks, identity);
  RunOnTeam(num_blocks, num_threads, 1, [&](int, size_t b) {
    partials[b] = fold_range(std::min(n, b * block),
                             std::min(n, (b + 1) * block));
  });
  T total = identity;
  for (const T& partial : partials) total = fold(total, partial);
  return total;
}

}  // namespace detail

/// Runs `fn(i)` for i in [0, n) across `num_threads` threads. Inputs below
/// kParallelCutoff run inline: every caller does little work per index.
/// Few heavy items belong in ParallelForWithContext, which always forks.
template <typename Fn>
void ParallelFor(size_t n, int num_threads, Fn&& fn) {
  if (num_threads <= 1 || n < kParallelCutoff) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::RunOnTeam(n, num_threads, 64, [&fn](int, size_t i) { fn(i); });
}

/// ParallelFor with a per-thread context: `fn(ctxs[t], i)`, where t is the
/// running thread's index, so `ctxs` (a vector or span) needs at least
/// `num_threads` entries. Used to hand each thread its own scratch (Alg. 1
/// line 5) or partial sums. One thread runs inline on ctxs[0]; more always
/// fork. `chunk` is the dynamic-schedule grain: 64 amortizes the dispatch
/// over many cheap items; 1 spreads a few heavy, skewed items (a coarse
/// peel round's vertices, FD's subsets) over every thread, handing them
/// out in index order.
template <typename Ctxs, typename Fn>
void ParallelForWithContext(size_t n, int num_threads, Ctxs&& ctxs, Fn&& fn,
                            int chunk = 64) {
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(ctxs[0], i);
    return;
  }
  detail::RunOnTeam(n, num_threads, chunk, [&](int tid, size_t i) {
    fn(ctxs[static_cast<size_t>(tid)], i);
  });
}

/// Atomically adds `delta` to `*target` (relaxed ordering; all support
/// counters in this library are reduced/validated after a barrier).
template <typename T>
inline void AtomicAdd(T* target, T delta) {
  reinterpret_cast<std::atomic<T>*>(target)->fetch_add(
      delta, std::memory_order_relaxed);
}

/// Atomically performs `*target = max(floor, *target - delta)` and returns the
/// new value. This is the clamped support-decrement of Alg. 2 line 13 /
/// Lemma 2: concurrent decrements from different peeled vertices must not be
/// lost, and support never drops below the floor (current tip number / range
/// lower bound).
template <typename T>
inline T AtomicClampedSub(T* target, T delta, T floor) {
  auto* a = reinterpret_cast<std::atomic<T>*>(target);
  T cur = a->load(std::memory_order_relaxed);
  while (true) {
    T next = (cur > floor + delta) ? cur - delta : floor;
    if (a->compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return next;
    }
  }
}

/// Deterministic parallel sum of make(i) over i in [0, n): for associative
/// element types (the engine sums integer peel costs) the result is
/// independent of thread count and schedule — the property the coarse
/// decomposer's bit-identicality guarantees rest on. `partials_scratch`
/// (optional) keeps repeated calls in a peeling loop allocation-free once
/// warm.
template <typename T, typename Make>
T ParallelReduceSum(size_t n, int num_threads, Make&& make,
                    std::vector<T>* partials_scratch = nullptr) {
  return detail::ParallelReduce<T>(n, num_threads, make, T{}, std::plus<T>{},
                                   partials_scratch);
}

/// Deterministic parallel maximum of make(i) over i in [0, n), `identity`
/// on an empty range.
template <typename T, typename Make>
T ParallelReduceMax(size_t n, int num_threads, Make&& make, T identity = T{}) {
  return detail::ParallelReduce<T>(
      n, num_threads, make, identity,
      [](const T& a, const T& b) { return std::max<T>(a, b); }, nullptr);
}

}  // namespace receipt

#endif  // RECEIPT_UTIL_PARALLEL_H_

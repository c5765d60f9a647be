#ifndef RECEIPT_UTIL_PARALLEL_H_
#define RECEIPT_UTIL_PARALLEL_H_

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace receipt {

/// Returns the number of OpenMP threads the next parallel region will use.
inline int MaxThreads() { return omp_get_max_threads(); }

/// Returns the calling thread's id inside a parallel region (0 outside).
inline int ThreadId() { return omp_get_thread_num(); }

/// Item count below which the index-range helpers here run inline: under
/// a few thousand cheap items, forking and joining a team costs more than
/// the loop itself.
inline constexpr size_t kParallelCutoff = 4096;

/// Runs `fn(i)` for i in [0, n) across `num_threads` OpenMP threads with
/// dynamic scheduling (the workloads in this library are highly skewed, e.g.
/// wedge exploration per vertex, so static chunking load-balances poorly).
/// Inputs below kParallelCutoff run inline: every caller does little work
/// per index. Few heavy items belong in ParallelForWithContext, which
/// always forks.
template <typename Fn>
void ParallelFor(size_t n, int num_threads, Fn&& fn) {
  if (num_threads <= 1 || n < kParallelCutoff) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 64) num_threads(num_threads)
  for (size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

/// ParallelFor with a per-thread context object: `fn(ctx[tid], i)`. Used to
/// hand each thread its own wedge-aggregation scratch array (Alg. 1 line 5).
/// `chunk` is the dynamic-schedule grain: 64 amortizes the dispatch over
/// many cheap items; 1 spreads a few heavy, skewed items (a coarse peel
/// round's vertices) over every thread.
template <typename Ctx, typename Fn>
void ParallelForWithContext(size_t n, int num_threads, std::vector<Ctx>& ctxs,
                            Fn&& fn, int chunk = 64) {
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(ctxs[0], i);
    return;
  }
#pragma omp parallel num_threads(num_threads)
  {
    Ctx& ctx = ctxs[omp_get_thread_num()];
#pragma omp for schedule(dynamic, chunk)
    for (size_t i = 0; i < n; ++i) {
      fn(ctx, i);
    }
  }
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

/// Deterministic parallel reduction: sums make(i) over i ∈ [0, n) with
/// per-block partial sums (static blocks) folded sequentially in block
/// order, so for associative element types (the engine sums integer peel
/// costs) the result is independent of thread count and schedule — the
/// property the coarse decomposer's bit-identicality guarantees rest on.
/// Small inputs run sequentially (fork/join overhead dwarfs the sum).
/// `partials_scratch` (optional) supplies the per-block buffer so repeated
/// calls in a peeling loop stay allocation-free once warm.
template <typename T, typename Make>
T ParallelReduceSum(size_t n, int num_threads, Make&& make,
                    std::vector<T>* partials_scratch = nullptr) {
  if (num_threads <= 1 || n < kParallelCutoff) {
    T total{};
    for (size_t i = 0; i < n; ++i) total += make(i);
    return total;
  }
  const size_t num_blocks = static_cast<size_t>(num_threads) * 4;
  const size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<T> local_partials;
  std::vector<T>& partials =
      partials_scratch != nullptr ? *partials_scratch : local_partials;
  partials.assign(num_blocks, T{});
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t lo = b * block;
    const size_t hi = lo + block < n ? lo + block : n;
    T sum{};
    for (size_t i = lo; i < hi; ++i) sum += make(i);
    partials[b] = sum;
  }
  T total{};
  for (const T& sum : partials) total += sum;
  return total;
}

/// Deterministic parallel maximum of make(i) over i ∈ [0, n): same
/// block-partial scheme as ParallelReduceSum (max is associative and
/// commutative, so the fold order never matters). Small inputs run
/// sequentially.
template <typename T, typename Make>
T ParallelReduceMax(size_t n, int num_threads, Make&& make, T identity = T{}) {
  if (num_threads <= 1 || n < kParallelCutoff) {
    T best = identity;
    for (size_t i = 0; i < n; ++i) best = std::max<T>(best, make(i));
    return best;
  }
  const size_t num_blocks = static_cast<size_t>(num_threads) * 4;
  const size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<T> partials(num_blocks, identity);
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t lo = b * block;
    const size_t hi = lo + block < n ? lo + block : n;
    T best = identity;
    for (size_t i = lo; i < hi; ++i) best = std::max<T>(best, make(i));
    partials[b] = best;
  }
  T best = identity;
  for (const T& candidate : partials) best = std::max<T>(best, candidate);
  return best;
}

}  // namespace receipt

#endif  // RECEIPT_UTIL_PARALLEL_H_

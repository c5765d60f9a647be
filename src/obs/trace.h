#ifndef RECEIPT_OBS_TRACE_H_
#define RECEIPT_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace receipt::obs {

/// One completed span: a named, timed interval attributed to a trace.
/// Fixed-size POD — the recorder ring stores these inline, so recording a
/// span never allocates. `name` is a phase identifier ("engine.cd",
/// "queue.wait"), truncated to fit; `arg` is an optional numeric payload
/// (subset index, byte count) whose meaning is per-span-name.
struct TraceSpan {
  static constexpr size_t kNameCapacity = 24;

  uint64_t trace_id = 0;
  uint64_t start_ns = 0;     ///< steady-clock ns (same epoch as NowNs())
  uint64_t duration_ns = 0;
  uint64_t arg = 0;
  char name[kNameCapacity] = {};

  std::string_view Name() const {
    return std::string_view(name, ::strnlen(name, kNameCapacity));
  }
};

/// Fixed-capacity lock-free span ring. A writer takes a ticket with one
/// fetch_add, claims the ticket's slot with a compare-and-swap on the
/// slot's sequence word (marking it being written), stores the span and
/// publishes its ticket; readers copy a slot and re-check its sequence,
/// discarding torn reads. New spans overwrite the oldest — the ring is a
/// flight recorder, not a durable log. A writer whose slot already holds
/// a newer ticket, or is still being written by a writer the ring has
/// lapped, drops its span, so no two writers ever store into one slot.
/// All operations are allocation-free after construction.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity = 4096);

  void Record(uint64_t trace_id, const char* name, uint64_t start_ns,
              uint64_t duration_ns, uint64_t arg = 0);

  /// All currently-readable spans, newest first.
  std::vector<TraceSpan> Snapshot(size_t limit = SIZE_MAX) const;
  /// Spans belonging to one trace, oldest first (start_ns order).
  std::vector<TraceSpan> ForTrace(uint64_t trace_id) const;

  size_t capacity() const { return mask_ + 1; }
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Steady-clock nanoseconds; the time base every span uses.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  /// trace_id, start_ns, duration_ns, arg, then the name bytes.
  static constexpr size_t kWords = 4 + TraceSpan::kNameCapacity / 8;
  static_assert(TraceSpan::kNameCapacity % 8 == 0);
  /// Set in a slot's seq while its claimer is still storing the words.
  static constexpr uint64_t kWriting = uint64_t{1} << 63;

  struct Slot {
    /// 0 = never written; otherwise the 1-based ticket of the span the
    /// words hold, or are being written with (kWriting set).
    std::atomic<uint64_t> seq{0};
    /// The span as atomic words, so a reader racing a writer reads a mix
    /// of old and new words (which the seq re-check discards), never a
    /// data race.
    std::atomic<uint64_t> words[kWords] = {};
  };

  // unique_ptr<Slot[]> rather than vector<Slot>: atomics make Slot
  // immovable, and the ring never resizes anyway.
  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
};

/// Mints a process-unique nonzero trace id (splitmix64 over a global
/// counter seeded from the clock at first use).
uint64_t MintTraceId();

/// Trace id from a client-supplied X-Request-Id value: 1–16 hex digits
/// parse directly (so ids round-trip through FormatTraceId); anything else
/// is FNV-1a-hashed so arbitrary client tokens still produce a stable,
/// queryable id. Empty input mints a fresh id. Never returns 0.
uint64_t ParseOrMintTraceId(std::string_view header_value);

/// Canonical 16-lowercase-hex-digit rendering, the wire form of trace ids.
std::string FormatTraceId(uint64_t trace_id);

/// The handle threaded through engine options: a recorder plus the request
/// identity spans are attributed to. Default-constructed it is a null
/// sink — enabled() is one pointer test, and every emission helper returns
/// before touching the clock, which is what keeps the disabled path free
/// (bench_obs_micro gates this).
struct TraceContext {
  TraceRecorder* recorder = nullptr;
  uint64_t trace_id = 0;

  bool enabled() const { return recorder != nullptr && trace_id != 0; }

  /// Emits a span that started at `start_ns` and ends now.
  void EmitSince(const char* name, uint64_t start_ns, uint64_t arg = 0) const {
    if (!enabled()) return;
    const uint64_t now = TraceRecorder::NowNs();
    recorder->Record(trace_id, name, start_ns,
                     now >= start_ns ? now - start_ns : 0, arg);
  }
  /// Emits a fully-specified span (caller measured the interval).
  void Emit(const char* name, uint64_t start_ns, uint64_t duration_ns,
            uint64_t arg = 0) const {
    if (!enabled()) return;
    recorder->Record(trace_id, name, start_ns, duration_ns, arg);
  }
};

/// RAII span: stamps the clock at construction, records at destruction.
/// On a disabled context both ends are a branch on a null pointer.
class ScopedSpan {
 public:
  ScopedSpan(const TraceContext& ctx, const char* name, uint64_t arg = 0)
      : ctx_(ctx), name_(name), arg_(arg),
        start_ns_(ctx.enabled() ? TraceRecorder::NowNs() : 0) {}
  ~ScopedSpan() {
    if (ctx_.enabled()) ctx_.EmitSince(name_, start_ns_, arg_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  const TraceContext& ctx_;
  const char* name_;
  uint64_t arg_;
  uint64_t start_ns_;
};

}  // namespace receipt::obs

#endif  // RECEIPT_OBS_TRACE_H_

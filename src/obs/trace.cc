#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace receipt::obs {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

bool ParseHex(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity) {
  capacity = std::max<size_t>(capacity, 2);
  capacity = std::bit_ceil(capacity);
  slots_ = std::make_unique<Slot[]>(capacity);
  mask_ = capacity - 1;
}

void TraceRecorder::Record(uint64_t trace_id, const char* name,
                           uint64_t start_ns, uint64_t duration_ns,
                           uint64_t arg) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[ticket & mask_];
  // Claim the slot from an older, published span. Acquire orders these
  // stores after that span's; a newer ticket or an unfinished writer keeps
  // the slot, and this span is dropped.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  do {
    if ((seq & kWriting) != 0 || seq >= ticket) return;
  } while (!slot.seq.compare_exchange_weak(seq, ticket | kWriting,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
  uint64_t words[kWords] = {trace_id, start_ns, duration_ns, arg};
  const size_t len =
      std::min(::strlen(name), TraceSpan::kNameCapacity - 1);
  std::memcpy(&words[4], name, len);
  // Release stores: a reader whose acquire load sees any of these words
  // also sees the claim in its seq re-check.
  for (size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_release);
  }
  slot.seq.store(ticket, std::memory_order_release);
}

std::vector<TraceSpan> TraceRecorder::Snapshot(size_t limit) const {
  const uint64_t newest = next_.load(std::memory_order_acquire);
  const size_t capacity = mask_ + 1;
  std::vector<TraceSpan> out;
  out.reserve(std::min<uint64_t>({newest, capacity, limit}));
  // Walk tickets newest → oldest; a slot that holds another ticket (or is
  // mid-write) fails the seq check, and one rewritten mid-copy fails the
  // re-check.
  const uint64_t oldest = newest > capacity ? newest - capacity + 1 : 1;
  for (uint64_t ticket = newest; ticket >= oldest && out.size() < limit;
       --ticket) {
    const Slot& slot = slots_[ticket & mask_];
    if (slot.seq.load(std::memory_order_acquire) != ticket) continue;
    // Acquire loads keep the re-check below after every word load.
    uint64_t words[kWords] = {};
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_acquire);
    }
    if (slot.seq.load(std::memory_order_relaxed) != ticket) continue;
    TraceSpan& span = out.emplace_back();
    span.trace_id = words[0];
    span.start_ns = words[1];
    span.duration_ns = words[2];
    span.arg = words[3];
    std::memcpy(span.name, &words[4], TraceSpan::kNameCapacity);
  }
  return out;
}

std::vector<TraceSpan> TraceRecorder::ForTrace(uint64_t trace_id) const {
  std::vector<TraceSpan> spans = Snapshot();
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [trace_id](const TraceSpan& s) {
                               return s.trace_id != trace_id;
                             }),
              spans.end());
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.start_ns < b.start_ns;
            });
  return spans;
}

uint64_t MintTraceId() {
  static std::atomic<uint64_t> counter{TraceRecorder::NowNs()};
  uint64_t id = 0;
  while (id == 0) {
    id = SplitMix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

uint64_t ParseOrMintTraceId(std::string_view header_value) {
  // Trim surrounding whitespace a proxy may have introduced.
  while (!header_value.empty() &&
         (header_value.front() == ' ' || header_value.front() == '\t')) {
    header_value.remove_prefix(1);
  }
  while (!header_value.empty() &&
         (header_value.back() == ' ' || header_value.back() == '\t')) {
    header_value.remove_suffix(1);
  }
  if (header_value.empty()) return MintTraceId();
  uint64_t id = 0;
  if (!ParseHex(header_value, &id)) id = Fnv1a(header_value);
  return id == 0 ? 1 : id;
}

std::string FormatTraceId(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return std::string(buf, 16);
}

}  // namespace receipt::obs

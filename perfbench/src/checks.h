#ifndef RECEIPT_PERFBENCH_CHECKS_H_
#define RECEIPT_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/consistency.h"
#include "util/types.h"

namespace perfbench {

/// The numbers array of a decompose response, brackets included, exactly
/// as the server wrote it; empty when the body has none.
std::string_view NumbersSegment(std::string_view body);

/// The unsigned integer value of `"key":` in a flat JSON body.
bool UintField(std::string_view body, std::string_view key, uint64_t* out);

/// `numbers` serialized the way the server writes a numbers array.
std::string SerializeNumbers(const std::vector<receipt::Count>& numbers);

uint64_t Fnv1a(std::string_view bytes);

/// Alters one digit inside the numbers array of `body` (the self-test's
/// corrupted answer). False when the body has no digits to alter.
bool FlipOneNumber(std::string* body);

/// Rolls one read back in time: a client's first read of a graph and a
/// later, newer read of it swap epochs, so the later read goes backwards.
/// Falls back to a read of epoch 0, which no write made. False when the
/// log has no reads.
bool MakeStale(std::vector<receipt::cluster::TraceOp>* ops);

/// Empty when `ops` is PRAM-consistent, else the violation, formatted.
std::string CheckOpLog(const std::vector<receipt::cluster::TraceOp>& ops);

}  // namespace perfbench

#endif  // RECEIPT_PERFBENCH_CHECKS_H_

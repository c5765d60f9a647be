#ifndef RECEIPT_DURABILITY_SNAPSHOT_H_
#define RECEIPT_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "durability/journal.h"
#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt::durability {

/// One tracked (kind, partitions) configuration's sealed numbers. `bounds`
/// and `old_support` stay in the format for compatibility with snapshots
/// that carry them; the live layer writes them empty and ignores them.
struct SnapshotConfig {
  uint8_t kind = 0;  // service::RequestKind as its underlying value
  uint32_t partitions = 0;
  std::vector<Count> numbers;
  std::vector<Count> bounds;
  std::vector<Count> old_support;
};

/// Complete durable state of one live graph. Includes the *pending* edge
/// buffer: an on-demand snapshot must cover the journal up to now, and
/// acked-but-unsealed batches are part of "now".
struct SnapshotData {
  std::string graph;
  uint64_t epoch = 0;
  /// Journal position this snapshot covers: every record with
  /// lsn < (covered_segment, covered_offset) is reflected here and must be
  /// skipped on replay.
  uint64_t covered_segment = 0;
  uint64_t covered_offset = 0;
  uint32_t num_u = 0;
  uint32_t num_v = 0;
  std::vector<BipartiteGraph::Edge> edges;
  std::vector<EdgeOp> pending;
  std::vector<SnapshotConfig> configs;
};

/// Serializes to the versioned, checksummed snapshot format:
/// magic "RCPTSNP1" | version u32 | payload length u64 | crc32 | payload.
std::string EncodeSnapshot(const SnapshotData& data);

/// Parses `bytes`; fails on bad magic, version mismatch, checksum
/// mismatch, or truncation. A snapshot is all-or-nothing — there is no
/// torn-tail tolerance here, because files are only ever installed by
/// atomic rename of a fully written temp file.
bool DecodeSnapshot(const std::string& bytes, SnapshotData* data,
                    std::string* error);

/// Writes `data` to `<dir>/<sanitized graph name>.snap` via temp file +
/// fsync + atomic rename + directory fsync. The crash-point site
/// "snapshot.rename" sits between data fsync and rename.
bool WriteSnapshotFile(const std::string& dir, const SnapshotData& data,
                       std::string* error);

/// Filesystem-safe encoding of a graph name ([A-Za-z0-9._-] kept, the rest
/// hex-escaped as %XX). Injective, so distinct graphs never collide.
std::string SanitizeSnapshotName(const std::string& graph);

std::string SnapshotPath(const std::string& dir, const std::string& graph);

}  // namespace receipt::durability

#endif  // RECEIPT_DURABILITY_SNAPSHOT_H_

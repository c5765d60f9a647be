// The live seal suite: randomized insert/delete batches folded through
// LiveGraphManager seals must leave every tracked configuration
// bit-identical to a from-scratch decomposition of the sealed graph and to
// BUP / WING-BUP — across tip-U / tip-V / wing and thread counts. Plus the
// seal policy knobs, cache priming/epoch dropping, shape validation, and
// restoring snapshots (length checks, and snapshots that still carry the
// retired `bounds`/`old_support` fields).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "durability/snapshot.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "service/graph_registry.h"
#include "service/live_graph.h"
#include "service/result_cache.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt::service {
namespace {

Algorithm AlgorithmFor(RequestKind kind) {
  return kind == RequestKind::kWing ? Algorithm::kReceiptWing
                                    : Algorithm::kReceipt;
}

/// From-scratch decomposition of `graph` under `config` — the ground truth
/// every sealed result is compared against.
std::vector<Count> DirectNumbers(const BipartiteGraph& graph,
                                 const LiveConfig& config, int threads) {
  if (config.kind == RequestKind::kWing) {
    ReceiptWingOptions options;
    options.num_threads = threads;
    options.num_partitions = static_cast<int>(config.partitions);
    return ReceiptWingDecompose(graph, options).wing_numbers;
  }
  TipOptions options;
  options.side = config.kind == RequestKind::kTipV ? Side::kV : Side::kU;
  options.num_threads = threads;
  options.num_partitions = static_cast<int>(config.partitions);
  return ReceiptDecompose(graph, options).tip_numbers;
}

/// The oracle: BUP (tip) or WING-BUP (wing) on `graph`.
std::vector<Count> OracleNumbers(const BipartiteGraph& graph,
                                 const LiveConfig& config) {
  if (config.kind == RequestKind::kWing) {
    return WingDecompose(graph).wing_numbers;
  }
  TipOptions options;
  options.side = config.kind == RequestKind::kTipV ? Side::kV : Side::kU;
  return BupDecompose(graph, options).tip_numbers;
}

/// One manager + registry + cache bundle, seeded with a ChungLu graph.
struct LiveFixture {
  explicit LiveFixture(const LiveOptions& options, uint64_t seed = 11,
                       VertexId nu = 150, VertexId nv = 120,
                       uint64_t edges = 700)
      : cache(size_t{64} << 20, metrics),
        live(registry, cache, options, metrics) {
    registry.Register("g", ChungLuBipartite(nu, nv, edges, 0.6, 0.6, seed));
  }

  GraphRegistry registry;
  obs::MetricsRegistry metrics;
  ResultCache cache;
  LiveGraphManager live;
};

/// Draws a random batch against the current graph: half deletions of
/// existing edges, half inserts of random (often absent) pairs.
std::vector<EdgeUpdate> RandomBatch(const BipartiteGraph& graph,
                                    size_t batch_size, std::mt19937_64* rng) {
  const std::vector<BipartiteGraph::Edge> edges = graph.ToEdges();
  std::vector<EdgeUpdate> updates;
  updates.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    EdgeUpdate update;
    if ((*rng)() % 2 == 0 && !edges.empty()) {
      const BipartiteGraph::Edge& edge = edges[(*rng)() % edges.size()];
      update = {/*insert=*/false, edge.u, edge.v};
    } else {
      update = {/*insert=*/true,
                static_cast<VertexId>((*rng)() % graph.num_u()),
                static_cast<VertexId>((*rng)() % graph.num_v())};
    }
    updates.push_back(update);
  }
  return updates;
}

/// The core property: seal `batches` random batches and require each sealed
/// result (served from the primed cache) to be bit-identical to the direct
/// driver and to the oracle on the post-batch graph.
void RunChurn(const LiveConfig& config, int threads, uint64_t seed,
              int batches = 3, size_t batch_size = 24) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;  // seal only when forced
  LiveFixture fx(options, seed);
  std::string error;
  ASSERT_EQ(fx.live.Track("g", config, threads, &error), Status::kOk)
      << error;

  std::mt19937_64 rng(seed * 7919 + 17);
  for (int b = 0; b < batches; ++b) {
    std::vector<EdgeUpdate> updates;
    {
      const GraphHandle before = fx.registry.Acquire("g");
      updates = RandomBatch(before.graph(), batch_size, &rng);
    }
    const ApplyResult result =
        fx.live.ApplyEdges("g", updates, /*force_seal=*/true, threads);
    ASSERT_EQ(result.status, Status::kOk) << result.error;
    ASSERT_TRUE(result.sealed);
    ASSERT_EQ(result.reports.size(), 1u);

    const GraphHandle after = fx.registry.Acquire("g");
    ASSERT_EQ(after.epoch(), result.epoch);
    const auto payload = fx.cache.Get(CacheKey{
        "g", result.epoch, config.kind, AlgorithmFor(config.kind),
        config.partitions});
    ASSERT_NE(payload, nullptr) << "seal did not prime the cache";
    EXPECT_EQ(payload->numbers,
              DirectNumbers(after.graph(), config, threads))
        << "batch " << b << " diverged (threads=" << threads << ")";
    EXPECT_EQ(payload->numbers, OracleNumbers(after.graph(), config))
        << "batch " << b << " differs from the oracle (threads=" << threads
        << ")";
  }
  const LiveGraphManager::Stats stats = fx.live.stats();
  EXPECT_EQ(stats.seals_total, static_cast<uint64_t>(batches));
  EXPECT_EQ(stats.runs_full, static_cast<uint64_t>(batches));
}

TEST(LiveSealTest, TipUAcrossThreadCounts) {
  for (const int threads : {1, 2, 4}) {
    RunChurn({RequestKind::kTipU, 6}, threads, 101);
  }
}

TEST(LiveSealTest, TipVAcrossThreadCounts) {
  for (const int threads : {1, 2, 4}) {
    RunChurn({RequestKind::kTipV, 6}, threads, 202);
  }
}

TEST(LiveSealTest, WingAcrossThreadCounts) {
  for (const int threads : {1, 2, 4}) {
    RunChurn({RequestKind::kWing, 8}, threads, 303);
  }
}

// One seal updates every tracked configuration of the graph.
TEST(LiveSealTest, MultiConfigSealKeepsAllConfigsIdentical) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;
  LiveFixture fx(options, /*seed=*/31);
  const std::vector<LiveConfig> configs = {{RequestKind::kTipU, 6},
                                           {RequestKind::kTipV, 5},
                                           {RequestKind::kWing, 8}};
  for (const LiveConfig& config : configs) {
    std::string error;
    ASSERT_EQ(fx.live.Track("g", config, 2, &error), Status::kOk) << error;
  }

  std::mt19937_64 rng(99);
  std::vector<EdgeUpdate> updates;
  {
    const GraphHandle before = fx.registry.Acquire("g");
    updates = RandomBatch(before.graph(), 20, &rng);
  }
  const ApplyResult result =
      fx.live.ApplyEdges("g", updates, /*force_seal=*/true, 2);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  ASSERT_EQ(result.reports.size(), configs.size());

  const GraphHandle after = fx.registry.Acquire("g");
  for (const LiveConfig& config : configs) {
    const auto payload = fx.cache.Get(CacheKey{
        "g", result.epoch, config.kind, AlgorithmFor(config.kind),
        config.partitions});
    ASSERT_NE(payload, nullptr) << RequestKindName(config.kind);
    EXPECT_EQ(payload->numbers, DirectNumbers(after.graph(), config, 2))
        << RequestKindName(config.kind);
    EXPECT_EQ(payload->numbers, OracleNumbers(after.graph(), config))
        << RequestKindName(config.kind);
  }
}

// Each seal is one plain run per tracked config: the report names the run's
// subsets, runs_full counts it, and the counters kept for perfbench stay 0.
TEST(LiveSealTest, EverySealRunsEachTrackedConfigOnce) {
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;
  LiveFixture fx(options, /*seed=*/41);
  const std::vector<LiveConfig> configs = {{RequestKind::kTipU, 6},
                                           {RequestKind::kWing, 4}};
  for (const LiveConfig& config : configs) {
    std::string error;
    ASSERT_EQ(fx.live.Track("g", config, 2, &error), Status::kOk) << error;
  }
  std::mt19937_64 rng(5);
  for (int b = 0; b < 2; ++b) {
    const std::vector<EdgeUpdate> updates =
        RandomBatch(fx.registry.Acquire("g").graph(), 16, &rng);
    const ApplyResult result =
        fx.live.ApplyEdges("g", updates, /*force_seal=*/true, 2);
    ASSERT_EQ(result.status, Status::kOk) << result.error;
    ASSERT_EQ(result.reports.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      EXPECT_EQ(result.reports[i].config, configs[i]);
      EXPECT_GT(result.reports[i].subsets_total, 0u);
    }
  }
  const LiveGraphManager::Stats stats = fx.live.stats();
  EXPECT_EQ(stats.baselines_built, configs.size());
  EXPECT_EQ(stats.seals_total, 2u);
  EXPECT_EQ(stats.runs_full, 2 * configs.size());
  EXPECT_EQ(stats.runs_incremental, 0u);
  EXPECT_EQ(stats.ranges_reused, 0u);
  EXPECT_EQ(stats.ranges_repeeled, 0u);
}

// A snapshot whose numbers do not fit the graph is refused before anything
// is installed: no registration, no cache entry.
TEST(LiveSnapshotTest, NumbersOfTheWrongLengthAreRejected) {
  const BipartiteGraph graph = CompleteBipartite(4, 4);
  for (const RequestKind kind :
       {RequestKind::kTipU, RequestKind::kTipV, RequestKind::kWing}) {
    GraphRegistry registry;
    obs::MetricsRegistry metrics;
    ResultCache cache(size_t{1} << 20, metrics);
    LiveGraphManager live(registry, cache, LiveOptions{}, metrics);
    durability::SnapshotData data;
    data.graph = "g";
    data.epoch = 3;
    data.num_u = graph.num_u();
    data.num_v = graph.num_v();
    data.edges = graph.ToEdges();
    durability::SnapshotConfig config;
    config.kind = static_cast<uint8_t>(kind);
    config.partitions = 4;
    config.numbers = {9};
    data.configs.push_back(config);
    std::string error;
    EXPECT_EQ(live.RestoreSnapshot(data, &error), Status::kBadRequest)
        << RequestKindName(kind);
    EXPECT_NE(error.find("numbers"), std::string::npos) << error;
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(live.PendingEdges("g"), 0u);
  }
}

// Snapshots written before the seal path lost its replay state still carry
// the coarse bounds and initial supports of each config. They restore, the
// restored config counts as tracked (a batch that lists it runs nothing),
// and the next seal serves the plain decomposition of the sealed graph.
TEST(LiveSnapshotTest, SnapshotsWithBoundsAndSupportsStillRestore) {
  const BipartiteGraph graph = ChungLuBipartite(60, 50, 260, 0.6, 0.6, 17);
  const LiveConfig config{RequestKind::kTipU, 6};
  const TipResult sealed = [&] {
    TipOptions options;
    options.num_partitions = static_cast<int>(config.partitions);
    return ReceiptDecompose(graph, options);
  }();

  durability::SnapshotData data;
  data.graph = "g";
  data.epoch = 5;
  data.num_u = graph.num_u();
  data.num_v = graph.num_v();
  data.edges = graph.ToEdges();
  const BipartiteGraph::Edge present = data.edges.front();
  data.pending = {{true, 0, 0}, {false, present.u, present.v}};
  durability::SnapshotConfig snap;
  snap.kind = static_cast<uint8_t>(config.kind);
  snap.partitions = config.partitions;
  snap.numbers = sealed.tip_numbers;
  snap.bounds = sealed.range_bounds;
  snap.old_support.assign(graph.num_u(), 7);
  data.configs.push_back(snap);

  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;
  GraphRegistry registry;
  obs::MetricsRegistry metrics;
  ResultCache cache(size_t{64} << 20, metrics);
  LiveGraphManager live(registry, cache, options, metrics);
  std::string error;
  ASSERT_EQ(live.RestoreSnapshot(data, &error), Status::kOk) << error;
  EXPECT_EQ(registry.Acquire("g").epoch(), 5u);
  EXPECT_EQ(live.PendingEdges("g"), 2u);
  const auto restored = cache.Get(
      CacheKey{"g", 5, config.kind, Algorithm::kReceipt, config.partitions});
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->numbers, sealed.tip_numbers);

  const std::vector<EdgeUpdate> batch = {{true, 2, 3}};
  const std::vector<LiveConfig> track = {config};
  const ApplyResult result =
      live.ApplyEdges("g", batch, /*force_seal=*/true, 2, track);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  ASSERT_TRUE(result.sealed);
  EXPECT_EQ(live.stats().baselines_built, 0u);
  ASSERT_EQ(result.reports.size(), 1u);

  // The seal folded the restored buffer and then the batch.
  std::set<BipartiteGraph::Edge> expected(data.edges.begin(),
                                          data.edges.end());
  std::vector<EdgeUpdate> folded = data.pending;
  folded.insert(folded.end(), batch.begin(), batch.end());
  for (const EdgeUpdate& update : folded) {
    if (update.insert) {
      expected.insert({update.u, update.v});
    } else {
      expected.erase({update.u, update.v});
    }
  }
  const GraphHandle after = registry.Acquire("g");
  EXPECT_EQ(after.graph().ToEdges(),
            std::vector<BipartiteGraph::Edge>(expected.begin(),
                                              expected.end()));
  const auto payload = cache.Get(CacheKey{"g", result.epoch, config.kind,
                                          Algorithm::kReceipt,
                                          config.partitions});
  ASSERT_NE(payload, nullptr);
  TipOptions direct;
  direct.num_partitions = static_cast<int>(config.partitions);
  EXPECT_EQ(payload->numbers,
            ReceiptDecompose(after.graph(), direct).tip_numbers);
}

TEST(LiveSealPolicyTest, BatchesBufferUntilThresholdThenSeal) {
  LiveOptions options;
  options.max_pending_edges = 5;
  LiveFixture fx(options);
  const LiveConfig config{RequestKind::kTipU, 6};
  std::string error;
  ASSERT_EQ(fx.live.Track("g", config, 1, &error), Status::kOk) << error;
  const uint64_t epoch_before = fx.registry.Acquire("g").epoch();

  const std::vector<EdgeUpdate> three = {{true, 0, 0}, {true, 1, 1},
                                         {true, 2, 2}};
  ApplyResult result =
      fx.live.ApplyEdges("g", three, /*force_seal=*/false, 1);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  EXPECT_FALSE(result.sealed);
  EXPECT_EQ(result.pending, 3u);
  EXPECT_EQ(fx.live.PendingEdges("g"), 3u);
  EXPECT_EQ(fx.registry.Acquire("g").epoch(), epoch_before);

  // Two more crosses max_pending_edges: the batch seals and the epoch bumps.
  const std::vector<EdgeUpdate> two = {{true, 3, 3}, {true, 4, 4}};
  result = fx.live.ApplyEdges("g", two, /*force_seal=*/false, 1);
  ASSERT_EQ(result.status, Status::kOk) << result.error;
  EXPECT_TRUE(result.sealed);
  EXPECT_EQ(result.pending, 0u);
  EXPECT_EQ(fx.live.PendingEdges("g"), 0u);
  EXPECT_GT(result.epoch, epoch_before);
}

TEST(LiveSealPolicyTest, OutOfShapeUpdatesRejectTheWholeBatch) {
  LiveOptions options;
  LiveFixture fx(options);
  const std::vector<EdgeUpdate> batch = {{true, 1, 1}, {true, 100000, 0}};
  const ApplyResult result =
      fx.live.ApplyEdges("g", batch, /*force_seal=*/false, 1);
  EXPECT_EQ(result.status, Status::kBadRequest);
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_EQ(fx.live.PendingEdges("g"), 0u);  // nothing buffered
}

TEST(LiveSealPolicyTest, UnknownGraphIsNotFound) {
  LiveOptions options;
  LiveFixture fx(options);
  std::string error;
  EXPECT_EQ(fx.live.Track("nope", {RequestKind::kTipU, 6}, 1, &error),
            Status::kNotFound);
  const std::vector<EdgeUpdate> batch = {{true, 0, 0}};
  EXPECT_EQ(fx.live.ApplyEdges("nope", batch, true, 1).status,
            Status::kNotFound);
}

TEST(ResultCacheTest, DropEpochRemovesExactlyThatEpoch) {
  obs::MetricsRegistry metrics;
  ResultCache cache(size_t{1} << 20, metrics);
  auto payload = std::make_shared<Payload>();
  payload->numbers = {1, 2, 3};
  const CacheKey old_key{"g", 1, RequestKind::kTipU, Algorithm::kReceipt, 6};
  const CacheKey old_key2{"g", 1, RequestKind::kWing,
                          Algorithm::kReceiptWing, 8};
  const CacheKey live_key{"g", 2, RequestKind::kTipU, Algorithm::kReceipt, 6};
  cache.Put(old_key, payload);
  cache.Put(old_key2, payload);
  cache.Put(live_key, payload);

  EXPECT_EQ(cache.DropEpoch(1), 2u);
  EXPECT_EQ(cache.Get(old_key), nullptr);
  EXPECT_EQ(cache.Get(old_key2), nullptr);
  EXPECT_NE(cache.Get(live_key), nullptr);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.epoch_drops, 2u);
  EXPECT_EQ(stats.entries, 1u);
  // Dropping an epoch with no entries is a harmless no-op.
  EXPECT_EQ(cache.DropEpoch(1), 0u);
}

}  // namespace
}  // namespace receipt::service

// Tests for the decomposition service layer: registry epochs and handle
// lifetimes, request execution correctness under concurrency and across
// worker counts, result caching, coalescing, the one shared task queue and
// its bound, same-graph batching, cross-request workspace reuse,
// cancellation, shutdown semantics, and live-tracking baseline reuse.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/peel_control.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "service/live_graph.h"
#include "service/result_cache.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt::service {
namespace {

BipartiteGraph G1() { return ChungLuBipartite(300, 200, 1500, 0.6, 0.6, 101); }
BipartiteGraph G2() { return ChungLuBipartite(220, 260, 1200, 0.5, 0.8, 202); }

Request MakeRequest(const std::string& graph, RequestKind kind,
                    Algorithm algorithm, int partitions = 6,
                    int threads = 2) {
  Request request;
  request.graph = graph;
  request.kind = kind;
  request.algorithm = algorithm;
  request.partitions = partitions;
  request.threads = threads;
  return request;
}

TEST(GraphRegistryTest, SurfacesLoadErrorsCleanly) {
  GraphRegistry registry;
  std::string error;

  EXPECT_FALSE(registry.LoadFile("missing", "/nonexistent/g.konect", &error));
  EXPECT_NE(error.find("/nonexistent/g.konect"), std::string::npos) << error;

  const std::string malformed = testing::TempDir() + "/malformed.konect";
  {
    std::ofstream out(malformed);
    out << "1 1\nnot-a-number 2\n";
  }
  EXPECT_FALSE(registry.LoadFile("bad", malformed, &error));
  EXPECT_NE(error.find("malformed line"), std::string::npos) << error;

  const std::string empty = testing::TempDir() + "/zero.bin";
  { std::ofstream out(empty); }
  EXPECT_FALSE(registry.LoadFile("empty", empty, &error));
  EXPECT_NE(error.find("empty file"), std::string::npos) << error;

  // Failed loads leave the registry untouched.
  EXPECT_EQ(registry.size(), 0u);

  const std::string good = testing::TempDir() + "/good.konect";
  ASSERT_TRUE(SaveKonect(G1(), good));
  ASSERT_TRUE(registry.LoadFile("g1", good, &error)) << error;
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.Acquire("g1"));
}

TEST(GraphRegistryTest, HandleKeepsGraphAliveThroughEviction) {
  GraphRegistry registry;
  const uint64_t epoch1 = registry.Register("g", G1());
  GraphHandle handle = registry.Acquire("g");
  ASSERT_TRUE(handle);
  EXPECT_EQ(handle.epoch(), epoch1);

  ASSERT_TRUE(registry.Evict("g"));
  EXPECT_FALSE(registry.Acquire("g"));
  EXPECT_FALSE(registry.Evict("g"));

  // The held handle still pins a fully usable graph.
  EXPECT_TRUE(handle.graph().Validate().empty());
  TipOptions options;
  options.num_threads = 1;
  const TipResult result = BupDecompose(handle.graph(), options);
  EXPECT_EQ(result.tip_numbers.size(), handle.graph().num_u());

  // Re-registration installs a fresh epoch; the old handle is unaffected.
  const uint64_t epoch2 = registry.Register("g", G2());
  EXPECT_GT(epoch2, epoch1);
  EXPECT_EQ(handle.epoch(), epoch1);
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  auto make_payload = [](size_t n) {
    auto payload = std::make_shared<Payload>();
    payload->numbers.assign(n, 7);
    return payload;
  };
  const size_t one = make_payload(100)->ApproxBytes();
  obs::MetricsRegistry metrics;
  ResultCache cache(2 * one, metrics);

  const CacheKey a{"g", 1, RequestKind::kTipU, Algorithm::kReceipt, 6};
  const CacheKey b{"g", 2, RequestKind::kTipU, Algorithm::kReceipt, 6};
  const CacheKey c{"g", 3, RequestKind::kTipU, Algorithm::kReceipt, 6};
  cache.Put(a, make_payload(100));
  cache.Put(b, make_payload(100));
  EXPECT_NE(cache.Get(a), nullptr);  // promotes a over b
  cache.Put(c, make_payload(100));   // evicts b, the LRU entry
  EXPECT_NE(cache.Get(a), nullptr);
  EXPECT_EQ(cache.Get(b), nullptr);
  EXPECT_NE(cache.Get(c), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 2 * one);

  ResultCache disabled(0, metrics);
  disabled.Put(a, make_payload(10));
  EXPECT_EQ(disabled.Get(a), nullptr);
  EXPECT_EQ(disabled.stats().entries, 0u);
}

TEST(DecompositionServiceTest, ConcurrentMixedRequestsMatchDirectDrivers) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  registry.Register("g2", G2());

  TipOptions direct;
  direct.num_threads = 2;
  direct.num_partitions = 6;
  const std::vector<Count> tip_u_g1 =
      ReceiptDecompose(G1(), direct).tip_numbers;
  direct.side = Side::kV;
  const std::vector<Count> tip_v_g2 =
      ReceiptDecompose(G2(), direct).tip_numbers;
  ReceiptWingOptions wing_direct;
  wing_direct.num_threads = 2;
  wing_direct.num_partitions = 4;
  const std::vector<Count> wing_g1 =
      ReceiptWingDecompose(G1(), wing_direct).wing_numbers;
  const std::vector<Count> wing_g2 = WingDecompose(G2(), 2).wing_numbers;

  ServiceOptions service_options;
  service_options.num_workers = 3;
  DecompositionService service(registry, service_options);

  struct Check {
    Request request;
    const std::vector<Count>* expected;
  };
  const std::vector<Check> checks = {
      {MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt), &tip_u_g1},
      {MakeRequest("g1", RequestKind::kTipU, Algorithm::kBup), &tip_u_g1},
      {MakeRequest("g1", RequestKind::kTipU, Algorithm::kParb), &tip_u_g1},
      {MakeRequest("g2", RequestKind::kTipV, Algorithm::kReceipt), &tip_v_g2},
      {MakeRequest("g1", RequestKind::kWing, Algorithm::kReceiptWing, 4),
       &wing_g1},
      {MakeRequest("g2", RequestKind::kWing, Algorithm::kWingBup, 4),
       &wing_g2},
  };

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&checks, &service, &failures, c] {
      for (size_t i = 0; i < checks.size(); ++i) {
        const Check& check = checks[(i + static_cast<size_t>(c)) %
                                    checks.size()];
        const Response response = service.Execute(check.request);
        if (response.status != Status::kOk || response.payload == nullptr ||
            response.payload->numbers != *check.expected) {
          ++failures;
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  // Every distinct request ran the engine exactly once; all repeats were
  // coalesced with an in-flight twin or served from the cache.
  EXPECT_EQ(service.stats().engine_runs, checks.size());
  EXPECT_EQ(service.stats().submitted,
            static_cast<uint64_t>(kClients * checks.size()));
}

TEST(DecompositionServiceTest, RepeatedRequestServedFromCache) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  DecompositionService service(registry, {.num_workers = 1});

  const Request request =
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt);
  const Response first = service.Execute(request);
  ASSERT_EQ(first.status, Status::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(service.stats().engine_runs, 1u);
  const uint64_t wedges = first.payload->stats.TotalWedges();
  EXPECT_GT(wedges, 0u);

  const Response second = service.Execute(request);
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_TRUE(second.cache_hit);
  // The engine did not run again: no new run counted, and the payload —
  // wedge counters included — is the very object the first run produced.
  EXPECT_EQ(service.stats().engine_runs, 1u);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_EQ(second.payload->stats.TotalWedges(), wedges);
  EXPECT_GE(service.cache_stats().hits, 1u);
}

TEST(DecompositionServiceTest, PartitionAgnosticAlgorithmsShareCacheEntries) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  DecompositionService service(registry, {.num_workers = 0});

  // BUP ignores `partitions`, so the key must too: any value hits the
  // entry the first run produced.
  const Response first = service.Execute(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kBup, 8));
  ASSERT_EQ(first.status, Status::kOk);
  const Response second = service.Execute(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kBup, 150));
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(service.stats().engine_runs, 1u);
}

TEST(DecompositionServiceTest, CacheIsKeyedByGraphEpoch) {
  GraphRegistry registry;
  registry.Register("g", G1());
  DecompositionService service(registry, {.num_workers = 1});

  const Request request =
      MakeRequest("g", RequestKind::kTipU, Algorithm::kReceipt);
  const Response first = service.Execute(request);
  ASSERT_EQ(first.status, Status::kOk);

  // Same name, new registration: the old epoch's cache entry must not
  // serve the new graph.
  registry.Register("g", G2());
  const Response second = service.Execute(request);
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_NE(second.graph_epoch, first.graph_epoch);
  EXPECT_EQ(service.stats().engine_runs, 2u);
  EXPECT_EQ(second.payload->numbers.size(), G2().num_u());
}

TEST(DecompositionServiceTest, EvictedGraphRejectedButHeldRequestsFinish) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  // No background workers: queued tasks hold their handles across the
  // eviction below and only execute afterwards — deterministically.
  ServiceOptions service_options;
  service_options.num_workers = 0;
  DecompositionService service(registry, service_options);

  auto future = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt));
  ASSERT_TRUE(registry.Evict("g1"));

  // New submits fail fast; the queued request still owns the graph. (Submit,
  // not Execute: with zero workers Execute would drain the queue itself.)
  const Response rejected =
      service.Submit(MakeRequest("g1", RequestKind::kTipU, Algorithm::kBup))
          .get();
  EXPECT_EQ(rejected.status, Status::kNotFound);
  EXPECT_NE(rejected.error.find("g1"), std::string::npos);

  EXPECT_EQ(service.RunQueuedInline(), 1u);
  const Response response = future.get();
  ASSERT_EQ(response.status, Status::kOk);
  TipOptions direct;
  direct.num_threads = 2;
  direct.num_partitions = 6;
  EXPECT_EQ(response.payload->numbers,
            ReceiptDecompose(G1(), direct).tip_numbers);
}

TEST(DecompositionServiceTest, CoalescingSharesOneEngineRun) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  ServiceOptions service_options;
  service_options.num_workers = 0;
  DecompositionService service(registry, service_options);

  const Request request =
      MakeRequest("g1", RequestKind::kWing, Algorithm::kReceiptWing, 4);
  auto first = service.Submit(request);
  auto second = service.Submit(request);

  EXPECT_EQ(service.RunQueuedInline(), 1u);
  const Response r1 = first.get();
  const Response r2 = second.get();
  ASSERT_EQ(r1.status, Status::kOk);
  EXPECT_EQ(r1.payload, r2.payload);
  EXPECT_TRUE(r1.coalesced);
  EXPECT_EQ(service.stats().engine_runs, 1u);
  EXPECT_EQ(service.stats().coalesced, 1u);
}

TEST(DecompositionServiceTest, BatchingGroupsSameGraphRequests) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  registry.Register("g2", G2());
  ServiceOptions service_options;
  service_options.num_workers = 0;
  DecompositionService service(registry, service_options);

  // Distinct partition counts keep the three g1 requests from coalescing.
  auto a = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 4));
  auto x = service.Submit(
      MakeRequest("g2", RequestKind::kTipU, Algorithm::kReceipt, 4));
  auto b = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 6));
  auto c = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 8));

  EXPECT_EQ(service.RunQueuedInline(), 4u);
  // The first pop took the g1 head plus both later g1 requests as one
  // warm-workspace batch, leaving g2 for the second pop.
  EXPECT_EQ(service.stats().batched_follow_ons, 2u);
  EXPECT_EQ(service.stats().engine_runs, 4u);
  for (auto* future : {&a, &x, &b, &c}) {
    EXPECT_EQ(future->get().status, Status::kOk);
  }
}

TEST(DecompositionServiceTest, WorkspaceGrowthsFlatAfterWarmup) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  registry.Register("g2", G2());
  ServiceOptions service_options;
  service_options.num_workers = 0;   // single deterministic inline pool
  service_options.cache_bytes = 0;   // force an engine run every time
  DecompositionService service(registry, service_options);

  // threads=1: which workspace serves which FD partition is deterministic.
  const std::vector<Request> mix = {
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 6, 1),
      MakeRequest("g2", RequestKind::kTipU, Algorithm::kReceipt, 6, 1),
      MakeRequest("g1", RequestKind::kWing, Algorithm::kReceiptWing, 4, 1),
      MakeRequest("g2", RequestKind::kTipV, Algorithm::kBup, 6, 1),
  };
  auto run_mix = [&service, &mix] {
    std::vector<std::shared_future<Response>> futures;
    for (const Request& request : mix) futures.push_back(service.Submit(request));
    service.RunQueuedInline();
    for (auto& future : futures) {
      EXPECT_EQ(future.get().status, Status::kOk);
      EXPECT_FALSE(future.get().cache_hit);
    }
  };

  run_mix();  // warmup: buffers grow to the largest resident shape
  const uint64_t growths_warm = service.WorkspaceGrowths();
  EXPECT_GT(growths_warm, 0u);
  run_mix();
  run_mix();
  EXPECT_EQ(service.WorkspaceGrowths(), growths_warm);
  EXPECT_EQ(service.stats().engine_runs, 3 * mix.size());
}

TEST(DecompositionServiceTest, RejectsMismatchedKindAndAlgorithm) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  DecompositionService service(registry, {.num_workers = 0});

  const Response tip_with_wing = service.Execute(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceiptWing));
  EXPECT_EQ(tip_with_wing.status, Status::kBadRequest);
  const Response wing_with_tip = service.Execute(
      MakeRequest("g1", RequestKind::kWing, Algorithm::kReceipt));
  EXPECT_EQ(wing_with_tip.status, Status::kBadRequest);
}

TEST(DecompositionServiceTest, TrySubmitRespectsQueueBound) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  ServiceOptions service_options;
  service_options.num_workers = 0;
  service_options.queue_capacity = 2;
  DecompositionService service(registry, service_options);

  auto a = service.TrySubmit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 4));
  auto b = service.TrySubmit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 6));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(service
                   .TrySubmit(MakeRequest("g1", RequestKind::kTipU,
                                          Algorithm::kReceipt, 8))
                   .has_value());
  // Coalescing still works at capacity: an identical request joins a
  // queued twin instead of needing a slot.
  auto twin = service.TrySubmit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 4));
  ASSERT_TRUE(twin.has_value());

  service.RunQueuedInline();
  EXPECT_EQ(a->get().status, Status::kOk);
  EXPECT_EQ(twin->get().status, Status::kOk);
}

TEST(DecompositionServiceTest, QueueBoundIsSharedAcrossGraphs) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  registry.Register("g2", G2());
  registry.Register("g3", ChungLuBipartite(200, 150, 900, 0.6, 0.6, 13));
  ServiceOptions service_options;
  service_options.num_workers = 0;
  service_options.queue_capacity = 2;
  DecompositionService service(registry, service_options);

  // Requests for different graphs draw on the same slots.
  auto a = service.TrySubmit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 4));
  auto b = service.TrySubmit(
      MakeRequest("g2", RequestKind::kTipU, Algorithm::kReceipt, 4));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(service.QueueDepth(), 2u);
  EXPECT_FALSE(service
                   .TrySubmit(MakeRequest("g3", RequestKind::kTipU,
                                          Algorithm::kReceipt, 4))
                   .has_value());

  EXPECT_EQ(service.RunQueuedInline(), 2u);
  EXPECT_EQ(service.QueueDepth(), 0u);
  auto c = service.TrySubmit(
      MakeRequest("g3", RequestKind::kTipU, Algorithm::kReceipt, 4));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(service.RunQueuedInline(), 1u);
  for (auto* future : {&a, &b, &c}) {
    EXPECT_EQ((*future)->get().status, Status::kOk);
  }
}

TEST(DecompositionServiceTest, OneQueueHoldsEveryGraphUntilDrained) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  registry.Register("g2", G2());
  registry.Register("g3", ChungLuBipartite(190, 160, 920, 0.6, 0.6, 13));
  registry.Register("g4", ChungLuBipartite(205, 155, 940, 0.6, 0.6, 14));
  ServiceOptions service_options;
  service_options.num_workers = 0;
  DecompositionService service(registry, service_options);

  std::vector<std::shared_future<Response>> futures;
  for (const char* name : {"g1", "g2", "g3", "g4"}) {
    futures.push_back(service.Submit(
        MakeRequest(name, RequestKind::kTipU, Algorithm::kReceipt, 5, 1)));
  }
  futures.push_back(service.Submit(
      MakeRequest("g2", RequestKind::kTipU, Algorithm::kReceipt, 6, 1)));
  EXPECT_EQ(service.QueueDepth(), 5u);

  // Distinct graphs pop one at a time; the repeated g2 request rides along
  // with the first one as a same-epoch batch.
  EXPECT_EQ(service.RunQueuedInline(), 5u);
  EXPECT_EQ(service.QueueDepth(), 0u);
  EXPECT_EQ(service.stats().engine_runs, 5u);
  EXPECT_EQ(service.stats().batched_follow_ons, 1u);
  for (const auto& future : futures) {
    EXPECT_EQ(future.get().status, Status::kOk);
  }
}

TEST(DecompositionServiceTest, ResultsIdenticalAcrossWorkerCounts) {
  const BipartiteGraph graph = ChungLuBipartite(220, 160, 1100, 0.7, 0.7, 21);
  GraphRegistry registry_a;
  registry_a.Register("g", graph);
  ServiceOptions options_a;
  options_a.num_workers = 0;
  DecompositionService service_a(registry_a, options_a);

  GraphRegistry registry_b;
  registry_b.Register("g", graph);
  ServiceOptions options_b;
  options_b.num_workers = 3;
  DecompositionService service_b(registry_b, options_b);

  for (const RequestKind kind : {RequestKind::kTipU, RequestKind::kWing}) {
    const Algorithm algorithm = kind == RequestKind::kWing
                                    ? Algorithm::kReceiptWing
                                    : Algorithm::kReceipt;
    const Response a = service_a.Execute(MakeRequest("g", kind, algorithm, 6));
    const Response b = service_b.Execute(MakeRequest("g", kind, algorithm, 6));
    ASSERT_EQ(a.status, Status::kOk);
    ASSERT_EQ(b.status, Status::kOk);
    ASSERT_NE(a.payload, nullptr);
    ASSERT_NE(b.payload, nullptr);
    EXPECT_EQ(a.payload->numbers, b.payload->numbers);
  }
}

TEST(DecompositionServiceTest, ExecuteDrainsFullQueueWithoutWorkers) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  ServiceOptions service_options;
  service_options.num_workers = 0;
  service_options.queue_capacity = 2;
  DecompositionService service(registry, service_options);

  auto a = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 4));
  auto b = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 6));
  // Queue is full and no worker exists: Execute must drain inline instead
  // of blocking in Submit forever.
  const Response inline_run = service.Execute(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 8));
  EXPECT_EQ(inline_run.status, Status::kOk);
  EXPECT_EQ(a.get().status, Status::kOk);
  EXPECT_EQ(b.get().status, Status::kOk);
}

TEST(DecompositionServiceTest, NonDrainingShutdownCancelsQueuedWork) {
  GraphRegistry registry;
  registry.Register("g1", G1());
  ServiceOptions service_options;
  service_options.num_workers = 0;
  DecompositionService service(registry, service_options);

  auto a = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 4));
  auto b = service.Submit(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 6));
  service.Shutdown(/*drain=*/false);

  EXPECT_EQ(a.get().status, Status::kCancelled);
  EXPECT_EQ(b.get().status, Status::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 2u);

  const Response late = service.Execute(
      MakeRequest("g1", RequestKind::kTipU, Algorithm::kReceipt, 8));
  EXPECT_EQ(late.status, Status::kShutdown);
}

// A batch that names a tracked configuration builds its baseline only when
// none is valid on the current epoch: the second batch and the batch after
// a seal reuse it (the seal refreshed it); an explicit Track() rebuilds.
TEST(LiveTrackingTest, TrackedBatchesReuseTheBaseline) {
  GraphRegistry registry;
  obs::MetricsRegistry metrics;
  ResultCache cache(size_t{16} << 20, metrics);
  LiveOptions options;
  options.max_pending_edges = size_t{1} << 30;  // seal only when forced
  LiveGraphManager live(registry, cache, options, metrics);
  registry.Register("g", ChungLuBipartite(400, 300, 2000, 0.6, 0.6, 7));
  const std::vector<LiveConfig> track = {{RequestKind::kTipU, 10}};
  const std::vector<BipartiteGraph::Edge> edges =
      registry.Acquire("g").graph().ToEdges();

  const auto apply = [&](size_t edge, bool seal) {
    const std::vector<EdgeUpdate> batch = {
        {false, edges[edge].u, edges[edge].v}};
    const ApplyResult result = live.ApplyEdges("g", batch, seal, 2, track);
    ASSERT_EQ(result.status, Status::kOk) << result.error;
  };
  apply(42, /*seal=*/false);
  EXPECT_EQ(live.stats().baselines_built, 1u);
  apply(43, /*seal=*/false);
  EXPECT_EQ(live.stats().baselines_built, 1u);
  apply(44, /*seal=*/true);
  EXPECT_EQ(live.stats().baselines_built, 1u);
  apply(45, /*seal=*/false);
  EXPECT_EQ(live.stats().baselines_built, 1u);

  std::string error;
  ASSERT_EQ(live.Track("g", track[0], 2, &error), Status::kOk) << error;
  EXPECT_EQ(live.stats().baselines_built, 2u);
}

// A re-registration supersedes the updates buffered against the graph it
// replaced: the next seal folds only what was sent after it, onto the new
// edge set.
TEST(LiveTrackingTest, ReRegistrationDropsUpdatesBufferedBeforeIt) {
  GraphRegistry registry;
  ServiceOptions options;
  options.num_workers = 0;
  DecompositionService service(registry, options);
  std::string error;
  ASSERT_EQ(service.RegisterGraph(
                "g", BipartiteGraph::FromEdges(4, 4, {{0, 0}, {1, 1}}),
                nullptr, &error),
            Status::kOk)
      << error;
  const std::vector<EdgeUpdate> before = {{true, 0, 3}};
  ASSERT_EQ(service.live().ApplyEdges("g", before, /*force_seal=*/false)
                .status,
            Status::kOk);

  uint64_t epoch = 0;
  ASSERT_EQ(service.RegisterGraph(
                "g", BipartiteGraph::FromEdges(4, 4, {{2, 2}, {3, 3}}),
                &epoch, &error),
            Status::kOk)
      << error;
  EXPECT_EQ(service.live().PendingEdges("g"), 0u);

  const std::vector<EdgeUpdate> after = {{true, 1, 2}};
  const ApplyResult sealed =
      service.live().ApplyEdges("g", after, /*force_seal=*/true);
  ASSERT_EQ(sealed.status, Status::kOk) << sealed.error;
  ASSERT_TRUE(sealed.sealed);
  EXPECT_GT(sealed.epoch, epoch);
  const std::vector<BipartiteGraph::Edge> expected = {{1, 2}, {2, 2}, {3, 3}};
  EXPECT_EQ(registry.Acquire("g").graph().ToEdges(), expected);
}

TEST(PeelControlTest, PreCancelledRunsReturnImmediatelyIncomplete) {
  const BipartiteGraph g = G1();

  engine::PeelControl tip_control;
  tip_control.RequestCancel();
  TipOptions tip_options;
  tip_options.num_threads = 2;
  tip_options.num_partitions = 6;
  tip_options.control = &tip_control;
  const TipResult tip = ReceiptDecompose(g, tip_options);
  EXPECT_TRUE(tip_control.Cancelled());
  for (const Count t : tip.tip_numbers) EXPECT_EQ(t, 0u);

  engine::PeelControl wing_control;
  wing_control.RequestCancel();
  ReceiptWingOptions wing_options;
  wing_options.num_threads = 2;
  wing_options.num_partitions = 4;
  wing_options.control = &wing_control;
  const WingResult wing = ReceiptWingDecompose(g, wing_options);
  for (const Count w : wing.wing_numbers) EXPECT_EQ(w, 0u);
}

TEST(PeelControlTest, ReportsProgressMatchingPeelIterations) {
  const BipartiteGraph g = G1();
  engine::PeelControl control;
  TipOptions options;
  options.num_threads = 1;
  options.control = &control;
  const TipResult result = BupDecompose(g, options);
  EXPECT_FALSE(control.Cancelled());
  EXPECT_EQ(control.peeled(), result.stats.peel_iterations);
  EXPECT_GT(control.peeled(), 0u);
}

}  // namespace
}  // namespace receipt::service

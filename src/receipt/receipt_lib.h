#ifndef RECEIPT_RECEIPT_RECEIPT_LIB_H_
#define RECEIPT_RECEIPT_RECEIPT_LIB_H_

/// Umbrella header for the RECEIPT library — everything a downstream user
/// needs for parallel tip decomposition of bipartite graphs:
///
///   BipartiteGraph      CSR bipartite graphs + IO + synthetic generators
///   CountButterflies    parallel per-vertex butterfly counting (Alg. 1)
///   BupDecompose        sequential bottom-up peeling baseline (Alg. 2)
///   ParbDecompose       parallel bottom-up peeling baseline (ParButterfly)
///   ReceiptDecompose    the RECEIPT two-step algorithm (Alg. 3 + Alg. 4)
///   ExtractKTips        k-tip hierarchy retrieval from tip numbers
///   WingDecompose       wing (edge) decomposition extension (§7)
///   ReceiptWingDecompose  parallel two-step wing decomposition (RECEIPT-W)
///   GraphRegistry / DecompositionService / ResultCache
///                       the serving layer: resident multi-graph registry,
///                       batched+coalesced request execution over pooled
///                       workspaces, LRU result caching
///   HttpServer / DecompositionHttpFrontend
///                       the network front-end: HTTP/1.1 + JSON endpoints
///                       over the serving layer (examples/receipt_cli.cpp
///                       `serve --http-port`)

#include "butterfly/approx_count.h"
#include "butterfly/butterfly_count.h"
#include "graph/bipartite_graph.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/induced_subgraph.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "service/result_cache.h"
#include "service/service_types.h"
#include "tip/bup.h"
#include "tip/parb.h"
#include "tip/receipt.h"
#include "tip/tip_common.h"
#include "tip/tip_hierarchy.h"
#include "util/stats.h"
#include "util/types.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

#endif  // RECEIPT_RECEIPT_RECEIPT_LIB_H_

// Cross-algorithm equivalence through the unified engine: BUP, ParB and
// RECEIPT must produce identical tip numbers, and WingDecompose /
// ReceiptWingDecompose identical wing numbers, on randomized sweeps — all
// five drivers now route through src/engine/, so these sweeps pin the
// engine's kernels against each other (Theorem 2 and the §7 extension).

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/parb.h"
#include "tip/receipt.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

class TipEngineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint32_t>> {};

TEST_P(TipEngineSweep, AllTipAlgorithmsAgree) {
  const auto [num_u, num_v, num_edges, seed] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(
      static_cast<VertexId>(num_u), static_cast<VertexId>(num_v),
      static_cast<uint64_t>(num_edges), 0.6, 0.6, seed);

  for (const Side side : {Side::kU, Side::kV}) {
    TipOptions bup_options;
    bup_options.side = side;
    const TipResult bup = BupDecompose(g, bup_options);

    TipOptions parb_options;
    parb_options.side = side;
    parb_options.num_threads = 3;
    const TipResult parb = ParbDecompose(g, parb_options);
    EXPECT_EQ(parb.tip_numbers, bup.tip_numbers)
        << "ParB vs BUP, side " << SideName(side) << ", seed " << seed;

    for (const int partitions : {1, 5}) {
      for (const bool optimized : {false, true}) {
        for (const int threads : {1, 2}) {
          TipOptions receipt_options;
          receipt_options.side = side;
          receipt_options.num_threads = threads;
          receipt_options.num_partitions = partitions;
          receipt_options.use_huc = optimized;
          receipt_options.use_dgm = optimized;
          const TipResult receipt = ReceiptDecompose(g, receipt_options);
          EXPECT_EQ(receipt.tip_numbers, bup.tip_numbers)
              << "RECEIPT vs BUP, side " << SideName(side) << ", P="
              << partitions << ", opt=" << optimized << ", T=" << threads
              << ", seed " << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TipEngineSweep,
    ::testing::Values(std::make_tuple(60, 40, 300, 11u),
                      std::make_tuple(80, 50, 420, 23u),
                      std::make_tuple(50, 70, 380, 37u),
                      std::make_tuple(100, 30, 450, 41u)));

class WingEngineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint32_t>> {};

TEST_P(WingEngineSweep, SequentialAndReceiptWingAgree) {
  const auto [num_u, num_v, num_edges, seed] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(
      static_cast<VertexId>(num_u), static_cast<VertexId>(num_v),
      static_cast<uint64_t>(num_edges), 0.5, 0.5, seed);

  const WingResult sequential = WingDecompose(g, /*num_threads=*/1);

  for (const int partitions : {1, 4}) {
    for (const int threads : {1, 3}) {
      ReceiptWingOptions options;
      options.num_threads = threads;
      options.num_partitions = partitions;
      const WingResult parallel = ReceiptWingDecompose(g, options);
      EXPECT_EQ(parallel.wing_numbers, sequential.wing_numbers)
          << "P=" << partitions << ", T=" << threads << ", seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WingEngineSweep,
    ::testing::Values(std::make_tuple(25, 20, 110, 51u),
                      std::make_tuple(30, 15, 120, 53u),
                      std::make_tuple(20, 30, 130, 57u)));

}  // namespace
}  // namespace receipt

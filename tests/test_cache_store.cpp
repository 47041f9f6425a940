// Tests for the cache simulator (trace-based locality model).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compiler/cache_model.hpp"
#include "compiler/lowering.hpp"
#include "compiler/transforms.hpp"
#include "dsl/tensor_expr.hpp"

namespace everest::compiler {
namespace {

// -------------------------------------------------------------- CacheSim --

TEST(CacheSim, SequentialStreamMissesOncePerLine) {
  CacheSim cache({/*size_kib=*/64, /*line_bytes=*/64, /*ways=*/8});
  for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 8) {
    cache.access(addr);
  }
  // 8 doubles per 64B line → miss rate 1/8.
  EXPECT_NEAR(cache.miss_rate(), 1.0 / 8.0, 1e-9);
}

TEST(CacheSim, ResidentWorkingSetHitsAfterWarmup) {
  CacheSim cache({64, 64, 8});
  // 32 KiB working set in a 64 KiB cache, swept twice.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 32 * 1024; addr += 8) {
      cache.access(addr);
    }
  }
  // Second pass is all hits: total misses = lines of the working set.
  EXPECT_EQ(cache.misses(), 32 * 1024 / 64);
}

TEST(CacheSim, CapacityThrashing) {
  CacheSim cache({16, 64, 8});
  // 64 KiB working set in a 16 KiB cache, swept twice: LRU keeps evicting.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
      cache.access(addr);
    }
  }
  EXPECT_GT(cache.miss_rate(), 0.95);
}

TEST(CacheSim, AssociativityConflicts) {
  // Direct-mapped: two lines mapping to the same set ping-pong.
  CacheSim direct({4, 64, 1});
  const std::uint64_t stride =
      static_cast<std::uint64_t>(direct.num_sets()) * 64;
  for (int i = 0; i < 100; ++i) {
    direct.access(0);
    direct.access(stride);
  }
  EXPECT_GT(direct.miss_rate(), 0.95);
  // 2-way cache holds both.
  CacheSim assoc({4, 64, 2});
  const std::uint64_t stride2 =
      static_cast<std::uint64_t>(assoc.num_sets()) * 64;
  for (int i = 0; i < 100; ++i) {
    assoc.access(0);
    assoc.access(stride2);
  }
  EXPECT_LT(assoc.miss_rate(), 0.05);
}

// ----------------------------------------------------- Kernel cache sim --

ir::Module matmul_kernel(std::int64_t n) {
  dsl::TensorProgram p("mm");
  auto a = p.input("a", {n, n});
  auto b = p.input("b", {n, n});
  p.output("c", matmul(a, b));
  ir::Module m = p.lower().value();
  EXPECT_TRUE(lower_to_kernel(m, "mm").ok());
  return m;
}

TEST(KernelCache, MatmulMissRateDropsWhenResident) {
  ir::Module m = matmul_kernel(48);  // 3 × 18 KiB arrays
  // Accumulation nest is nest 1.
  CacheConfig big{512, 64, 8};    // everything resident
  CacheConfig tiny{8, 64, 8};     // B row sweep thrashes
  auto resident = simulate_kernel_cache(*m.find("mm_kernel"), 1, big);
  auto thrash = simulate_kernel_cache(*m.find("mm_kernel"), 1, tiny);
  ASSERT_TRUE(resident.ok()) << resident.status().to_string();
  ASSERT_TRUE(thrash.ok());
  EXPECT_LT(resident->miss_rate, 0.01);
  EXPECT_GT(thrash->miss_rate, resident->miss_rate * 5);
  EXPECT_GT(thrash->dram_bytes, resident->dram_bytes);
  EXPECT_FALSE(resident->truncated);
}

TEST(KernelCache, TilingImprovesLocalityInSmallCache) {
  // Elementwise kernel with two passes over the same array would benefit;
  // for a single-pass stream tiling is neutral — check the matmul case:
  // tile the innermost j loop and compare misses in a small cache.
  ir::Module m = matmul_kernel(64);
  auto baseline = simulate_kernel_cache(*m.find("mm_kernel"), 1,
                                        CacheConfig{16, 64, 8});
  ASSERT_TRUE(baseline.ok());
  ir::Module m2 = matmul_kernel(64);
  ASSERT_TRUE(tile_innermost(*m2.find("mm_kernel"), 1, 16).ok());
  auto tiled = simulate_kernel_cache(*m2.find("mm_kernel"), 1,
                                     CacheConfig{16, 64, 8});
  ASSERT_TRUE(tiled.ok()) << tiled.status().to_string();
  // Same trace volume.
  EXPECT_EQ(tiled->accesses, baseline->accesses);
  // Tiling the streaming j dimension must not hurt; (it reuses the C/B
  // lines within a tile before moving on).
  EXPECT_LE(tiled->misses, baseline->misses * 1.05);
}

TEST(KernelCache, TruncationCapRespected) {
  ir::Module m = matmul_kernel(64);
  auto stats = simulate_kernel_cache(*m.find("mm_kernel"), 1,
                                     CacheConfig{64, 64, 8},
                                     /*max_accesses=*/1000);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->truncated);
  EXPECT_LE(stats->accesses, 1000u);
}

TEST(KernelCache, MissingNestFails) {
  ir::Module m = matmul_kernel(8);
  EXPECT_FALSE(simulate_kernel_cache(*m.find("mm_kernel"), 9,
                                     CacheConfig{})
                   .ok());
}

}  // namespace
}  // namespace everest::compiler

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>

#include "pmem/meta_layout.h"
#include "pmem/pmem_env.h"
#include "sim/latency_model.h"

namespace cachekv {
namespace {

TEST(PmemEnvTest, AddressMapIsDisjoint) {
  EnvOptions o;
  o.pmem_capacity = 128ull << 20;
  o.cat_locked_bytes = 12ull << 20;
  o.meta_area_bytes = 2ull << 20;
  o.latency.scale = 0;
  PmemEnv env(o);
  EXPECT_EQ(0u, env.locked_base());
  EXPECT_EQ(12ull << 20, env.locked_size());
  EXPECT_EQ(12ull << 20, env.meta_base());
  // The allocator must never hand out the locked or meta ranges.
  uint64_t off;
  for (int i = 0; i < 32; i++) {
    ASSERT_TRUE(env.allocator()->Allocate(1 << 20, &off).ok());
    EXPECT_GE(off, env.meta_base() + env.meta_size());
  }
}

TEST(PmemEnvTest, MetaLayoutWithinMetaArea) {
  EnvOptions o;
  o.pmem_capacity = 64ull << 20;
  o.latency.scale = 0;
  PmemEnv env(o);
  EXPECT_LE(MetaLayout::kTotalBytes, env.meta_size());
  EXPECT_GE(MetaLayout::ZoneRegistryBase(&env), env.meta_base());
  EXPECT_GE(MetaLayout::BaselineRootBase(&env),
            MetaLayout::ZoneRegistryBase(&env));
}

TEST(PmemEnvTest, CrashResetsAllocatorButNotMedia) {
  EnvOptions o;
  o.pmem_capacity = 64ull << 20;
  o.latency.scale = 0;
  PmemEnv env(o);
  uint64_t off;
  ASSERT_TRUE(env.allocator()->Allocate(4096, &off).ok());
  const char data[] = "persisted through crash";
  env.NtStore(off, data, sizeof(data));
  env.Sfence();
  uint64_t free_before_crash = env.allocator()->FreeBytes();
  env.SimulateCrash();
  // Allocator reset: the region must be reservable again.
  EXPECT_GT(env.allocator()->FreeBytes(), free_before_crash);
  ASSERT_TRUE(env.allocator()->Reserve(off, 4096).ok());
  char out[sizeof(data)] = {0};
  env.Load(off, out, sizeof(data));
  EXPECT_STREQ(data, out);
}

TEST(LatencyModelTest, DisabledScaleChargesNothing) {
  LatencyCosts costs;
  costs.scale = 0;
  LatencyModel model(costs);
  model.ChargeMediaWrite(1000);
  model.ChargeSfence();
  EXPECT_EQ(0u, model.total_injected_ns());
  EXPECT_FALSE(model.enabled());
}

TEST(LatencyModelTest, ChargesAccumulate) {
  LatencyCosts costs;
  costs.scale = 1.0;
  costs.media_write_xpline_ns = 100;
  LatencyModel model(costs);
  auto start = std::chrono::steady_clock::now();
  model.ChargeMediaWrite(10);  // ~1000 ns
  auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(1000u, model.total_injected_ns());
  // The busy-wait must take at least the injected time (scheduling may
  // add more).
  EXPECT_GE(elapsed, 900);
}

TEST(LatencyModelTest, ScaleMultiplies) {
  LatencyCosts costs;
  costs.scale = 3.0;
  costs.clwb_ns = 50;
  LatencyModel model(costs);
  model.ChargeClwb(1);
  EXPECT_EQ(150u, model.total_injected_ns());
}

TEST(LatencyModelTest, SpinForIsApproximatelyAccurate) {
  auto start = std::chrono::steady_clock::now();
  LatencyModel::SpinFor(200000);  // 200 us
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 190);
  EXPECT_LE(elapsed, 5000);  // generous upper bound for noisy CI hosts
}

TEST(PmemEnvTest, LatencyChargedOnDeviceTraffic) {
  EnvOptions o;
  o.pmem_capacity = 64ull << 20;
  o.llc_capacity = 1ull << 20;
  o.latency.scale = 1.0;
  PmemEnv env(o);
  // NT-stores reach the device: nt line cost + media writes on drain.
  std::string buf(64 << 10, 'x');
  uint64_t region;
  ASSERT_TRUE(env.allocator()->Allocate(buf.size(), &region).ok());
  env.NtStore(region, buf.data(), buf.size());
  EXPECT_GT(env.latency()->total_injected_ns(), 10000u);
}

TEST(PmemEnvTest, ValidateOptionsRejectsEmptyXPBufferAndLlcSets) {
  EnvOptions o;
  EXPECT_TRUE(PmemEnv::ValidateOptions(o).ok());
  o.xpbuffer_slots = 0;
  EXPECT_TRUE(PmemEnv::ValidateOptions(o).IsInvalidArgument());
  o.xpbuffer_slots = 16;
  o.llc_ways = 0;
  EXPECT_TRUE(PmemEnv::ValidateOptions(o).IsInvalidArgument());
  o.llc_ways = -3;
  EXPECT_TRUE(PmemEnv::ValidateOptions(o).IsInvalidArgument());
}

TEST(PmemEnvTest, ZeroXPBufferSlotsAndLlcWaysClampToOne) {
  EnvOptions o;
  o.pmem_capacity = 16ull << 20;
  o.llc_capacity = 64ull << 10;
  o.xpbuffer_slots = 0;
  o.llc_ways = 0;
  o.latency.scale = 0;
  PmemEnv env(o);
  EXPECT_EQ(1, env.options().xpbuffer_slots);
  EXPECT_EQ(1, env.options().llc_ways);
  EXPECT_EQ(1, env.device()->config().xpbuffer_slots);
  EXPECT_EQ(1, env.cache()->config().ways);
  // A direct-mapped LLC over a one-slot XPBuffer still round-trips data,
  // through evictions and XPBuffer writebacks.
  std::string data(4096, '\0');
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>('a' + i % 23);
  }
  for (uint64_t addr = 0; addr < (1ull << 20); addr += data.size()) {
    env.Store(addr, data.data(), data.size());
  }
  std::string out(data.size(), '\0');
  env.Load(0, out.data(), out.size());
  EXPECT_EQ(data, out);
  env.cache()->WritebackAll();
  EXPECT_EQ(0, memcmp(env.device()->raw_media() + (512ull << 10),
                      data.data(), data.size()));
  EXPECT_GT(env.cache()->stats().dirty_evictions.load(), 0u);
  EXPECT_GT(env.device()->counters().xpbuffer_misses.load(), 0u);
}

}  // namespace
}  // namespace cachekv

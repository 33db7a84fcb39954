// Unit tests for the virtual STM32F767ZI (sim/mcu): timeline advancement,
// energy integration, clock switching, idling, tagging.
#include <gtest/gtest.h>

#include "sim/mcu.hpp"

namespace daedvfs::sim {
namespace {

const clock::ClockConfig kHfo216 = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
const clock::ClockConfig kHfo108 = clock::ClockConfig::pll_hse(50.0, 50, 216, 2);
const clock::ClockConfig kLfo = clock::ClockConfig::hse_direct(50.0);

SimParams params_at(const clock::ClockConfig& boot) {
  SimParams p;
  p.boot = boot;
  return p;
}

TEST(Mcu, ComputeAdvancesCyclesOverFrequency) {
  Mcu mcu(params_at(kHfo216));
  mcu.compute(216.0e3);  // 216k cycles at 216 MHz = 1 ms
  EXPECT_NEAR(mcu.time_us(), 1000.0, 1e-9);
  EXPECT_GT(mcu.energy_uj(), 0.0);
}

TEST(Mcu, SameCyclesTakeLongerAtLowerClock) {
  Mcu fast(params_at(kHfo216));
  Mcu slow(params_at(kLfo));
  fast.compute(1e6);
  slow.compute(1e6);
  EXPECT_NEAR(slow.time_us() / fast.time_us(), 216.0 / 50.0, 1e-9);
  EXPECT_LT(slow.energy_uj() / slow.time_us(),
            fast.energy_uj() / fast.time_us())
      << "average power must be lower at the lower clock";
}

TEST(Mcu, MemReadChargesIssueAndMissStall) {
  Mcu mcu(params_at(kHfo216));
  const MemRef ref{kSramBase, MemRegion::kSram};
  mcu.mem_read(ref, 32);
  const double t_miss = mcu.time_us();
  EXPECT_GT(t_miss, 0.0);
  const double t0 = mcu.time_us();
  mcu.mem_read(ref, 32);  // now cached: only issue cycles
  EXPECT_LT(mcu.time_us() - t0, t_miss);
}

TEST(Mcu, IssueWordsOverrideScalesTime) {
  Mcu a(params_at(kHfo216)), b(params_at(kHfo216));
  const MemRef ref{kSramBase, MemRegion::kSram};
  a.mem_read(ref, 64);             // 16 word loads
  b.mem_read(ref, 64, 64.0);       // 64 byte loads
  EXPECT_GT(b.time_us(), a.time_us());
}

TEST(Mcu, DtcmBypassesCache) {
  Mcu mcu(params_at(kHfo216));
  const uint64_t misses0 = mcu.cache().stats().misses;
  mcu.mem_read({kDtcmBase, MemRegion::kDtcm}, 1024);
  EXPECT_EQ(mcu.cache().stats().misses, misses0);
}

TEST(Mcu, FlashMissCostsMoreThanSramMiss) {
  Mcu a(params_at(kHfo216)), b(params_at(kHfo216));
  a.mem_read({kFlashBase, MemRegion::kFlash}, 32);
  b.mem_read({kSramBase, MemRegion::kSram}, 32);
  EXPECT_GT(a.time_us(), b.time_us());
}

TEST(Mcu, SwitchClockChargesCostAndChangesRate) {
  Mcu mcu(params_at(kHfo216));
  const auto cost = mcu.switch_clock(kHfo108);  // PLL reprogram
  EXPECT_TRUE(cost.pll_relocked);
  EXPECT_NEAR(mcu.time_us(), cost.total_us, 1e-9);
  EXPECT_GE(mcu.time_us(), 200.0);
  EXPECT_DOUBLE_EQ(mcu.sysclk_mhz(), 108.0);
}

TEST(Mcu, LfoHfoToggleIsCheap) {
  Mcu mcu(params_at(kHfo216));
  mcu.switch_clock(kLfo);
  mcu.switch_clock(kHfo216);
  EXPECT_LT(mcu.time_us(), 2.0) << "two mux toggles must stay sub-2us";
}

TEST(Mcu, IdleUntilFillsWindowAndGatingIsCheaper) {
  Mcu plain(params_at(kHfo216)), gated(params_at(kHfo216));
  plain.idle_until(1000.0, false);
  gated.idle_until(1000.0, true);
  EXPECT_NEAR(plain.time_us(), 1000.0, 1e-9);
  EXPECT_NEAR(gated.time_us(), 1000.0, 1e-9);
  EXPECT_LT(gated.energy_uj(), plain.energy_uj() / 3.0);
  // idle_until in the past is a no-op.
  plain.idle_until(500.0, false);
  EXPECT_NEAR(plain.time_us(), 1000.0, 1e-9);
}

TEST(Mcu, TagsAttributeEnergy) {
  Mcu mcu(params_at(kHfo216));
  mcu.set_tag("phase-a");
  mcu.compute(1e5);
  mcu.set_tag("phase-b");
  mcu.compute(2e5);
  EXPECT_NEAR(mcu.meter().tag_uj("phase-b"),
              2.0 * mcu.meter().tag_uj("phase-a"), 1e-6);
  EXPECT_NEAR(mcu.meter().tag_uj("phase-a") + mcu.meter().tag_uj("phase-b"),
              mcu.energy_uj(), 1e-9);
}

TEST(Mcu, ScopedTagRestores) {
  Mcu mcu(params_at(kHfo216));
  mcu.set_tag("outer");
  {
    ScopedTag scope(mcu, "inner");
    EXPECT_EQ(mcu.tag(), "inner");
  }
  EXPECT_EQ(mcu.tag(), "outer");
}

TEST(Mcu, ChargeMemoryAdvancesStall) {
  Mcu mcu(params_at(kHfo216));
  mcu.charge_memory(216.0, 500.0);  // 1 us issue + 0.5 us stall
  EXPECT_NEAR(mcu.time_us(), 1.5, 1e-9);
}

TEST(Mcu, SnapshotDiffsAreConsistent) {
  Mcu mcu(params_at(kHfo216));
  const McuSnapshot a = mcu.snapshot();
  mcu.compute(1e5);
  mcu.mem_read({kSramBase, MemRegion::kSram}, 4096);
  mcu.switch_clock(kLfo);
  const McuSnapshot b = mcu.snapshot();
  EXPECT_GT(b.time_us, a.time_us);
  EXPECT_GT(b.energy_uj, a.energy_uj);
  EXPECT_EQ(b.rcc.switches - a.rcc.switches, 1u);
  EXPECT_EQ(b.cache.misses - a.cache.misses, 128u);
}

TEST(Mcu, PowerMemoFollowsEveryRccMutation) {
  Mcu mcu(params_at(kHfo216));
  mcu.meter().keep_trace(true);
  const power::PowerModel& pm = mcu.power_model();
  int probe = 0;
  double prev_compute_mw = 0.0;
  // Each event runs under a fresh tag, so its tag sum is the one record's
  // energy and can be compared bit for bit.
  const auto expect_fresh_power = [&](const char* after) {
    SCOPED_TRACE(after);
    const power::PowerState st = power::PowerState::from_rcc(mcu.rcc());
    const auto check = [&](power::Activity act, auto&& event) {
      const std::string tag = "probe-" + std::to_string(probe++);
      mcu.set_tag(tag);
      const double t0 = mcu.time_us();
      event();
      const double t1 = mcu.time_us();
      const double mw = pm.power_mw(st, act);
      EXPECT_EQ(mcu.meter().trace().back().power_mw, mw) << to_string(act);
      EXPECT_EQ(mcu.meter().tag_uj(tag), mw * (t1 - t0) * 1e-3)
          << to_string(act);
    };
    check(power::Activity::kCompute, [&] { mcu.compute(5000.0); });
    // Every mutation below changes the compute power, so a stale memo
    // cannot pass by accident.
    const double compute_mw = pm.power_mw(st, power::Activity::kCompute);
    EXPECT_NE(compute_mw, prev_compute_mw);
    prev_compute_mw = compute_mw;
    check(power::Activity::kIdle, [&] { mcu.idle_for(7.0, false); });
    check(power::Activity::kIdleClockGated, [&] { mcu.idle_for(3.0, true); });
  };

  expect_fresh_power("boot");
  // A freshly built RCC has the same version count as the Mcu's own at boot;
  // assigning it must still invalidate the memo.
  mcu.rcc() = clock::Rcc(kHfo108);
  expect_fresh_power("assign Rcc(HFO 108)");
  mcu.rcc().switch_to(kLfo);
  expect_fresh_power("switch_to LFO (PLL still locked)");
  mcu.rcc().stop_pll();
  expect_fresh_power("stop_pll");
  mcu.rcc().pin_voltage_scale(clock::VoltageScale::kScale1);
  expect_fresh_power("pin_voltage_scale(Scale1)");
  clock::Rcc other(kHfo216);
  other.switch_to(kLfo);
  mcu.rcc() = other;
  expect_fresh_power("assign a switched Rcc");
  mcu.rcc().switch_to(kHfo216);
  expect_fresh_power("switch_to HFO 216");
}

TEST(Mcu, DeterministicAcrossRuns) {
  auto run = [] {
    Mcu mcu(params_at(kHfo216));
    mcu.compute(12345.0);
    mcu.mem_read({kSramBase + 128, MemRegion::kSram}, 1000);
    mcu.switch_clock(kLfo);
    mcu.mem_write({kSramBase + 4096, MemRegion::kSram}, 512);
    return std::pair{mcu.time_us(), mcu.energy_uj()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace daedvfs::sim

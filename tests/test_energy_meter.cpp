// Unit tests for the event-driven energy meter and the INA219-style sampler.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "power/energy_meter.hpp"

namespace daedvfs::power {
namespace {

TEST(EnergyMeter, IntegratesMilliwattMicroseconds) {
  EnergyMeter m;
  m.record(0.0, 1000.0, 100.0, "a");  // 100 mW for 1 ms = 100 uJ
  EXPECT_DOUBLE_EQ(m.total_uj(), 100.0);
}

TEST(EnergyMeter, TagAttributionIsAdditive) {
  EnergyMeter m;
  m.record(0.0, 500.0, 100.0, "L0/mem");
  m.record(500.0, 1500.0, 200.0, "L0/cmp");
  m.record(1500.0, 2000.0, 50.0, "L0/mem");
  EXPECT_DOUBLE_EQ(m.tag_uj("L0/mem"), 50.0 + 25.0);
  EXPECT_DOUBLE_EQ(m.tag_uj("L0/cmp"), 200.0);
  EXPECT_DOUBLE_EQ(m.tag_uj("unknown"), 0.0);
  EXPECT_DOUBLE_EQ(m.total_uj(), m.tag_uj("L0/mem") + m.tag_uj("L0/cmp"));
}

TEST(EnergyMeter, AveragePower) {
  EnergyMeter m;
  m.record(0.0, 1000.0, 120.0, "x");
  EXPECT_DOUBLE_EQ(m.average_power_mw(0.0, 1000.0), 120.0);
  EXPECT_DOUBLE_EQ(m.average_power_mw(0.0, 2000.0), 60.0);
}

TEST(EnergyMeter, TraceOnlyWhenEnabled) {
  EnergyMeter m;
  m.record(0.0, 1.0, 1.0, "x");
  EXPECT_TRUE(m.trace().empty());
  m.keep_trace(true);
  m.record(1.0, 2.0, 1.0, "x");
  ASSERT_EQ(m.trace().size(), 1u);
  EXPECT_DOUBLE_EQ(m.trace()[0].t_begin_us, 1.0);
}

TEST(EnergyMeter, TraceRingDropsOldestAtCapacity) {
  EnergyMeter m;
  m.keep_trace(true);
  m.set_trace_capacity(3);
  EXPECT_EQ(m.trace_capacity(), 3u);
  for (int i = 0; i < 8; ++i) {
    const double t = i * 10.0;
    m.record(t, t + 10.0, 5.0, "x");
  }
  EXPECT_EQ(m.trace_dropped(), 5u);
  const auto tr = m.trace();
  ASSERT_EQ(tr.size(), 3u);
  // Oldest segments dropped: [50,60), [60,70), [70,80) retained, in order.
  EXPECT_DOUBLE_EQ(tr[0].t_begin_us, 50.0);
  EXPECT_DOUBLE_EQ(tr[1].t_begin_us, 60.0);
  EXPECT_DOUBLE_EQ(tr[2].t_begin_us, 70.0);
  // Energy totals are unaffected by trace retention.
  EXPECT_DOUBLE_EQ(m.total_uj(), 8 * 10.0 * 5.0 / 1000.0);
}

TEST(EnergyMeter, ShrinkingCapacityKeepsNewestSegments) {
  EnergyMeter m;
  m.keep_trace(true);
  for (int i = 0; i < 6; ++i) {
    const double t = i * 10.0;
    m.record(t, t + 10.0, 5.0, "x");
  }
  m.set_trace_capacity(2);
  const auto tr = m.trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_DOUBLE_EQ(tr[0].t_begin_us, 40.0);
  EXPECT_DOUBLE_EQ(tr[1].t_begin_us, 50.0);
  EXPECT_EQ(m.trace_dropped(), 4u);
  EXPECT_EQ(m.trace_capacity(), 2u);
  // Clamped to at least one retained segment.
  m.set_trace_capacity(0);
  EXPECT_EQ(m.trace_capacity(), 1u);
  ASSERT_EQ(m.trace().size(), 1u);
  EXPECT_DOUBLE_EQ(m.trace()[0].t_begin_us, 50.0);
}

TEST(EnergyMeter, InternedTagsMatchStringKeyedSums) {
  EnergyMeter m;
  const std::vector<std::string> names = {"L0/cmp", "L0/mem", "idle",
                                          "L1/cmp", "L1/mem"};
  std::vector<EnergyMeter::TagId> ids;
  for (const std::string& n : names) ids.push_back(m.intern(n));
  std::map<std::string, double> ref;
  double ref_total = 0.0;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> mw(5.0, 250.0);
  std::uniform_real_distribution<double> dt(0.01, 40.0);
  double t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t k = rng() % names.size();
    const double p = mw(rng);
    const double t1 = t + dt(rng);
    // Interleave both overloads; they must share one accumulator per tag.
    if (i % 3 == 0) {
      m.record(t, t1, p, names[k]);
    } else {
      m.record(t, t1, p, ids[k]);
    }
    const double uj = p * (t1 - t) * 1e-3;
    ref[names[k]] += uj;
    ref_total += uj;
    t = t1;
  }
  EXPECT_EQ(m.total_uj(), ref_total);
  EXPECT_EQ(m.by_tag(), ref);
  for (std::size_t k = 0; k < names.size(); ++k) {
    EXPECT_EQ(m.tag_uj(names[k]), ref[names[k]]) << names[k];
    EXPECT_EQ(m.intern(names[k]), ids[k]);
  }
}

TEST(EnergyMeter, ResetKeepsInternedIds) {
  EnergyMeter m;
  const EnergyMeter::TagId a = m.intern("a");
  const EnergyMeter::TagId b = m.intern("b");
  m.record(0.0, 10.0, 3.0, a);
  m.record(10.0, 20.0, 4.0, b);
  m.reset();
  EXPECT_EQ(m.total_uj(), 0.0);
  EXPECT_EQ(m.tag_uj("a"), 0.0);
  EXPECT_EQ(m.tag_uj("b"), 0.0);
  EXPECT_TRUE(m.by_tag().empty());
  // Interned before the reset, still valid after it.
  EXPECT_EQ(m.intern("a"), a);
  m.record(20.0, 30.0, 2.0, b);
  EXPECT_EQ(m.tag_uj("b"), 2.0 * 10.0 * 1e-3);
  EXPECT_EQ(m.by_tag(), (std::map<std::string, double>{{"b", 2.0 * 10.0 * 1e-3}}));
  // A tag recorded with zero energy is listed, as a string-keyed map would.
  m.record(30.0, 30.0, 9.0, a);
  EXPECT_EQ(m.by_tag().size(), 2u);
}

TEST(EnergyMeter, TraceSegmentsCarryStringTag) {
  EnergyMeter m;
  m.keep_trace(true);
  const EnergyMeter::TagId cmp = m.intern("L3/cmp");
  m.record(0.0, 1.0, 1.0, cmp);
  m.record(1.0, 2.0, 1.0, "L3/mem");
  m.record(2.0, 3.0, 1.0, cmp);
  const auto tr = m.trace();
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr[0].tag, "L3/cmp");
  EXPECT_EQ(tr[1].tag, "L3/mem");
  EXPECT_EQ(tr[2].tag, "L3/cmp");
}

TEST(EnergyMeter, RejectsUnissuedTagId) {
  EnergyMeter m;
  const EnergyMeter::TagId a = m.intern("a");
  EXPECT_THROW(m.record(0.0, 1.0, 1.0, a + 1), std::out_of_range);
  EXPECT_EQ(m.total_uj(), 0.0);
}

TEST(EnergyMeter, ResetClearsEverything) {
  EnergyMeter m;
  m.keep_trace(true);
  m.record(0.0, 1.0, 1.0, "x");
  m.reset();
  EXPECT_DOUBLE_EQ(m.total_uj(), 0.0);
  EXPECT_TRUE(m.trace().empty());
  EXPECT_TRUE(m.by_tag().empty());
}

TEST(Ina219Sampler, ExactForConstantPower) {
  EnergyMeter m;
  m.keep_trace(true);
  m.record(0.0, 10000.0, 100.0, "x");
  Ina219Sampler sampler{1000.0, 0.5};
  EXPECT_NEAR(sampler.sampled_energy_uj(m.trace(), 0.0, 10000.0),
              m.total_uj(), 1e-9);
}

TEST(Ina219Sampler, BoundedErrorOnSwitchingTrace) {
  // Alternate 50/200 mW every 700 us; 1 kHz sampling aliases but the
  // integral must stay within ~20% (what the paper's rig would see).
  EnergyMeter m;
  m.keep_trace(true);
  for (int i = 0; i < 100; ++i) {
    const double t = i * 700.0;
    m.record(t, t + 700.0, (i % 2) ? 200.0 : 50.0, "x");
  }
  Ina219Sampler sampler{1000.0, 0.5};
  const double sampled = sampler.sampled_energy_uj(m.trace(), 0.0, 70000.0);
  EXPECT_NEAR(sampled, m.total_uj(), 0.2 * m.total_uj());
}

}  // namespace
}  // namespace daedvfs::power

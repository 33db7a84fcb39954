// Determinism pins for the forecast-aware planning policy
// (governor/planning.hpp):
//
//   (a) horizon == 0 reproduces the predictive (and reactive) ladder
//       governor BYTE FOR BYTE — report JSON, fault ledger included, and
//       trace — across the full fuzz corpus;
//   (b) forecast-error fuzzing (surprise bursts and window drift from the
//       third seeded stream) never lets a forecast pre-lock violate the
//       battery/QoS accounting invariants, and frame accounting closes
//       under duty-cycled uplinks;
//   (c) batched uplinks are differentially no worse than per-frame bursts
//       (radio energy, declared-QoS misses) with identical frame
//       accounting;
//   (d) watchdog/brownout edge cases — reset mid-mission (cold vs
//       checkpoint restore), a window closing before the drain, depletion
//       on a wrong harvest outlook — stay deterministic and
//       invariant-clean, and a golden planner report pins the full path;
//   (e) one shared stateless planner serves concurrent simulate_mission
//       calls from several threads (the ThreadSanitizer job runs this
//       suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "scenario/engine.hpp"
#include "scenario_test_support.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::scenario {
namespace {

using governor::MissionForecast;
using governor::PlanningConfig;
using governor::PlanningPolicy;

constexpr double kTBase = kSyntheticTBase;

std::string report_json(const MissionReport& r) {
  std::ostringstream os;
  write_json(os, r, 0);
  return os.str();
}

std::string trace_json(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_chrome_json(os);
  return os.str();
}

int fuzz_seed_count() {
  if (const char* env = std::getenv("DAEDVFS_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// Planner over the shared synthetic ladder (same rungs, same NAME as the
/// fuzz ladder — the report carries the policy name, so byte-identity
/// requires it).
PlanningPolicy make_planner(std::uint32_t horizon, MissionForecast forecast,
                            bool predictive = true) {
  const sim::SimParams sim;
  const LadderPolicy ref = make_synthetic_ladder(predictive, /*with_eco=*/true);
  PlanningConfig cfg;
  cfg.horizon = horizon;
  cfg.forecast = std::move(forecast);
  return PlanningPolicy(ref.rungs(), sim.switching, sim.power, std::move(cfg),
                        predictive ? "synthetic+prelock" : "synthetic",
                        predictive);
}

// ---- (a) Horizon 0 is the ladder policy ----------------------------------

TEST(Planning, HorizonZeroMatchesLadderByteForByte) {
  const sim::SimParams sim;
  const LadderPolicy predictive = make_synthetic_ladder(true, true);
  const LadderPolicy reactive = make_synthetic_ladder(false, true);
  const PlanningPolicy plan_pred = make_planner(0, MissionForecast{}, true);
  const PlanningPolicy plan_react = make_planner(0, MissionForecast{}, false);
  SpecFeatures features;
  features.faults = true;
  const int seeds = fuzz_seed_count();
  const int traced_seeds = std::max(10, seeds / 8);
  for (int seed = 0; seed < seeds; ++seed) {
    const MissionSpec spec =
        random_mission_spec(static_cast<std::uint64_t>(seed), features);
    const LadderPolicy& ref = seed % 2 == 0 ? predictive : reactive;
    const PlanningPolicy& planner = seed % 2 == 0 ? plan_pred : plan_react;
    const MissionReport want = simulate_mission(spec, ref, kTBase, sim);
    const MissionReport got = simulate_mission(spec, planner, kTBase, sim);
    ASSERT_EQ(report_json(want), report_json(got))
        << "seed " << seed
        << ": a horizon-0 planner must BE the ladder governor";
    if (seed < traced_seeds) {
      obs::TraceRecorder tra, trb;
      obs::Sink sa{&tra, nullptr}, sb{&trb, nullptr};
      (void)simulate_mission(spec, ref, kTBase, sim, &sa);
      (void)simulate_mission(spec, planner, kTBase, sim, &sb);
      ASSERT_EQ(trace_json(tra), trace_json(trb))
          << "seed " << seed << ": horizon-0 trace diverged";
    }
  }
}

// ---- (b) Forecast-error fuzzing ---------------------------------------

TEST(Planning, ForecastFuzzInvariantsHoldUnderReplans) {
  const sim::SimParams sim;
  SpecFeatures features;
  features.faults = true;
  features.forecast = true;
  const int seeds = fuzz_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    const std::uint64_t s = static_cast<std::uint64_t>(seed);
    const MissionSpec spec = random_mission_spec(s, features);
    // The planner pre-locks against the DISTORTED calendar (surprise
    // bursts unforeseen, windows drifted) while the engine runs the real
    // one — mispredicted pre-locks must not bend the accounting.
    const PlanningPolicy planner =
        make_planner(8, fuzz_forecast(spec, s, kTBase), seed % 2 == 0);
    const MissionReport a = simulate_mission(spec, planner, kTBase, sim);
    const MissionReport b = simulate_mission(spec, planner, kTBase, sim);
    ASSERT_EQ(report_json(a), report_json(b))
        << "seed " << seed << ": forecast misses broke determinism";
    check_mission_invariants(spec, a);
    EXPECT_EQ(a.frames_captured,
              a.frames + a.frames_shed + a.frames_dropped + a.frames_pending)
        << "seed " << seed << ": frame accounting must close under "
        << "duty-cycled uplinks";
    if (::testing::Test::HasFailure()) FAIL() << "invariants at seed " << seed;
  }
}

// ---- (c) Batched vs per-frame uplinks, differentially ------------------

/// Shared edge-case base: gated link with periodic windows, radio +
/// batching, bounded horizon — drains happen at every window opening, but
/// well inside the slot budget.
MissionSpec edge_spec() {
  MissionSpec spec;
  spec.name = "planning-edge";
  spec.horizon_s = 40000.0;
  spec.duty.period_s = 10.0;
  spec.duty.sleep_mw = 0.5;
  spec.battery = {300.0, 0.01, 0.0, 0.0};
  spec.base_qos_slack = 0.4;
  spec.connectivity = {{0.0, 8000.0}, {16000.0, 8000.0}, {32000.0, 8000.0}};
  spec.uplink_queue_frames = 128;
  spec.radio = {250.0, 256.0, 80.0, 1500.0};
  spec.radio_batch_frames = 8;
  return spec;
}

TEST(Planning, BatchedUplinksDifferential) {
  const sim::SimParams sim;
  const LadderPolicy gov = make_synthetic_ladder(true, true);
  const int seeds = std::max(25, fuzz_seed_count() / 4);
  int identical_flows = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    MissionSpec spec = random_mission_spec(static_cast<std::uint64_t>(seed));
    if (!power::RadioModel(spec.radio).enabled()) {
      spec.radio = {250.0, 256.0, 80.0, 1500.0};
    }
    MissionSpec per_frame = spec;
    per_frame.radio_batch_frames = 1;
    MissionSpec batched = spec;
    batched.radio_batch_frames = 8;
    const MissionReport p = simulate_mission(per_frame, gov, kTBase, sim);
    const MissionReport b = simulate_mission(batched, gov, kTBase, sim);
    check_mission_invariants(per_frame, p);
    check_mission_invariants(batched, b);
    const bool same_flow =
        p.frames_offered == b.frames_offered &&
        p.frames_captured == b.frames_captured && p.frames == b.frames &&
        p.frames_shed == b.frames_shed &&
        p.frames_dropped == b.frames_dropped &&
        p.frames_pending == b.frames_pending;
    if (same_flow) {
      // The common case: batching changes WHAT a frame's uplink costs,
      // not WHICH frames flow through the mission. Amortized ramps can
      // only remove radio energy, and a shorter drain can only relax the
      // catch-up budget — the declared-QoS ledger never gets worse.
      ++identical_flows;
      EXPECT_LE(b.radio_uj, p.radio_uj * (1.0 + 1e-9) + 1e-6)
          << "seed " << seed << ": batching made the radio MORE expensive";
      EXPECT_LE(b.deadline_misses, p.deadline_misses)
          << "seed " << seed << ": batching increased declared-QoS misses";
    } else {
      // The slot-fit boundary moved: shorter batched frames squeezed
      // extra serves into the same windows, and from there the timelines
      // legitimately diverge. Delivery may only have improved, and the
      // per-frame radio price may only have dropped.
      EXPECT_GE(b.frames, p.frames)
          << "seed " << seed
          << ": a diverged batched drain must deliver at least as much";
      ASSERT_GT(p.frames, 0u) << "seed " << seed;
      EXPECT_LE(b.radio_uj / static_cast<double>(b.frames),
                p.radio_uj / static_cast<double>(p.frames) * (1.0 + 1e-9) +
                    1e-6)
          << "seed " << seed << ": per-frame radio price went up";
    }
    if (::testing::Test::HasFailure()) FAIL() << "differential at seed "
                                              << seed;
  }
  // The strict branch must dominate the corpus, or the differential is
  // testing nothing.
  EXPECT_GT(identical_flows, seeds / 2)
      << "slot-fit divergence should be the exception, not the rule";

  // And one hand-built mission where the flows MUST coincide — a backlog
  // that drains well inside each window, so the slot-fit boundary never
  // moves — pinning the full strict differential including a real saving.
  MissionSpec pinned = edge_spec();
  pinned.faults = {};
  pinned.period_jitter = 0.0;
  MissionSpec pinned_per = pinned;
  pinned_per.radio_batch_frames = 1;
  const MissionReport pp = simulate_mission(pinned_per, gov, kTBase, sim);
  const MissionReport pb = simulate_mission(pinned, gov, kTBase, sim);
  EXPECT_EQ(pp.frames_offered, pb.frames_offered);
  EXPECT_EQ(pp.frames_captured, pb.frames_captured);
  EXPECT_EQ(pp.frames, pb.frames);
  EXPECT_EQ(pp.frames_shed, pb.frames_shed);
  EXPECT_EQ(pp.frames_dropped, pb.frames_dropped);
  EXPECT_EQ(pp.frames_pending, pb.frames_pending);
  EXPECT_EQ(pp.deadline_misses, pb.deadline_misses);
  EXPECT_LT(pb.radio_uj, pp.radio_uj)
      << "the pinned drain amortizes ramps: the saving must be real";
  EXPECT_LT(pb.total_uj(), pp.total_uj());
}

// ---- (d) Watchdog-bounded edge cases ----------------------------------

TEST(Planning, BrownoutResetMidHorizonColdVsCheckpointRestore) {
  const sim::SimParams sim;
  MissionSpec cold = edge_spec();
  // Watchdog bites mid-mission, with a forecast pre-lock in flight and a
  // backlog queued behind a closed window.
  cold.faults.resets = {{12000.0}, {25000.0}};
  cold.faults.reboot.boot_s = 30.0;
  cold.faults.reboot.boot_uj = 20000.0;
  MissionSpec warm = cold;
  warm.faults.reboot.checkpoint_interval_s = 500.0;
  warm.faults.reboot.checkpoint_uj = 50.0;

  const PlanningPolicy planner =
      make_planner(6, MissionForecast::from_spec(cold, kTBase));
  for (const MissionSpec* spec : {&cold, &warm}) {
    obs::TraceRecorder tr;
    obs::Sink sink{&tr, nullptr};
    const MissionReport a = simulate_mission(*spec, planner, kTBase, sim, &sink);
    const MissionReport b = simulate_mission(*spec, planner, kTBase, sim);
    ASSERT_EQ(report_json(a), report_json(b))
        << spec->name << ": reset mid-mission broke determinism";
    check_mission_invariants(*spec, a);
    EXPECT_EQ(a.resets, 2u);
    // Every reset kills the in-flight pre-lock — the engine says so on the
    // governor track, checkpointed or not.
    EXPECT_NE(trace_json(tr).find("plan_invalidate"), std::string::npos)
        << spec->name << ": resets must invalidate the plan in the trace";
  }
  const MissionReport cold_r = simulate_mission(cold, planner, kTBase, sim);
  const MissionReport warm_r = simulate_mission(warm, planner, kTBase, sim);
  EXPECT_EQ(warm_r.resets, cold_r.resets);
  EXPECT_GT(warm_r.checkpoints, 0u);
  EXPECT_EQ(cold_r.checkpoints, 0u);
  // A cold boot drops the whole backlog; the checkpoint keeps everything
  // captured at or before it.
  EXPECT_GE(cold_r.frames_dropped, warm_r.frames_dropped)
      << "checkpoint restore must never lose more frames than a cold boot";
}

TEST(Planning, WindowClosesBeforePlannedDrain) {
  const sim::SimParams sim;
  MissionSpec spec = edge_spec();
  // One long dark gap queues ~100 captures, then a window far too short
  // to drain them: the planned drain is cut off mid-flight and the rest
  // must land in pending/dropped, never vanish.
  spec.connectivity = {{0.0, 1000.0}, {30000.0, 120.0}};
  spec.uplink_queue_frames = 256;
  const PlanningPolicy planner =
      make_planner(6, MissionForecast::from_spec(spec, kTBase));
  const MissionReport a = simulate_mission(spec, planner, kTBase, sim);
  const MissionReport b = simulate_mission(spec, planner, kTBase, sim);
  ASSERT_EQ(report_json(a), report_json(b));
  check_mission_invariants(spec, a);
  EXPECT_GT(a.frames_pending + a.frames_dropped, 0u)
      << "the cut-off drain must leave undelivered frames accounted";
  EXPECT_EQ(a.frames_captured,
            a.frames + a.frames_shed + a.frames_dropped + a.frames_pending);
}

TEST(Planning, DepletionDuringPlannedPreSpend) {
  const sim::SimParams sim;
  MissionSpec spec = edge_spec();
  // A battery too small for the mission and sun that arrives too late:
  // the battery dies mid-mission. Depletion must stay terminal and the
  // books must close.
  spec.battery.capacity_mwh = 2.0;
  spec.harvest_events = {{35000.0, 5.0}};
  const PlanningPolicy planner =
      make_planner(10, MissionForecast::from_spec(spec, kTBase));
  const MissionReport a = simulate_mission(spec, planner, kTBase, sim);
  const MissionReport b = simulate_mission(spec, planner, kTBase, sim);
  ASSERT_EQ(report_json(a), report_json(b));
  check_mission_invariants(spec, a);
  EXPECT_TRUE(a.battery_depleted);
  EXPECT_DOUBLE_EQ(a.battery_remaining_mwh, 0.0);
  EXPECT_LT(a.simulated_s, spec.horizon_s)
      << "depletion must cut the mission short";
}

// ---- Planner golden ----------------------------------------------------

/// Gated, bursty, faulted mission for the planner golden: periodic windows
/// with a batched, lossy uplink draining a backlog, QoS steps into the
/// mixed rung's relock window, frame-rate bursts, a thermal soak past the
/// derate point, harvest steps, checkpointed watchdog resets and the
/// degraded-mode ladder on a battery that reaches the critical band.
MissionSpec planner_golden_spec() {
  MissionSpec spec = edge_spec();
  spec.name = "planner-golden";
  spec.seed = 2027;
  spec.battery.capacity_mwh = 40.0;
  spec.qos_events = {{6000.0, mixed_rung_slack()}, {9000.0, 0.4},
                     {20000.0, 0.1}, {26000.0, 0.4}};
  spec.bursts = {{5000.0, 3000.0, 2.0}, {18000.0, 4000.0, 1.0}};
  spec.base_ambient_c = 25.0;
  spec.temp_events = {{14000.0, 75.0}, {22000.0, 25.0}};
  spec.derate = {50.0, 4.0, 216.0};
  spec.harvest_events = {{10000.0, 2.0}, {30000.0, 0.0}};
  spec.faults.resets = {{12000.0}, {27000.0}};
  spec.faults.reboot.boot_s = 30.0;
  spec.faults.reboot.checkpoint_interval_s = 1000.0;
  spec.faults.radio.loss_prob = 0.2;
  spec.faults.radio.max_retries = 2;
  spec.faults.radio.backoff_base_s = 0.5;
  spec.faults.degraded.critical_soc = 0.4;
  spec.faults.degraded.miss_pressure = 0.2;
  spec.faults.degraded.max_skip = 3;
  spec.period_jitter = 0.05;
  return spec;
}

TEST(Planning, GoldenPlannerReport) {
  const sim::SimParams sim;
  const MissionSpec spec = planner_golden_spec();
  // The forecast runs its windows 300 s late.
  MissionForecast forecast = MissionForecast::from_spec(spec, kTBase);
  for (governor::ForecastSpan& s : forecast.windows) {
    s.start_s += 300.0;
    s.end_s += 300.0;
  }
  std::string got;
  for (const bool predictive : {true, false}) {
    const PlanningPolicy planner = make_planner(8, forecast, predictive);
    const MissionReport r = simulate_mission(spec, planner, kTBase, sim);
    check_mission_invariants(spec, r);
    got += report_json(r) + "\n";
  }
  const std::optional<std::string> want =
      golden_or_regen("planner_report_golden.json", got);
  if (!want) GTEST_SKIP() << "regenerated planner_report_golden.json";
  EXPECT_EQ(*want, got)
      << "planner MissionReport JSON drifted from the golden file";
}

// ---- Forecast queries match the engine's calendar semantics ------------

TEST(Planning, ForecastQueriesMatchSpecCalendar) {
  MissionSpec spec;
  spec.base_qos_slack = 0.5;
  spec.qos_events = {{100.0, 0.2}, {50.0, 0.8}};  // deliberately unsorted
  spec.low_battery_soc = 0.3;
  spec.low_battery_qos_slack = 0.9;
  spec.connectivity = {{300.0, 100.0}, {350.0, 100.0}, {600.0, 0.0}};
  const MissionForecast f = MissionForecast::from_spec(spec, kTBase);

  EXPECT_DOUBLE_EQ(f.qos_slack_at(0.0), 0.5);
  EXPECT_DOUBLE_EQ(f.qos_slack_at(60.0), 0.8);
  EXPECT_DOUBLE_EQ(f.qos_slack_at(100.0), 0.2);
  // Deadline: engine formula, low-battery relaxation below the threshold.
  EXPECT_DOUBLE_EQ(f.deadline_us_at(120.0, 1.0), kTBase * 1.2);
  EXPECT_DOUBLE_EQ(f.deadline_us_at(120.0, 0.1), kTBase * 1.9);
  // Overlapping windows merge; the zero-duration one contributes nothing.
  ASSERT_EQ(f.windows.size(), 1u);
  EXPECT_DOUBLE_EQ(f.window_remaining_at(320.0), 130.0);
  EXPECT_DOUBLE_EQ(f.window_remaining_at(400.0), 50.0);
  EXPECT_DOUBLE_EQ(f.window_remaining_at(460.0), -1.0);
  EXPECT_DOUBLE_EQ(f.window_remaining_at(200.0), -1.0);
}

// ---- (e) One stateless planner, many threads ---------------------------

TEST(Planning, SharedPlannerAcrossBatchThreads) {
  const sim::SimParams sim;
  SpecFeatures features;
  features.faults = true;
  features.forecast = true;
  std::vector<MissionSpec> specs;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    specs.push_back(random_mission_spec(seed, features));
    specs.back().horizon_s = std::min(specs.back().horizon_s, 7200.0);
  }
  // One forecast for every node (the planner is shared, so its view of
  // the future is too — per-node distortion would need per-node policies,
  // which is the fleet layer's business).
  const PlanningPolicy planner =
      make_planner(6, MissionForecast::from_spec(specs[0], kTBase));
  std::vector<MissionReport> reports(specs.size());
  std::vector<std::thread> workers;
  const std::size_t kThreads = 4;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = w; i < specs.size(); i += kThreads) {
        reports[i] = simulate_mission(specs[i], planner, kTBase, sim);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MissionReport scalar =
        simulate_mission(specs[i], planner, kTBase, sim);
    EXPECT_EQ(report_json(reports[i]), report_json(scalar))
        << "node " << i << " diverged under concurrent planning";
    check_mission_invariants(specs[i], reports[i]);
  }
}

}  // namespace
}  // namespace daedvfs::scenario

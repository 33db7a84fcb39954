// Forecast-aware MPC planning governor: a LadderPolicy that, instead of
// committing to the myopic per-frame pick, rolls the deterministic engine
// cost model forward over a sliding horizon of upcoming mission events —
// QoS steps, frame-rate bursts, connectivity windows, harvest steps — and
// commits only the first decision of the cheapest feasible plan. At the
// next frame it replans from scratch (receding horizon), so forecast
// misses (surprise bursts, drifted window calendars, harvest noise) are
// absorbed one slot late instead of compounding: the planner can never be
// *worse* than one mispredicted slot relative to the myopic rule, and the
// engine's battery/QoS accounting stays exact because only real frames are
// ever charged.
//
// The rollout replays the very same tiered selection loop the online rule
// runs (LadderPolicy::raw_pick) against a MissionForecast — the spec's own
// event calendar, optionally distorted by the test harness to model
// forecast error — with the wake state threaded through the plan exactly
// like the engine threads it through frames. Plan candidates are scored
// lexicographically (deadline misses, then energy); ties go to the myopic
// pick, which is what makes `horizon == 0` reproduce the predictive
// governor byte for byte (pinned by tests/test_planning.cpp across the
// full fuzz corpus).
//
// The planner keeps NO mutable plan state: choose()/predict_next() are
// pure functions of the frame context and the (immutable) forecast, so one
// instance is safely shared by concurrent simulate_mission calls, and
// plan invalidation on a brownout reset is by construction — the engine
// resets the wake state and rung preference (emitting a
// `plan_invalidate` trace instant), and the next choose() replans from
// whatever the checkpoint restored. GovernorCheckpoint never snapshots
// plans (scenario/faults.hpp).
//
// Where the forecast genuinely wins over the steady-state predictive
// governor is predict_next(): the pre-lock target is picked for the
// *forecast* next slot (post-burst-boundary period, post-QoS-step
// deadline, post-window backlog) instead of assuming the next frame looks
// like this one — so pre-locks stop missing at every event boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/mission.hpp"
#include "scenario/policy.hpp"

namespace daedvfs::governor {

/// Half-open connectivity span [start_s, end_s) — a merged, sorted view of
/// the spec's ConnectivityWindows the rollout can binary-search.
struct ForecastSpan {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// The planner's model of the mission's future: the declarative event
/// calendar of a MissionSpec, normalized for point queries at arbitrary
/// mission times. Built verbatim from the spec for a perfect forecast;
/// tests distort it (drop surprise bursts, drift windows, scale harvest)
/// to model forecast error — the planner itself never knows the
/// difference, which is exactly the receding-horizon robustness the
/// harness pins.
struct MissionForecast {
  double t_base_us = 0.0;        ///< Base-rung latency scale of deadlines.
  double base_period_s = 1.0;
  double base_qos_slack = 0.3;
  double low_battery_soc = 0.0;  ///< 0 = no low-battery relaxation.
  double low_battery_qos_slack = 0.5;
  double base_harvest_mw = 0.0;
  std::vector<scenario::QosEvent> qos;        ///< Sorted by at_s.
  std::vector<scenario::Burst> bursts;        ///< Sorted by start_s.
  std::vector<ForecastSpan> windows;          ///< Merged + sorted spans.
  std::vector<scenario::HarvestEvent> harvest;  ///< Sorted by at_s.

  /// Perfect forecast: the spec's own calendar (windows merged, events
  /// sorted, defaults copied). `t_base_us` is the engine's deadline scale
  /// (ScheduleGovernor::t_base_us(), or the synthetic ladder's base).
  [[nodiscard]] static MissionForecast from_spec(
      const scenario::MissionSpec& spec, double t_base_us);

  /// Any positive-duration window — mirrors Connectivity::gated().
  [[nodiscard]] bool gated() const { return !windows.empty(); }

  /// Active QoS slack at mission time `t` (last event at or before wins).
  [[nodiscard]] double qos_slack_at(double t) const;
  /// Active capture period at `t` (min over active bursts, else base).
  [[nodiscard]] double period_at(double t) const;
  /// Active deadline at `t` for state of charge `soc` — the engine's
  /// formula: t_base * (1 + slack), low-battery-relaxed below the
  /// threshold.
  [[nodiscard]] double deadline_us_at(double t, double soc) const;
  /// True when an uplink window covers `t` (always, when ungated).
  [[nodiscard]] bool connected_at(double t) const;
  /// Time to the end of the window covering `t`; -1 when ungated or when
  /// `t` falls between windows — mirroring FrameContext::window_remaining_s.
  [[nodiscard]] double window_remaining_at(double t) const;
  /// Forecast harvest intake at `t` (undistorted by panel derating — the
  /// planner compares slots against each other, not against the battery).
  [[nodiscard]] double harvest_mw_at(double t) const;
};

struct PlanningConfig {
  /// Lookahead depth in capture slots. 0 = planning disabled: the policy
  /// IS the predictive governor, byte for byte (the property the
  /// horizon-replay harness pins).
  std::uint32_t horizon = 0;
  MissionForecast forecast;
};

/// The MPC planning policy. Stateless across calls (see file comment);
/// derives from LadderPolicy so the slot-0 pricing, thermal filtering,
/// catch-up budget, and degraded-mode ladder are the shared online rule.
class PlanningPolicy : public scenario::LadderPolicy {
 public:
  PlanningPolicy(std::vector<scenario::RungInfo> rungs,
                 clock::SwitchCostParams switching,
                 power::PowerModelParams power, PlanningConfig cfg,
                 std::string name = "planner", bool predictive = true);

  /// Receding-horizon pick: myopic pick when horizon == 0 or the myopic
  /// pick already misses the declared deadline (nothing to plan with);
  /// otherwise the first rung of the lexicographically cheapest (misses,
  /// energy) rollout among deadline-feasible slot-0 candidates, ties to
  /// the myopic pick.
  [[nodiscard]] int choose(const scenario::FrameContext& ctx,
                           int current_rung) const override;
  /// Forecast-aware pre-lock target: the free-wake pick for the *next*
  /// slot's forecast context (period/deadline/window at t + period), not
  /// the steady-state assumption. Falls back to the base behavior when
  /// horizon == 0.
  [[nodiscard]] int predict_next(const scenario::FrameContext& ctx,
                                 int chosen) const override;

  /// Hoists planner.replans / planner.overrides / planner.forecast_predicts
  /// alongside the base governor.* instruments.
  void set_sink(obs::Sink* sink) override;

  [[nodiscard]] const PlanningConfig& config() const { return cfg_; }

 private:
  PlanningConfig cfg_;
  obs::Counter* replans_ = nullptr;    ///< Horizon rollouts performed.
  obs::Counter* overrides_ = nullptr;  ///< Plans that beat the myopic pick.
  obs::Counter* forecast_predicts_ = nullptr;  ///< Forecast pre-lock picks.
};

}  // namespace daedvfs::governor

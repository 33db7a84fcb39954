// Forecast-aware planning policy: a LadderPolicy whose pre-lock target comes
// from a forecast of the mission instead of the steady-state assumption.
//
// Every frame's rung is the shared decision rule's pick
// (scenario::pick_rung through LadderPolicy::choose) — this policy does not
// override choose(). What the forecast changes is predict_next(): the rung
// whose entry PLL the engine pre-locks during sleep is picked for the
// *forecast* next slot (post-QoS-step deadline, post-window-edge budget)
// rather than for a frozen copy of this one, so pre-locks stop missing at
// those event boundaries.
//
// The forecast is a MissionForecast — the spec's own event calendar,
// optionally distorted by the test harness to model forecast error. A
// wrong forecast costs at most a missed pre-lock (the engine falls back to
// the reactive wake transition); it never changes which rung a frame runs
// or how the engine accounts energy and QoS.
//
// The policy keeps NO mutable state: choose()/predict_next() are pure
// functions of the frame context and the (immutable) forecast, so one
// instance is safely shared by concurrent simulate_mission calls. A
// brownout reset clears the engine's wake state and rung preference
// (emitting a `plan_invalidate` trace instant); GovernorCheckpoint never
// snapshots policy state (scenario/faults.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/mission.hpp"
#include "scenario/policy.hpp"

namespace daedvfs::governor {

/// Half-open connectivity span [start_s, end_s) — a merged, sorted view of
/// the spec's ConnectivityWindows the forecast can binary-search.
struct ForecastSpan {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// The planner's model of the mission's future: the declarative event
/// calendar of a MissionSpec, normalized for point queries at arbitrary
/// mission times. Built verbatim from the spec for a perfect forecast;
/// tests drift its windows to model forecast error — the policy itself
/// never knows the difference.
struct MissionForecast {
  double t_base_us = 0.0;        ///< Base-rung latency scale of deadlines.
  double base_qos_slack = 0.3;
  double low_battery_soc = 0.0;  ///< 0 = no low-battery relaxation.
  double low_battery_qos_slack = 0.5;
  std::vector<scenario::QosEvent> qos;        ///< Sorted by at_s.
  std::vector<ForecastSpan> windows;          ///< Merged + sorted spans.

  /// Perfect forecast: the spec's own calendar (windows merged, events
  /// sorted, defaults copied). `t_base_us` is the engine's deadline scale
  /// (ScheduleGovernor::t_base_us(), or the synthetic ladder's base).
  [[nodiscard]] static MissionForecast from_spec(
      const scenario::MissionSpec& spec, double t_base_us);

  /// Any positive-duration window (Connectivity::gated()'s convention).
  [[nodiscard]] bool gated() const { return !windows.empty(); }

  /// Active QoS slack at mission time `t` (last event at or before wins).
  [[nodiscard]] double qos_slack_at(double t) const;
  /// Active deadline at `t` for state of charge `soc` — the engine's
  /// formula: t_base * (1 + slack), low-battery-relaxed below the
  /// threshold.
  [[nodiscard]] double deadline_us_at(double t, double soc) const;
  /// Time to the end of the window covering `t`; -1 when ungated or when
  /// `t` falls between windows (FrameContext::window_remaining_s's
  /// convention).
  [[nodiscard]] double window_remaining_at(double t) const;
};

struct PlanningConfig {
  /// Only zero vs non-zero matters: 0 = the policy IS its LadderPolicy,
  /// byte for byte; any other value turns on forecast-aware pre-lock.
  std::uint32_t horizon = 0;
  MissionForecast forecast;
};

/// The forecast-aware planning policy. Stateless across calls (see file
/// comment); the per-frame pick, thermal filtering, catch-up budget and
/// degraded-mode ladder are LadderPolicy's.
class PlanningPolicy : public scenario::LadderPolicy {
 public:
  PlanningPolicy(std::vector<scenario::RungInfo> rungs,
                 clock::SwitchCostParams switching,
                 power::PowerModelParams power, PlanningConfig cfg,
                 std::string name = "planner", bool predictive = true);

  /// Forecast-aware pre-lock target: the mux-priced pick for the *next*
  /// slot's forecast context (deadline and window at t + period), not the
  /// steady-state assumption. The base behavior when horizon == 0.
  [[nodiscard]] int predict_next(const scenario::FrameContext& ctx,
                                 int chosen) const override;

  /// Hoists planner.forecast_predicts alongside the base governor.*
  /// instruments.
  void set_sink(obs::Sink* sink) override;

  [[nodiscard]] const PlanningConfig& config() const { return cfg_; }

 private:
  PlanningConfig cfg_;
  obs::Counter* forecast_predicts_ = nullptr;  ///< Forecast pre-lock picks.
};

}  // namespace daedvfs::governor

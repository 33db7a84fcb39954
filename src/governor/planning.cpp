#include "governor/planning.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace daedvfs::governor {

namespace {

/// Last event at or before `t` in an at_s-sorted vector, by binary search.
template <typename Event>
const Event* last_at_or_before(const std::vector<Event>& events, double t) {
  auto it = std::upper_bound(
      events.begin(), events.end(), t,
      [](double lhs, const Event& e) { return lhs < e.at_s; });
  if (it == events.begin()) return nullptr;
  return &*std::prev(it);
}

}  // namespace

MissionForecast MissionForecast::from_spec(const scenario::MissionSpec& spec,
                                           double t_base_us) {
  MissionForecast f;
  f.t_base_us = t_base_us;
  f.base_qos_slack = spec.base_qos_slack;
  f.low_battery_soc = spec.low_battery_soc;
  f.low_battery_qos_slack = spec.low_battery_qos_slack;
  f.qos = spec.qos_events;
  std::stable_sort(f.qos.begin(), f.qos.end(),
                   [](const scenario::QosEvent& a, const scenario::QosEvent& b) {
                     return a.at_s < b.at_s;
                   });
  // Merge positive-duration connectivity windows into sorted disjoint
  // spans (the spec allows overlapping / unordered windows).
  std::vector<ForecastSpan> spans;
  for (const scenario::ConnectivityWindow& w : spec.connectivity) {
    if (w.duration_s > 0.0) spans.push_back({w.start_s, w.start_s + w.duration_s});
  }
  std::sort(spans.begin(), spans.end(),
            [](const ForecastSpan& a, const ForecastSpan& b) {
              return a.start_s < b.start_s;
            });
  for (const ForecastSpan& s : spans) {
    if (!f.windows.empty() && s.start_s <= f.windows.back().end_s) {
      f.windows.back().end_s = std::max(f.windows.back().end_s, s.end_s);
    } else {
      f.windows.push_back(s);
    }
  }
  return f;
}

double MissionForecast::qos_slack_at(double t) const {
  const scenario::QosEvent* e = last_at_or_before(qos, t);
  return e != nullptr ? e->qos_slack : base_qos_slack;
}

double MissionForecast::deadline_us_at(double t, double soc) const {
  double slack = qos_slack_at(t);
  if (low_battery_soc > 0.0 && soc < low_battery_soc) {
    slack = std::max(slack, low_battery_qos_slack);
  }
  return t_base_us * (1.0 + slack);
}

double MissionForecast::window_remaining_at(double t) const {
  if (!gated()) return -1.0;
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](double lhs, const ForecastSpan& s) { return lhs < s.start_s; });
  if (it == windows.begin()) return -1.0;
  const ForecastSpan& s = *std::prev(it);
  return t < s.end_s ? s.end_s - t : -1.0;
}

PlanningPolicy::PlanningPolicy(std::vector<scenario::RungInfo> rungs,
                               clock::SwitchCostParams switching,
                               power::PowerModelParams power,
                               PlanningConfig cfg, std::string name,
                               bool predictive)
    : LadderPolicy(std::move(rungs), switching, power, std::move(name),
                   predictive),
      cfg_(std::move(cfg)) {}

void PlanningPolicy::set_sink(obs::Sink* sink) {
  LadderPolicy::set_sink(sink);
  obs::MetricsRegistry* mx = sink != nullptr ? sink->metrics : nullptr;
  forecast_predicts_ =
      mx != nullptr ? &mx->counter("planner.forecast_predicts") : nullptr;
}

int PlanningPolicy::predict_next(const scenario::FrameContext& ctx,
                                 int chosen) const {
  if (cfg_.horizon == 0) return LadderPolicy::predict_next(ctx, chosen);
  if (!predictive_ || rungs_.empty()) return -1;
  if (forecast_predicts_ != nullptr) forecast_predicts_->add();
  // Pre-lock for the slot the node will actually wake into: the forecast
  // context one period ahead, not a frozen copy of this one. At event
  // boundaries (burst starts, QoS steps, window edges) this is where the
  // steady-state predictor systematically mispredicts.
  const MissionForecast& fc = cfg_.forecast;
  const double t_next = ctx.time_s + ctx.period_s;
  scenario::FrameContext next;
  next.deadline_us = fc.deadline_us_at(t_next, ctx.battery_soc);
  next.max_sysclk_mhz = ctx.max_sysclk_mhz;
  next.radio_us = ctx.radio_us;
  next.backlog = ctx.backlog > 0 ? ctx.backlog - 1 : 0;
  next.window_remaining_s = fc.window_remaining_at(t_next);
  return scenario::pick_rung(rungs_, next.deadline_us, next.budget_us(),
                             next.max_sysclk_mhz,
                             scenario::WakePricing::mux(switching_, pm_))
      .rung;
}

}  // namespace daedvfs::governor

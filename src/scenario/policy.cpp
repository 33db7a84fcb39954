#include "scenario/policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "clock/rcc.hpp"
#include "obs/metrics.hpp"

namespace daedvfs::scenario {

TransitionCost wake_transition(const WakeState& wake, const RungInfo& to,
                               const clock::SwitchCostParams& sw,
                               const power::PowerModel& pm) {
  std::optional<clock::PllConfig> locked = wake.locked_pll;
  clock::VoltageScale scale = wake.scale;
  const clock::SwitchCost cost =
      clock::apply_switch_policy(sw, wake.config, to.entry_hfo, locked, scale);
  TransitionCost out;
  if (cost.total_us == 0.0) return out;
  out.us = cost.total_us;
  out.uj = cost.total_us *
           pm.power_mw(
               power::PowerState::from_parts(to.entry_hfo, locked, scale),
               power::Activity::kMemoryStall) *
           1e-3;
  return out;
}

TransitionCost rung_transition(const RungInfo& from, const RungInfo& to,
                               const clock::SwitchCostParams& switching,
                               const power::PowerModel& pm) {
  return wake_transition(WakeState::after(from), to, switching, pm);
}

LadderPolicy::LadderPolicy(std::vector<RungInfo> rungs,
                           clock::SwitchCostParams switching,
                           power::PowerModelParams power, std::string name,
                           bool predictive)
    : rungs_(std::move(rungs)),
      switching_(switching),
      pm_(power),
      name_(std::move(name)),
      predictive_(predictive) {}

LadderPolicy::LadderPolicy(clock::SwitchCostParams switching,
                           power::PowerModelParams power, bool predictive)
    : switching_(switching), pm_(power), predictive_(predictive) {}

double catchup_budget_us(double window_remaining_s, std::uint32_t backlog,
                         double radio_us) {
  if (std::isnan(window_remaining_s)) window_remaining_s = 0.0;
  if (window_remaining_s < 0.0) return std::numeric_limits<double>::infinity();
  return window_remaining_s * 1e6 / (static_cast<double>(backlog) + 1.0) -
         radio_us;
}

double FrameContext::budget_us() const {
  if (backlog == 0) return std::numeric_limits<double>::infinity();
  return catchup_budget_us(window_remaining_s, backlog, radio_us);
}

std::uint32_t shed_for(double soc, double miss_ewma,
                       const DegradedModeSpec& spec) {
  if (!spec.enabled()) return 0;
  double severity = 0.0;
  if (spec.critical_soc > 0.0 && soc < spec.critical_soc) {
    severity = (spec.critical_soc - soc) / spec.critical_soc;
  }
  if (spec.miss_pressure > 0.0 && miss_ewma > spec.miss_pressure) {
    const double span = 1.0 - spec.miss_pressure;
    const double miss_sev =
        span > 0.0 ? std::min(1.0, (miss_ewma - spec.miss_pressure) / span)
                   : 1.0;
    severity = std::max(severity, miss_sev);
  }
  if (severity <= 0.0) return 0;
  const double scaled =
      std::ceil(std::min(severity, 1.0) * static_cast<double>(spec.max_skip));
  const auto skip = static_cast<std::uint32_t>(scaled);
  return skip < spec.max_skip ? skip : spec.max_skip;
}

RungPick pick_rung(const std::vector<RungInfo>& rungs, double declared_us,
                   double budget_us, double cap_mhz,
                   const WakePricing& pricing) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tight_us = std::min(declared_us, budget_us);
  int best_budget = -1, best_declared = -1, fastest = -1, coolest = -1;
  double be_budget = kInf, be_declared = kInf, fastest_t = kInf;
  double coolest_mhz = kInf;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungInfo& r = rungs[i];
    if (r.peak_mhz() < coolest_mhz) {
      coolest_mhz = r.peak_mhz();
      coolest = static_cast<int>(i);
    }
    if (cap_mhz > 0.0 && r.peak_mhz() > cap_mhz + 1e-9) continue;

    TransitionCost trans;
    if (pricing.mode == WakePricing::Mode::kMux) {
      trans.us = pricing.switching->mux_switch_us;
      trans.uj = trans.us *
                 pricing.pm->config_power_mw(r.entry_hfo,
                                             power::Activity::kMemoryStall) *
                 1e-3;
    } else if (pricing.mode == WakePricing::Mode::kFrom) {
      trans = wake_transition(*pricing.wake, r, *pricing.switching,
                              *pricing.pm);
    }
    const double t = r.t_us + trans.us;
    const double e = r.e_uj + trans.uj;
    if (t < fastest_t) {
      fastest_t = t;
      fastest = static_cast<int>(i);
    }
    if (t <= declared_us + 1e-9 && e < be_declared) {
      be_declared = e;
      best_declared = static_cast<int>(i);
    }
    if (t <= tight_us + 1e-9 && e < be_budget) {
      be_budget = e;
      best_budget = static_cast<int>(i);
    }
  }
  if (best_budget >= 0) return {best_budget, PickTier::kBudget};
  if (best_declared >= 0) return {best_declared, PickTier::kDeclared};
  if (fastest >= 0) return {fastest, PickTier::kFastest};
  return {coolest, PickTier::kCoolest};
}

void LadderPolicy::set_sink(obs::Sink* sink) {
  obs::MetricsRegistry* mx = sink != nullptr ? sink->metrics : nullptr;
  if (mx == nullptr) {
    choose_calls_ = nullptr;
    predict_calls_ = nullptr;
    for (auto& c : tier_counters_) c = nullptr;
    return;
  }
  choose_calls_ = &mx->counter("governor.choose_calls");
  predict_calls_ = &mx->counter("governor.predict_calls");
  tier_counters_[0] = &mx->counter("governor.tier_budget");  // PickTier order
  tier_counters_[1] = &mx->counter("governor.tier_declared");
  tier_counters_[2] = &mx->counter("governor.tier_fastest");
  tier_counters_[3] = &mx->counter("governor.tier_coolest");
}

int LadderPolicy::choose(const FrameContext& ctx, int current_rung) const {
  if (rungs_.empty()) return -1;
  std::optional<WakeState> wake = ctx.wake;
  if (!wake && current_rung >= 0) {
    wake = WakeState::after(rungs_[static_cast<std::size_t>(current_rung)]);
  }
  const RungPick pick = pick_rung(
      rungs_, ctx.deadline_us, ctx.budget_us(), ctx.max_sysclk_mhz,
      wake ? WakePricing::from(*wake, switching_, pm_) : WakePricing::zero());
  if (choose_calls_ != nullptr) {
    choose_calls_->add();
    tier_counters_[static_cast<int>(pick.tier)]->add();
  }
  return pick.rung;
}

std::optional<PrelockAnchor> find_prelock_anchor(
    const std::vector<RungInfo>& rungs, double t_base_us,
    const clock::SwitchCostParams& switching, const power::PowerModel& pm) {
  if (t_base_us <= 0.0) return std::nullopt;
  for (std::size_t j = 0; j < rungs.size(); ++j) {
    const TransitionCost wrap =
        rung_transition(rungs[j], rungs[j], switching, pm);
    if (wrap.us < 1.0) continue;  // wrap-free: not a mixed rung
    for (std::size_t i = 0; i < j; ++i) {
      const TransitionCost iwrap =
          rung_transition(rungs[i], rungs[i], switching, pm);
      if (iwrap.us >= 1.0 || rungs[i].e_uj <= rungs[j].e_uj) continue;
      PrelockAnchor anchor;
      anchor.mixed = static_cast<int>(j);
      anchor.pure = static_cast<int>(i);
      anchor.tight_slack =
          (rungs[j].t_us + wrap.us * 0.5) / t_base_us - 1.0;
      return anchor;
    }
  }
  return std::nullopt;
}

std::optional<ThermalAnchor> find_thermal_anchor(
    const std::vector<RungInfo>& rungs) {
  double peak_min = std::numeric_limits<double>::infinity();
  double peak_max = 0.0;
  for (const RungInfo& r : rungs) {
    peak_min = std::min(peak_min, r.peak_mhz());
    peak_max = std::max(peak_max, r.peak_mhz());
  }
  if (!(peak_min + 1.0 < peak_max)) return std::nullopt;
  ThermalAnchor anchor;
  anchor.derate.start_c = 45.0;
  anchor.derate.mhz_per_c = 4.0;
  anchor.derate.nominal_max_mhz = peak_max;
  anchor.cap_mhz = (peak_min + peak_max) / 2.0;
  anchor.hot_ambient_c =
      anchor.derate.start_c + (peak_max - anchor.cap_mhz) / anchor.derate.mhz_per_c;
  return anchor;
}

std::uint32_t LadderPolicy::degraded_skip(double battery_soc,
                                          double miss_ewma,
                                          const DegradedModeSpec& spec) const {
  return shed_for(battery_soc, miss_ewma, spec);
}

int LadderPolicy::predict_next(const FrameContext& ctx, int chosen) const {
  (void)chosen;
  if (!predictive_ || rungs_.empty()) return -1;
  if (predict_calls_ != nullptr) predict_calls_->add();
  // Steady-duty-cycle assumption: the next frame looks like this one. Pick
  // the rung the policy would run if waking were free — pre-locking its
  // entry PLL during the coming sleep is exactly what makes that true.
  return pick_rung(rungs_, ctx.deadline_us, ctx.budget_us(),
                   ctx.max_sysclk_mhz, WakePricing::mux(switching_, pm_))
      .rung;
}

}  // namespace daedvfs::scenario

#include "clock/rcc.hpp"

#include <algorithm>
#include <stdexcept>

namespace daedvfs::clock {

Rcc::Rcc(ClockConfig boot, SwitchCostParams params)
    : current_(std::move(boot)),
      scale_(current_.voltage_scale()),
      params_(params) {
  if (auto err = current_.validation_error()) {
    throw std::invalid_argument("invalid boot clock config: " + *err);
  }
  if (current_.source == ClockSource::kPll) locked_pll_ = current_.pll;
}

Rcc& Rcc::operator=(const Rcc& other) {
  const uint64_t version = std::max(version_, other.version_) + 1;
  current_ = other.current_;
  scale_ = other.scale_;
  locked_pll_ = other.locked_pll_;
  params_ = other.params_;
  stats_ = other.stats_;
  version_ = version;
  return *this;
}

SwitchCost apply_switch_policy(const SwitchCostParams& params,
                               const ClockConfig& from, const ClockConfig& to,
                               std::optional<PllConfig>& locked_pll,
                               VoltageScale& scale) {
  SwitchCost cost = switch_cost(params, from, to, locked_pll);
  if (cost.total_us == 0.0) return cost;  // no-op switch

  // Regulator-scale policy: raising the scale is mandatory before running
  // faster; lowering it is only worthwhile on "slow" transitions (PLL
  // relocks, i.e. between layers). Fast intra-layer mux toggles keep the
  // pinned scale so they never wait the ~40 us regulator settle time.
  const VoltageScale needed = to.voltage_scale();
  if (core_voltage(needed) > core_voltage(scale)) {
    scale = needed;
    cost.total_us += params.vos_change_us;
    cost.vos_changed = true;
  } else if (needed != scale && cost.pll_relocked) {
    scale = needed;
    cost.total_us += params.vos_change_us;
    cost.vos_changed = true;
  }

  if (to.source == ClockSource::kPll) {
    locked_pll = to.pll;  // (re)locked by the switch
  }
  // Selecting HSE/HSI leaves the PLL running (hardware behaviour): the mux
  // merely bypasses it. Rcc::stop_pll() models explicit gating.
  return cost;
}

SwitchCost Rcc::switch_to(const ClockConfig& target) {
  if (auto err = target.validation_error()) {
    throw std::invalid_argument("invalid clock config: " + *err);
  }
  const SwitchCost cost =
      apply_switch_policy(params_, current_, target, locked_pll_, scale_);
  if (cost.total_us == 0.0) return cost;  // no-op switch

  current_ = target;
  ++version_;
  ++stats_.switches;
  if (cost.pll_relocked) ++stats_.pll_relocks;
  if (cost.vos_changed) ++stats_.vos_changes;
  stats_.total_switch_us += cost.total_us;
  return cost;
}

void Rcc::stop_pll() {
  if (current_.source == ClockSource::kPll) {
    throw std::logic_error("cannot stop the PLL while it drives SYSCLK");
  }
  locked_pll_.reset();
  ++version_;
}

}  // namespace daedvfs::clock

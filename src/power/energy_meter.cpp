#include "power/energy_meter.hpp"

#include <cassert>
#include <cmath>

namespace daedvfs::power {

EnergyMeter::TagId EnergyMeter::intern(const std::string& tag) {
  const auto [it, inserted] =
      ids_.try_emplace(tag, static_cast<TagId>(tags_.size()));
  if (inserted) tags_.push_back({tag});
  return it->second;
}

void EnergyMeter::record(double t_begin_us, double t_end_us, double power_mw,
                         TagId tag) {
  assert(t_end_us >= t_begin_us);
  TagSum& sum = tags_.at(tag);
  const double uj = power_mw * (t_end_us - t_begin_us) * 1e-3;  // mW*us -> uJ
  total_uj_ += uj;
  sum.uj += uj;
  sum.recorded = true;
  if (keep_trace_) {
    if (trace_.size() < trace_cap_) {
      trace_.push_back({t_begin_us, t_end_us, power_mw, sum.name});
    } else {
      trace_[trace_head_] = {t_begin_us, t_end_us, power_mw, sum.name};
      trace_head_ = (trace_head_ + 1) % trace_cap_;
      ++trace_dropped_;
    }
  }
}

void EnergyMeter::set_trace_capacity(std::size_t capacity) {
  if (capacity < 1) capacity = 1;
  if (capacity == trace_cap_) {
    return;
  }
  // Re-linearize so the vector starts at the oldest retained segment, then
  // trim from the front (oldest) if the new bound is smaller.
  std::vector<PowerSegment> flat = trace();
  if (flat.size() > capacity) {
    trace_dropped_ += flat.size() - capacity;
    flat.erase(flat.begin(),
               flat.begin() + static_cast<std::ptrdiff_t>(flat.size() -
                                                          capacity));
  }
  trace_ = std::move(flat);
  trace_head_ = 0;
  trace_cap_ = capacity;
}

std::vector<PowerSegment> EnergyMeter::trace() const {
  std::vector<PowerSegment> out;
  out.reserve(trace_.size());
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    out.push_back(trace_[(trace_head_ + i) % trace_.size()]);
  }
  return out;
}

double EnergyMeter::tag_uj(const std::string& tag) const {
  const auto it = ids_.find(tag);
  return it == ids_.end() ? 0.0 : tags_[it->second].uj;
}

std::map<std::string, double> EnergyMeter::by_tag() const {
  std::map<std::string, double> out;
  for (const TagSum& t : tags_) {
    if (t.recorded) out.emplace(t.name, t.uj);
  }
  return out;
}

void EnergyMeter::reset() {
  total_uj_ = 0.0;
  for (TagSum& t : tags_) {
    t.uj = 0.0;
    t.recorded = false;
  }
  trace_.clear();
  trace_head_ = 0;
  trace_dropped_ = 0;
}

double Ina219Sampler::sampled_energy_uj(
    const std::vector<PowerSegment>& trace, double t0_us,
    double t1_us) const {
  if (trace.empty() || t1_us <= t0_us) return 0.0;
  double energy_uj = 0.0;
  std::size_t seg = 0;
  for (double t = t0_us; t < t1_us; t += sample_period_us) {
    // Advance to the segment containing t (trace is time-ordered).
    while (seg + 1 < trace.size() && trace[seg].t_end_us <= t) ++seg;
    double p = 0.0;
    if (t >= trace[seg].t_begin_us && t < trace[seg].t_end_us) {
      p = trace[seg].power_mw;
    }
    const double quantized = std::round(p / lsb_mw) * lsb_mw;
    const double dt = std::min(sample_period_us, t1_us - t);
    energy_uj += quantized * dt * 1e-3;
  }
  return energy_uj;
}

}  // namespace daedvfs::power

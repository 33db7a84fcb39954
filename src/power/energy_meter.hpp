// Energy accounting over the simulated timeline, standing in for the INA219
// power sensor of the paper's rig. The meter integrates P(t) dt exactly
// (event-driven), and can additionally resample the power trace at a fixed
// period with quantization to mimic the physical sensor's 12-bit sampling —
// used by tests to show the measurement error the paper's rig would add.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace daedvfs::power {

/// One constant-power segment of the timeline.
struct PowerSegment {
  double t_begin_us = 0.0;
  double t_end_us = 0.0;
  double power_mw = 0.0;
  /// Attribution tag (layer index, "idle", "switch", ...).
  std::string tag;
};

/// Exact, event-driven energy integrator with per-tag attribution.
///
/// Tags are interned to dense ids so the per-event path adds into a vector
/// slot instead of looking a string up. Each tag's energy is still the sum
/// of its records in recording order, so the per-tag totals are the same
/// doubles a string-keyed map would hold.
class EnergyMeter {
 public:
  using TagId = std::uint32_t;

  /// Returns the id of `tag`, assigning the next dense id on first use. Ids
  /// stay valid for the meter's lifetime, across reset().
  [[nodiscard]] TagId intern(const std::string& tag);

  /// Records that the board drew `power_mw` from `t_begin_us` to `t_end_us`.
  /// `tag` must be an id this meter issued (std::out_of_range otherwise).
  void record(double t_begin_us, double t_end_us, double power_mw, TagId tag);
  void record(double t_begin_us, double t_end_us, double power_mw,
              const std::string& tag) {
    record(t_begin_us, t_end_us, power_mw, intern(tag));
  }

  /// Total integrated energy in microjoules.
  [[nodiscard]] double total_uj() const { return total_uj_; }
  /// Energy attributed to one tag (0 if unknown).
  [[nodiscard]] double tag_uj(const std::string& tag) const;
  /// Energy per tag, over the tags recorded since construction or reset().
  [[nodiscard]] std::map<std::string, double> by_tag() const;
  /// Raw trace (only retained when enabled; off by default to keep long
  /// simulations cheap). Retention is bounded: once the ring holds
  /// `trace_capacity()` segments the oldest are overwritten
  /// (trace_dropped() counts them), so keep_trace(true) on an arbitrarily
  /// long simulation uses constant memory.
  void keep_trace(bool on) { keep_trace_ = on; }
  /// Default trace bound: ~1M segments (tens of MB worst case).
  static constexpr std::size_t kDefaultTraceCapacity = 1u << 20;
  /// Sets the trace ring bound (clamped to >= 1). Existing retained
  /// segments are preserved newest-first if the new bound is smaller.
  void set_trace_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t trace_capacity() const { return trace_cap_; }
  /// Segments overwritten by the bounded ring.
  [[nodiscard]] std::uint64_t trace_dropped() const { return trace_dropped_; }
  /// Retained segments in chronological order. Returns by value: the ring's
  /// storage wraps, so a flattened copy is materialized per call.
  [[nodiscard]] std::vector<PowerSegment> trace() const;

  /// Average power over [t0, t1] computed from the totals.
  [[nodiscard]] double average_power_mw(double t0_us, double t1_us) const {
    return t1_us > t0_us ? total_uj_ / (t1_us - t0_us) * 1000.0 : 0.0;
  }

  /// Zeroes all sums and drops the trace; interned ids stay valid.
  void reset();

 private:
  struct TagSum {
    std::string name;
    double uj = 0.0;
    bool recorded = false;  ///< Recorded since construction or reset().
  };

  double total_uj_ = 0.0;
  std::vector<TagSum> tags_;  ///< Indexed by TagId.
  std::unordered_map<std::string, TagId> ids_;
  bool keep_trace_ = false;
  std::vector<PowerSegment> trace_;
  std::size_t trace_cap_ = kDefaultTraceCapacity;
  std::size_t trace_head_ = 0;  ///< Oldest retained segment once wrapped.
  std::uint64_t trace_dropped_ = 0;
};

/// INA219-style fixed-rate sampler: integrates a retained trace the way the
/// physical sensor would (sample & hold at `sample_period_us`, current LSB
/// quantization). Quantifies rig measurement error in tests.
struct Ina219Sampler {
  double sample_period_us = 1000.0;  ///< ~1 kHz effective sampling.
  double lsb_mw = 0.5;               ///< Power quantization step.

  /// Energy (uJ) the sensor would report for `trace` over [t0, t1].
  [[nodiscard]] double sampled_energy_uj(
      const std::vector<PowerSegment>& trace, double t0_us,
      double t1_us) const;
};

}  // namespace daedvfs::power

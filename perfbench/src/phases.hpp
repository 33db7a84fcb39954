// The three workload phases. Every run executes all three, interleaved in
// rounds: the phase named by --workload gets most of each round, the other
// two a smaller slice, so every run reports every metric and slow periods
// of the host fall on all phases alike.
#pragma once

#include <memory>

#include "bench.hpp"

namespace perfbench {

class Phase {
 public:
  virtual ~Phase() = default;
  Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Builds the phase's library state from scratch (replacing any earlier
  /// one). Called several times per run; setup_s is the median.
  virtual void setup() = 0;
  /// Runs timed operations for about `seconds` (at least one).
  virtual void step(double seconds) = 0;
  /// Completes the fixed-size prefix if the steps fell short, runs the
  /// checks and derives the metrics. With a tracer on, fills per_layer
  /// instead of end_to_end.
  virtual PhaseOut finish() = 0;
};

std::unique_ptr<Phase> make_plan_phase(const PhaseArgs& args);
std::unique_ptr<Phase> make_fleet_phase(const PhaseArgs& args);
std::unique_ptr<Phase> make_serve_phase(const PhaseArgs& args);

}  // namespace perfbench

// fleet: repeated scenario::simulate_fleet calls at nproc threads over
// ladders built once in setup. Three device classes: the two winter classes
// of bench_fleet on the governor+prelock ladder (every variation knob and
// fault path on) and a PlanningPolicy class (horizon 8, 8-frame uplink
// batches) whose forecast is the class base spec, so per-node variation
// acts as forecast error. The simulator does no work here.
#include <sstream>
#include <string>
#include <vector>

#include "dse/design_space.hpp"
#include "dse/profile_cache.hpp"
#include "governor/planning.hpp"
#include "graph/zoo.hpp"
#include "phases.hpp"
#include "power/power_model.hpp"
#include "scenario/fleet.hpp"

namespace perfbench {
namespace {

using namespace daedvfs;

constexpr std::uint32_t kSensingNodes = 128;
constexpr std::uint32_t kRelayNodes = 64;
constexpr std::uint32_t kPlannerNodes = 64;
constexpr double kHorizonS = 14400.0;
/// Simulated metrics and the digest cover the first calls only.
constexpr int kPrefix = 4;

/// bench_fleet's winter mission, over a 4-hour horizon.
scenario::MissionSpec winter_base() {
  const double h = kHorizonS;
  scenario::MissionSpec base;
  base.name = "winter";
  base.horizon_s = h;
  base.duty.period_s = 5.0;
  base.duty.sleep_mw = 0.9;
  base.battery.capacity_mwh = 16.0;
  base.base_qos_slack = 0.35;
  base.qos_events = {{h * 0.2, 0.05}, {h * 0.5, 0.6}, {h * 0.75, 0.15}};
  base.period_jitter = 0.05;
  base.connectivity = {
      {0.0, h * 0.25}, {h * 0.4, h * 0.3}, {h * 0.85, h * 0.15}};
  base.uplink_queue_frames = 48;
  base.base_harvest_mw = 0.8;
  base.harvest_events = {{h * 0.3, 3.5}, {h * 0.7, 0.3}};
  base.radio.link_kbps = 250.0;
  base.radio.payload_bytes = 512.0;
  base.faults.radio.loss_prob = 0.04;
  base.faults.radio.max_retries = 2;
  base.faults.resets = {{h * 0.55}};
  base.faults.reboot.boot_s = 4.0;
  base.faults.reboot.boot_uj = 1200.0;
  return base;
}

scenario::MissionSpec planner_base() {
  scenario::MissionSpec base = winter_base();
  base.name = "planned";
  base.radio_batch_frames = 8;
  return base;
}

std::string fleet_json(const scenario::FleetReport& r) {
  std::ostringstream os;
  os.precision(17);
  scenario::write_fleet_json(os, r);
  return os.str();
}

class FleetPhase final : public Phase {
 public:
  explicit FleetPhase(const PhaseArgs& a)
      : args_(a), model_(graph::zoo::make_person_detection()) {}

  void setup() override {
    governor::GovernorConfig cfg;
    cfg.pipeline.space = dse::make_paper_design_space(
        power::PowerModel{cfg.pipeline.explore.sim.power});
    cfg.predictive = true;
    sim_ = cfg.pipeline.explore.sim;
    planner_.reset();
    ladders_ = {};
    cache_ = std::make_unique<dse::ProfileCache>();
    const Clock::time_point t0 = Clock::now();
    ladders_ =
        scenario::build_fleet_ladders({{"winter", &model_, cfg}}, *cache_);
    ladder_ms_.push_back(ms_since(t0));
    const governor::ScheduleGovernor& gov = *ladders_.governors.front();
    governor::PlanningConfig pcfg;
    pcfg.horizon = 8;
    pcfg.forecast =
        governor::MissionForecast::from_spec(planner_base(), gov.t_base_us());
    planner_ = std::make_unique<governor::PlanningPolicy>(
        gov.rungs(), sim_.switching, sim_.power, pcfg, "planner+forecast",
        true);
  }

  void step(double seconds) override {
    const Clock::time_point t0 = Clock::now();
    do {
      run_call();
    } while (ms_since(t0) < seconds * 1e3);
  }

  PhaseOut finish() override {
    while (next_ < kPrefix) run_call();
    PhaseOut out;
    out.checks = checks_;
    Digest d;
    for (const std::string& s : prefix_json_) d.str(s);
    out.digest = d.hex();

    // Determinism: fleet 0 again on one thread, byte-identical report.
    scenario::FleetOptions one;
    one.threads = 1;
    out.checks.expect(
        fleet_json(scenario::simulate_fleet(make_fleet(0), one)) ==
            prefix_json_.front(),
        "fleet 0 report differs between 1 and " +
            std::to_string(args_.threads) + " threads");

    if (args_.tracer == nullptr || !args_.tracer->on()) {
      const scenario::FleetReport& p = prefix_;
      out.end_to_end = {
          {"fleet_frames_per_s", median(call_rate_), "frames/s"},
          {"fleet_availability", p.fleet_availability(), "fraction"},
          {"fleet_energy_j_per_node",
           p.total_energy_uj / static_cast<double>(p.nodes) * 1e-6, "J"},
      };
    } else {
      trace_metrics(out);
    }
    out.notes.push_back("\"fleet_calls\": " + std::to_string(call_ms_.size()));
    return out;
  }

 private:
  void run_call() {
    const int i = next_++;
    const scenario::FleetSpec fleet = make_fleet(i);
    scenario::FleetOptions opts;
    opts.threads = args_.threads;
    Tracer::Scope span(args_.tracer, "fleet.simulate_fleet", i);
    const Clock::time_point t0 = Clock::now();
    const scenario::FleetReport r = scenario::simulate_fleet(fleet, opts);
    const double ms = ms_since(t0);
    span.close();
    call_ms_.push_back(ms);
    call_rate_.push_back(static_cast<double>(r.frames_offered) / (ms * 1e-3));
    check(fleet, r, checks_, i);
    if (i < kPrefix) {
      prefix_json_.push_back(fleet_json(r));
      prefix_.nodes += r.nodes;
      prefix_.frames_offered += r.frames_offered;
      prefix_.frames += r.frames;
      prefix_.depleted += r.depleted;
      prefix_.resets += r.resets;
      prefix_.deadline_misses += r.deadline_misses;
      prefix_.total_energy_uj += r.total_energy_uj;
    }
  }

  scenario::FleetSpec make_fleet(int i) const {
    const governor::ScheduleGovernor& gov = *ladders_.governors.front();
    scenario::NodeVariation vary;
    vary.battery_age = 0.5;
    vary.harvest_scale = 0.6;
    vary.link_quality = 0.3;
    vary.ambient_offset_c = 10.0;

    scenario::FleetSpec fleet;
    fleet.name = "perfbench-fleet";
    fleet.seed =
        stream_seed(args_.seed, 0xf1ee7000ULL + static_cast<std::uint64_t>(i));
    scenario::DeviceClass sensing;
    sensing.name = "sensing";
    sensing.nodes = kSensingNodes;
    sensing.base = winter_base();
    sensing.variation = vary;
    sensing.policy = &gov;
    sensing.t_base_us = gov.t_base_us();
    sensing.sim = sim_;
    fleet.classes.push_back(sensing);

    scenario::DeviceClass relay = sensing;
    relay.name = "relay";
    relay.nodes = kRelayNodes;
    relay.base.name = "relay";
    relay.base.duty.period_s = 3.0;
    relay.base.battery.capacity_mwh = 30.0;
    fleet.classes.push_back(relay);

    scenario::DeviceClass planned = sensing;
    planned.name = "planner";
    planned.nodes = kPlannerNodes;
    planned.base = planner_base();
    planned.policy = planner_.get();
    fleet.classes.push_back(planned);
    return fleet;
  }

  static void check(const scenario::FleetSpec& fleet,
                    const scenario::FleetReport& r, Checks& c, int i) {
    const std::string tag = "fleet call " + std::to_string(i);
    const double a = r.fleet_availability();
    c.expect(a >= 0.0 && a <= 1.0 && r.availability.min >= 0.0 &&
                 r.availability.max <= 1.0,
             tag + ": availability outside [0, 1]");
    std::uint64_t class_nodes = 0;
    for (const scenario::FleetClassReport& cr : r.classes) {
      class_nodes += cr.nodes;
    }
    c.expect(class_nodes == r.nodes && r.nodes == fleet.total_nodes() &&
                 r.classes.size() == fleet.classes.size(),
             tag + ": per-class node counts do not add up");
  }

  /// Serial simulate_mission over fleet 0's derived nodes: per-mission and
  /// per-frame host cost, and the parallel efficiency of the fan-out against
  /// fleet 0 simulated once more right after.
  void trace_metrics(PhaseOut& out) {
    const scenario::FleetReport& counts = prefix_;
    Tracer* tr = args_.tracer;
    const scenario::FleetSpec fleet = make_fleet(0);
    std::vector<double> mission_ms;
    std::vector<double> class_ms(fleet.classes.size());
    std::vector<double> class_offered(fleet.classes.size());
    double serial_ms = 0.0, serial_energy = 0.0;
    std::uint64_t serial_frames = 0;
    std::uint64_t node_id = 0;
    for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
      const scenario::DeviceClass& dc = fleet.classes[c];
      for (std::uint32_t k = 0; k < dc.nodes; ++k, ++node_id) {
        const scenario::MissionSpec spec =
            scenario::derive_node_spec(fleet, c, node_id);
        Tracer::Scope span(tr, "scenario.simulate_mission",
                           static_cast<std::int64_t>(node_id));
        const scenario::MissionReport r =
            scenario::simulate_mission(spec, *dc.policy, dc.t_base_us, dc.sim);
        const double ms = span.close();
        mission_ms.push_back(ms);
        serial_ms += ms;
        class_ms[c] += ms;
        class_offered[c] += static_cast<double>(r.frames_offered);
        serial_energy += r.total_uj();
        serial_frames += r.frames;
      }
    }
    scenario::FleetOptions opts;
    opts.threads = args_.threads;
    Tracer::Scope span(tr, "fleet.simulate_fleet", 0);
    const scenario::FleetReport r0 = scenario::simulate_fleet(fleet, opts);
    const double eff = serial_ms / (args_.threads * span.close());
    out.checks.expect(serial_frames == r0.frames &&
                          serial_energy == r0.total_energy_uj,
                      "fleet 0: serial missions disagree with the fleet");

    out.per_layer = {
        {"governor.ladder_ms", median(ladder_ms_), "ms"},
        {"scenario.mission_ms_p50", percentile(mission_ms, 50), "ms"},
        {"scenario.mission_ms_p90", percentile(mission_ms, 90), "ms"},
    };
    for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
      out.per_layer.push_back({"scenario.frame_ns." + fleet.classes[c].name,
                               class_ms[c] * 1e6 / class_offered[c], "ns"});
    }
    const auto per_call = [](std::uint64_t total) {
      return static_cast<double>(total) / kPrefix;
    };
    out.per_layer.insert(
        out.per_layer.end(),
        {
            {"fleet.call_ms", median(call_ms_), "ms"},
            {"util.fleet_parallel_eff", eff, "ratio"},
            {"fleet.frames_offered", per_call(counts.frames_offered), "count"},
            {"fleet.frames", per_call(counts.frames), "count"},
            {"fleet.depleted", per_call(counts.depleted), "count"},
            {"fleet.resets", per_call(counts.resets), "count"},
            {"fleet.deadline_misses", per_call(counts.deadline_misses),
             "count"},
        });
  }

  PhaseArgs args_;
  graph::Model model_;
  sim::SimParams sim_;
  std::unique_ptr<dse::ProfileCache> cache_;
  scenario::FleetLadders ladders_;
  std::unique_ptr<governor::PlanningPolicy> planner_;
  std::vector<double> ladder_ms_;
  int next_ = 0;  ///< Index of the next simulate_fleet call.
  std::vector<double> call_ms_;
  std::vector<double> call_rate_;  ///< Offered frames per host second.
  std::vector<std::string> prefix_json_;
  scenario::FleetReport prefix_;  ///< Totals over the prefix calls.
  Checks checks_;
};

}  // namespace

std::unique_ptr<Phase> make_fleet_phase(const PhaseArgs& args) {
  return std::make_unique<FleetPhase>(args);
}

}  // namespace perfbench

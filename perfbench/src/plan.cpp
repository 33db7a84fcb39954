// plan: cold energy planning, a closed loop with one client. Each job builds
// a zoo model, plans it with core::Pipeline exactly as energy_planner does
// (fresh profile cache, seeded QoS slack, a seeded share of jobs without the
// switch-overhead reserve) and runs one Full-mode inference of the chosen
// schedule. The cycle-level simulator does nearly all of this work.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/schedule_builder.hpp"
#include "dse/design_space.hpp"
#include "graph/zoo.hpp"
#include "mckp/mckp.hpp"
#include "phases.hpp"
#include "power/power_model.hpp"
#include "runtime/baseline.hpp"

namespace perfbench {
namespace {

using namespace daedvfs;

constexpr int kModels = 3;
constexpr int kStrata = 4;
/// One block = every (model, slack stratum) pair once, in seeded order.
constexpr int kBlock = kModels * kStrata;
/// Simulated metrics and the digest cover the first three blocks, so they
/// are identical for every run of one seed however many jobs the run fits.
constexpr int kPrefix = 3 * kBlock;
constexpr double kSlackMin = 0.02;
constexpr double kSlackMax = 0.60;

struct JobSpec {
  int model = 0;
  double slack = 0.3;
  bool reserve = true;
};

graph::Model make_model(int which) {
  switch (which) {
    case 0: return graph::zoo::make_vww();
    case 1: return graph::zoo::make_person_detection();
    default: return graph::zoo::make_mbv2();
  }
}

/// Job j of a run: block j / kBlock is a seeded permutation of the
/// (model, stratum) pairs, the slack is uniform inside its stratum, and half
/// the strata of each model (seeded) plan without the overhead reserve —
/// the jobs on which the QoS-repair loop can run.
JobSpec job_spec(std::uint64_t seed, int j) {
  const auto block = static_cast<std::uint64_t>(j / kBlock);
  Rng rng(stream_seed(seed, 0x91a0000ULL + block));
  std::array<int, kBlock> order{};
  for (int i = 0; i < kBlock; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = kBlock - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.below(static_cast<std::uint32_t>(i + 1))]);
  }
  std::array<std::uint32_t, kModels> no_reserve{};  // Bit s: stratum s.
  for (std::uint32_t& bits : no_reserve) {
    const std::uint32_t a = rng.below(kStrata);
    const std::uint32_t b = (a + 1 + rng.below(kStrata - 1)) % kStrata;
    bits = (1u << a) | (1u << b);
  }
  std::array<double, kBlock> u{};
  for (double& x : u) x = rng.uniform();

  const int pos = j % kBlock;
  const int pair = order[static_cast<std::size_t>(pos)];
  JobSpec js;
  js.model = pair / kStrata;
  const int stratum = pair % kStrata;
  const double width = (kSlackMax - kSlackMin) / kStrata;
  js.slack = kSlackMin + width * (stratum + u[static_cast<std::size_t>(pos)]);
  const std::uint32_t bits = no_reserve[static_cast<std::size_t>(js.model)];
  js.reserve = ((bits >> stratum) & 1u) == 0;
  return js;
}

core::PipelineConfig make_config(const JobSpec& js, int threads) {
  core::PipelineConfig cfg;
  cfg.qos_slack = js.slack;
  cfg.reserve_switch_overhead = js.reserve;
  cfg.space =
      dse::make_paper_design_space(power::PowerModel{cfg.explore.sim.power});
  cfg.explore.num_threads = threads;
  return cfg;
}

sim::SimParams boot_params(const core::PipelineConfig& cfg,
                           const runtime::Schedule& s) {
  sim::SimParams params = cfg.explore.sim;
  if (!s.plans.empty()) params.boot = s.plans.front().hfo;
  return params;
}

/// Everything a job produces that the checks and the digest read.
struct Outcome {
  std::string model;
  runtime::Schedule schedule;
  core::IsoLatencyComparison cmp;
  bool fell_back = false;
  runtime::InferenceResult full;
  std::uint64_t digest = 0;
};

std::uint64_t digest_of(const JobSpec& js, const Outcome& o) {
  Digest d;
  d.str(o.model);
  d.f64(js.slack);
  d.u64(js.reserve);
  for (const runtime::LayerPlan& p : o.schedule.plans) {
    d.u64(static_cast<std::uint64_t>(p.granularity));
    d.str(p.hfo.str());
    d.str(p.lfo.str());
    d.u64(p.dvfs_enabled);
  }
  for (const runtime::IsoLatencyResult* r :
       {&o.cmp.tinyengine, &o.cmp.tinyengine_gated, &o.cmp.dae_dvfs}) {
    d.f64(r->inference_us);
    d.f64(r->inference_uj);
    d.f64(r->idle_us);
    d.f64(r->idle_uj);
    d.u64(r->met_qos);
  }
  d.u64(o.fell_back);
  d.f64(o.full.total_us);
  d.f64(o.full.total_energy_uj);
  d.bytes(o.full.output.data(), o.full.output.size());
  return d.value();
}

runtime::InferenceResult full_inference(const graph::Model& model,
                                        const core::PipelineConfig& cfg,
                                        const runtime::Schedule& s,
                                        const std::vector<int8_t>& input) {
  runtime::InferenceEngine engine(model);
  sim::Mcu mcu(boot_params(cfg, s));
  return engine.run(mcu, s, kernels::ExecMode::kFull, input);
}

enum Stage {
  kGraph, kSpace, kBaseline, kExplore, kMckp, kBuild, kIso, kStages
};

/// Per-job numbers only the traced path records.
struct TraceJob {
  double job_ms = 0.0;
  double covered_ms = 0.0;
  double sim_backed_ms = 0.0;
  std::array<double, kStages> stage_ms{};
  double infer_ms = 0.0;
  double full_ms = 0.0;
  std::int64_t macs = 0;
  dse::ExploreStats explore;
  std::int64_t pareto_points = 0;
  int repair_iterations = 0;
  int repair_simulations = 0;
  int repair_layer_recordings = 0;
  sim::CacheStats cache;
  clock::RccStats rcc;
};

class PlanPhase final : public Phase {
 public:
  explicit PlanPhase(const PhaseArgs& a) : args_(a) {
    for (int m = 0; m < kModels; ++m) {
      Rng rng(stream_seed(a.seed, 0x1a9u + static_cast<std::uint64_t>(m)));
      const graph::Model model = make_model(m);
      std::vector<int8_t>& in = inputs_[static_cast<std::size_t>(m)];
      in.resize(static_cast<std::size_t>(model.input_shape().elems()));
      for (int8_t& x : in) x = static_cast<int8_t>(rng.next() & 0xff);
    }
  }

  /// Reference outputs: the TinyEngine schedule in Full mode on the seeded
  /// inputs. Every planned schedule must reproduce them bit for bit.
  void setup() override {
    for (int m = 0; m < kModels; ++m) {
      const graph::Model model = make_model(m);
      core::PipelineConfig cfg;
      reference_[static_cast<std::size_t>(m)] =
          full_inference(model, cfg, runtime::make_tinyengine_schedule(model),
                         inputs_[static_cast<std::size_t>(m)])
              .output;
    }
  }

  void step(double seconds) override {
    const Clock::time_point t0 = Clock::now();
    do {
      run_job();
    } while (ms_since(t0) < seconds * 1e3);
  }

  PhaseOut finish() override {
    while (next_ < kPrefix) run_job();
    PhaseOut out;
    out.checks = checks_;
    Digest prefix;
    for (int j = 0; j < kPrefix; ++j) {
      prefix.u64(digests_[static_cast<std::size_t>(j)]);
    }
    out.digest = prefix.hex();

    // Determinism: job 0 again, on one thread, must reproduce its digest.
    const JobSpec js0 = job_spec(args_.seed, 0);
    out.checks.expect(run_untraced(js0, 1).digest == digests_[0],
                      "plan job 0 digest differs between 1 and " +
                          std::to_string(args_.threads) + " threads");

    const double n = static_cast<double>(job_ms_.size());
    if (!traced()) {
      out.end_to_end = {
          {"plan_per_s", n / (total_ms_ * 1e-3), "plans/s"},
          {"plan_ms_p50", percentile(job_ms_, 50), "ms"},
          {"plan_ms_p90", percentile(job_ms_, 90), "ms"},
          {"gain_vs_tinyengine_pct", mean(gain_te_), "%"},
          {"gain_vs_gated_pct", mean(gain_gated_), "%"},
      };
    } else {
      trace_metrics(out);
    }
    out.notes.push_back("\"plan_jobs\": " + std::to_string(job_ms_.size()));
    return out;
  }

 private:
  [[nodiscard]] bool traced() const {
    return args_.tracer != nullptr && args_.tracer->on();
  }

  void run_job() {
    const int j = next_++;
    const JobSpec js = job_spec(args_.seed, j);
    Outcome o;
    TraceJob tj;
    const Clock::time_point t0 = Clock::now();
    if (traced()) {
      o = run_traced(js, j, args_.threads, tj);
    } else {
      o = run_untraced(js, args_.threads);
    }
    const double ms = ms_since(t0);
    total_ms_ += ms;
    job_ms_.push_back(ms);
    check(js, o, checks_, j);
    digests_.push_back(o.digest);
    if (j < kPrefix) {
      gain_te_.push_back(o.cmp.gain_vs_tinyengine_pct());
      gain_gated_.push_back(o.cmp.gain_vs_gated_pct());
    }
    if (traced()) tjobs_.push_back(tj);
  }

  Outcome run_untraced(const JobSpec& js, int threads) const {
    Outcome o;
    const graph::Model model = make_model(js.model);
    const core::PipelineConfig cfg = make_config(js, threads);
    const core::PipelineResult r = core::Pipeline(cfg).run(model);
    o.model = r.model_name;
    o.schedule = r.schedule;
    o.cmp = r.comparison;
    o.fell_back = r.fell_back_to_baseline;
    o.full = full_inference(model, cfg, r.schedule,
                            inputs_[static_cast<std::size_t>(js.model)]);
    o.digest = digest_of(js, o);
    return o;
  }

  /// core::Pipeline::run taken apart into its public calls, one span each
  /// (same order, same arguments, same fallbacks), plus the Timing-mode
  /// inference the kernel and simulator counts come from.
  Outcome run_traced(const JobSpec& js, std::int64_t j, int threads,
                     TraceJob& tj) const {
    Tracer* tr = args_.tracer;
    Tracer::Scope job(tr, "plan.job", j);
    const int job_idx = static_cast<int>(tr->spans().size()) - 1;
    Outcome o;

    Tracer::Scope s_graph(tr, "graph.build", j);
    const graph::Model model = make_model(js.model);
    tj.stage_ms[kGraph] = s_graph.close();
    Tracer::Scope s_space(tr, "dse.space", j);
    const core::PipelineConfig cfg = make_config(js, threads);
    tj.stage_ms[kSpace] = s_space.close();

    runtime::InferenceEngine engine(model);
    const runtime::Schedule te = runtime::make_tinyengine_schedule(model);
    Tracer::Scope s_base(tr, "core.baseline", j);
    const double t_base = core::tinyengine_baseline_us(engine, cfg.explore.sim);
    tj.stage_ms[kBaseline] = s_base.close();
    const double qos_us = t_base * (1.0 + cfg.qos_slack);

    Tracer::Scope s_explore(tr, "dse.explore", j);
    const std::vector<dse::LayerSolutionSet> fronts = dse::explore_model(
        model, cfg.space, cfg.effective_explore(), &tj.explore);
    tj.stage_ms[kExplore] = s_explore.close();

    const core::ScheduleBuilder schedules(model, engine, cfg);
    Tracer::Scope s_mckp(tr, "mckp.solve", j);
    mckp::Instance inst = core::ScheduleBuilder::make_instance(fronts);
    inst.capacity = schedules.mckp_capacity(qos_us);
    mckp::DpWorkspace probe_ws;
    (void)mckp::solve_dp(inst, cfg.mckp_ticks, probe_ws);
    tj.stage_ms[kMckp] = s_mckp.close();

    Tracer::Scope s_build(tr, "core.build", j);
    mckp::DpWorkspace ws;
    const core::BuiltSchedule built = schedules.build(fronts, qos_us, ws);
    tj.stage_ms[kBuild] = s_build.close();
    tj.repair_iterations = built.repair_iterations;
    tj.repair_simulations = built.repair_simulations;
    tj.repair_layer_recordings = built.repair_layer_recordings;
    for (const dse::LayerSolutionSet& f : fronts) {
      tj.pareto_points += static_cast<std::int64_t>(f.pareto.size());
    }

    o.model = model.name();
    o.schedule.plans = built.feasible ? built.schedule.plans : te.plans;
    auto run_case = [&](const runtime::Schedule& s, bool gated) {
      Tracer::Scope span(tr, "runtime.iso", j);
      sim::Mcu mcu(boot_params(cfg, s));
      runtime::IsoLatencyResult r = runtime::run_iso_latency(
          engine, mcu, s, qos_us, gated, kernels::ExecMode::kTiming);
      tj.stage_ms[kIso] += span.close();
      return r;
    };
    o.cmp.tinyengine = run_case(te, false);
    o.cmp.tinyengine_gated = run_case(te, true);
    o.cmp.dae_dvfs = run_case(o.schedule, true);
    if (o.cmp.dae_dvfs.total_uj() > o.cmp.tinyengine_gated.total_uj()) {
      o.fell_back = true;
      o.schedule = te;
      o.cmp.dae_dvfs = o.cmp.tinyengine_gated;
    }

    {
      Tracer::Scope span(tr, "sim.infer", j);
      sim::Mcu mcu(boot_params(cfg, o.schedule));
      (void)engine.run(mcu, o.schedule, kernels::ExecMode::kTiming);
      tj.infer_ms = span.close();
      tj.cache = mcu.cache().stats();
      tj.rcc = mcu.rcc().stats();
    }
    {
      Tracer::Scope span(tr, "kernels.full_infer", j);
      o.full = full_inference(model, cfg, o.schedule,
                              inputs_[static_cast<std::size_t>(js.model)]);
      tj.full_ms = span.close();
    }
    tj.macs = model.stats().total_macs;
    o.digest = digest_of(js, o);

    tj.job_ms = job.close();
    tj.covered_ms = tr->child_ms(job_idx);
    tj.sim_backed_ms = tj.stage_ms[kBaseline] + tj.stage_ms[kExplore] +
                       tj.stage_ms[kBuild] + tj.stage_ms[kIso];
    return o;
  }

  void check(const JobSpec& js, const Outcome& o, Checks& c, int j) const {
    const std::string tag = "plan job " + std::to_string(j) + " (" + o.model +
                            ", slack " + std::to_string(js.slack) + ")";
    c.expect(o.full.output == reference_[static_cast<std::size_t>(js.model)],
             tag + ": Full-mode output differs from TinyEngine's");
    const runtime::InferenceResult& timing = o.cmp.dae_dvfs.inference;
    c.expect(o.full.total_us == timing.total_us &&
                 o.full.total_energy_uj == timing.total_energy_uj,
             tag + ": Full-mode and Timing-mode simulated costs differ");
    c.expect(o.cmp.dae_dvfs.met_qos, tag + ": schedule misses its QoS window");
  }

  void trace_metrics(PhaseOut& out) {
    const std::vector<TraceJob>& tjobs = tjobs_;
    Checks& c = out.checks;
    auto stage = [&](Stage s) {
      std::vector<double> v;
      for (const TraceJob& t : tjobs) v.push_back(t.stage_ms[s]);
      return median(v);
    };
    std::vector<double> coverage, sim_share, infer, extra, ns_per_access;
    double macs = 0.0, extra_s = 0.0;
    for (std::size_t j = 0; j < tjobs.size(); ++j) {
      const TraceJob& t = tjobs[j];
      coverage.push_back(t.covered_ms / t.job_ms);
      sim_share.push_back(t.sim_backed_ms / t.job_ms);
      c.expect(std::abs(1.0 - coverage.back()) <= 0.10,
               "plan job " + std::to_string(j) +
                   ": stage spans cover only " +
                   std::to_string(coverage.back()) + " of the job");
      c.expect(sim_share.back() > 0.5,
               "plan job " + std::to_string(j) +
                   ": sim-backed calls take only " +
                   std::to_string(sim_share.back()) + " of the job");
      infer.push_back(t.infer_ms);
      extra.push_back(t.full_ms - t.infer_ms);
      ns_per_access.push_back(t.infer_ms * 1e6 /
                              static_cast<double>(t.cache.accesses));
      macs += static_cast<double>(t.macs);
      extra_s += (t.full_ms - t.infer_ms) * 1e-3;
    }
    // Simulated counts: mean per job over the fixed prefix (exact repeats).
    auto per_job = [&](auto field) {
      double sum = 0.0;
      for (int j = 0; j < kPrefix; ++j) {
        sum += static_cast<double>(field(tjobs[static_cast<std::size_t>(j)]));
      }
      return sum / kPrefix;
    };
    const double candidates =
        per_job([](const TraceJob& t) { return t.explore.total_candidates; });
    const double pruned =
        per_job([](const TraceJob& t) { return t.explore.pruned; });
    const double points =
        per_job([](const TraceJob& t) { return t.pareto_points; });

    // The decomposition must be Pipeline::run: the first block again,
    // untraced, reproduces every digest; its wall time is the baseline of
    // the tracing overhead.
    std::vector<double> untraced_ms;
    for (int j = 0; j < kBlock; ++j) {
      const JobSpec js = job_spec(args_.seed, j);
      const Clock::time_point t0 = Clock::now();
      const Outcome o = run_untraced(js, args_.threads);
      untraced_ms.push_back(ms_since(t0));
      c.expect(o.digest == digests_[static_cast<std::size_t>(j)],
               "plan job " + std::to_string(j) +
                   ": traced decomposition differs from Pipeline::run");
    }
    const std::vector<double> traced_block(job_ms_.begin(),
                                           job_ms_.begin() + kBlock);

    out.per_layer = {
        {"graph.build_ms", stage(kGraph), "ms"},
        {"dse.space_ms", stage(kSpace), "ms"},
        {"core.baseline_ms", stage(kBaseline), "ms"},
        {"dse.explore_ms", stage(kExplore), "ms"},
        {"mckp.solve_ms", stage(kMckp), "ms"},
        {"core.build_ms", stage(kBuild), "ms"},
        {"runtime.iso_ms", stage(kIso), "ms"},
        {"sim.infer_ms", median(infer), "ms"},
        {"kernels.full_extra_ms", median(extra), "ms"},
        {"kernels.macs_per_s", extra_s > 0.0 ? macs / extra_s : 0.0, "MAC/s"},
        {"dse.candidates", candidates, "count"},
        {"dse.pruned", pruned, "count"},
        {"dse.profiled",
         per_job([](const TraceJob& t) { return t.explore.profiled; }),
         "count"},
        {"dse.replayed",
         per_job([](const TraceJob& t) { return t.explore.replayed; }),
         "count"},
        {"dse.cache_hits",
         per_job([](const TraceJob& t) { return t.explore.cache_hits; }),
         "count"},
        {"dse.front_yield", points / (candidates - pruned), "ratio"},
        {"core.repair_iterations",
         per_job([](const TraceJob& t) { return t.repair_iterations; }),
         "count"},
        {"core.repair_simulations",
         per_job([](const TraceJob& t) { return t.repair_simulations; }),
         "count"},
        {"core.repair_layer_recordings",
         per_job([](const TraceJob& t) { return t.repair_layer_recordings; }),
         "count"},
        {"sim.line_accesses",
         per_job([](const TraceJob& t) { return t.cache.accesses; }),
         "count"},
        {"sim.line_misses",
         per_job([](const TraceJob& t) { return t.cache.misses; }),
         "count"},
        {"sim.writebacks",
         per_job([](const TraceJob& t) { return t.cache.writebacks; }),
         "count"},
        {"clock.switches",
         per_job([](const TraceJob& t) { return t.rcc.switches; }),
         "count"},
        {"clock.pll_relocks",
         per_job([](const TraceJob& t) { return t.rcc.pll_relocks; }),
         "count"},
        {"sim.ns_per_line_access", median(ns_per_access), "ns"},
        {"plan.stage_coverage", median(coverage), "ratio"},
        {"plan.sim_share", median(sim_share), "ratio"},
        {"trace.plan_overhead_ms",
         median(traced_block) - median(untraced_ms), "ms"},
    };
  }

  PhaseArgs args_;
  std::array<std::vector<int8_t>, kModels> inputs_;
  std::array<std::vector<int8_t>, kModels> reference_;
  int next_ = 0;  ///< Index of the next job.
  double total_ms_ = 0.0;
  std::vector<double> job_ms_;
  std::vector<std::uint64_t> digests_;
  std::vector<double> gain_te_, gain_gated_;
  std::vector<TraceJob> tjobs_;
  Checks checks_;
};

}  // namespace

std::unique_ptr<Phase> make_plan_phase(const PhaseArgs& args) {
  return std::make_unique<PlanPhase>(args);
}

}  // namespace perfbench

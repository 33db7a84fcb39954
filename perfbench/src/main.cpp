// perfbench: the repository's benchmark (see ../README.md).
//
//   perfbench --workload plan|fleet|serve --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--trace-out trace.json]
//
// Every run sets up all three phases and runs them interleaved in rounds for
// S seconds; the --workload phase gets most of every round. The last stdout
// line is the result object; the lines before it describe the host, each
// phase's digest and tallies, and (traced runs) the self time of every
// layer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "kernels/backend.hpp"
#include "phases.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRounds = 5;
/// The timed part is a sequence of rounds, each giving every phase a slice:
/// the --workload phase kPrimaryShare of the round, the others the rest in
/// equal parts.
constexpr double kRoundSeconds = 2.0;
constexpr double kPrimaryShare = 0.6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload plan|fleet|serve --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val.c_str());
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else if (key == "--git-sha") {
      o.git_sha = val;
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (o.workload != "plan" && o.workload != "fleet" && o.workload != "serve") {
    usage("--workload must be plan, fleet or serve");
  }
  if (!have_seconds || !(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

/// Spans of simulator-backed layers recorded so far.
std::size_t sim_spans(const Tracer& t) {
  std::size_t n = 0;
  for (const Tracer::Span& s : t.spans()) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    n += layer == "sim" || layer == "runtime" || layer == "kernels" ? 1 : 0;
  }
  return n;
}

int run(const Options& opt) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = hw > 0 ? static_cast<int>(hw) : 1;
  Tracer tracer(opt.trace);

  std::cout << "{\"env\": {\"nproc\": " << threads
            << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
            << ", \"flags\": " << json_str(PERFBENCH_FLAGS)
            << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
            << ", \"simd_backend\": "
            << json_str(daedvfs::kernels::default_backend().name)
            << ", \"git_sha\": " << json_str(opt.git_sha)
            << ", \"workload\": " << json_str(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"seconds\": " << num(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"simulated_l1\": \"starts empty for every profile and "
               "inference\"}}"
            << std::endl;

  PhaseArgs args;
  args.seed = opt.seed;
  args.threads = threads;
  args.tracer = &tracer;
  const char* names[] = {"plan", "fleet", "serve"};
  const std::unique_ptr<Phase> phases[] = {
      make_plan_phase(args), make_fleet_phase(args), make_serve_phase(args)};

  // Set-up: every phase's library state, built kSetupRounds times.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (auto& p : phases) p->setup();
    setup_s.push_back(ms_since(t0) * 1e-3);
  }

  // Timed rounds. In the traced run, a simulator-backed span inside a fleet
  // or serve slice would mean those workloads are not simulator-free.
  std::size_t sim_spans_outside_plan = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < std::size(phases); ++i) {
      const bool primary = opt.workload == names[i];
      const std::size_t before = sim_spans(tracer);
      phases[i]->step(kRoundSeconds *
                      (primary ? kPrimaryShare : (1.0 - kPrimaryShare) / 2));
      if (i > 0) sim_spans_outside_plan += sim_spans(tracer) - before;
    }
  } while (ms_since(t0) < opt.seconds * 1e3);

  Checks total;
  if (opt.trace) {
    total.expect(sim_spans_outside_plan == 0,
                 "simulator call inside a fleet or serve slice");
  }
  Metrics metrics;
  if (!opt.trace) {
    metrics.push_back({"setup_s", median(setup_s), "s"});
  }
  for (std::size_t i = 0; i < std::size(phases); ++i) {
    PhaseOut out = phases[i]->finish();
    total.attempted += out.checks.attempted;
    total.failed += out.checks.failed;
    std::cout << "{\"phase\": " << json_str(names[i])
              << ", \"primary\": "
              << (opt.workload == names[i] ? "true" : "false")
              << ", \"attempted\": " << out.checks.attempted
              << ", \"failed\": " << out.checks.failed
              << ", \"digest\": " << json_str(out.digest);
    for (const std::string& note : out.notes) std::cout << ", " << note;
    std::cout << "}" << std::endl;
    const Metrics& m = opt.trace ? out.per_layer : out.end_to_end;
    metrics.insert(metrics.end(), m.begin(), m.end());
  }
  if (!opt.trace) {
    metrics.insert(metrics.begin() + 1, {"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    std::cout << "{\"self_ms_by_layer\": {";
    const auto self = tracer.self_ms_by_layer();
    for (std::size_t i = 0; i < self.size(); ++i) {
      std::cout << (i ? ", " : "") << json_str(self[i].first) << ": "
                << num(self[i].second);
    }
    std::cout << "}, \"spans\": " << tracer.spans().size() << "}" << std::endl;
    if (!opt.trace_out.empty() && !tracer.write_json(opt.trace_out)) {
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
      return 1;
    }
  }

  std::string body;
  for (const Metric& m : metrics) {
    total.expect(std::isfinite(m.value), m.name + " is not finite");
    body += (body.empty() ? "" : ", ") + json_str(m.name) + ": {\"value\": " +
            num(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + json_str(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (total.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << total.attempted
            << ", \"failed\": " << total.failed << ", \"metrics\": {" << body
            << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

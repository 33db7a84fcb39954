// Schedule-serving benchmark: a ScheduleServer built from a real governor
// ladder (make_server) answering a seeded stream of device states, point
// and batch. Emits BENCH_serve.json with these gates:
//
//   * point_equals_batch    — the point-answer stream is byte-identical
//                             (write_answers_json) to the 8-worker batch
//                             reply stream over the same queries;
//   * batch_thread_invariant — the batch reply stream is byte-identical
//                             across 0/1/8-worker pools (preassigned reply
//                             slots + per-call parallel_for tracking);
//   * single_sweep          — the server ran exactly one MCKP sweep
//                             (dp_solves == 1, re-derived by
//                             scripts/check_bench_gates.py);
//   * dp_block_ok           — strip-blocking the MCKP DP inner loop is at
//                             least break-even (full mode; smoke uses a
//                             noise floor — scripts/check_bench_gates.py
//                             re-derives the requirement from the mode);
//   * metrics_match_stats   — serve.* counters published by answer_batch
//                             agree with the server's own stats deltas.
//
//   $ ./build/bench_serve                   # full, BENCH_serve.json
//   $ ./build/bench_serve smoke out.json    # CI-sized
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dse/design_space.hpp"
#include "governor/governor.hpp"
#include "graph/zoo.hpp"
#include "mckp/mckp.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "power/power_model.hpp"
#include "serve/schedule_server.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

using namespace daedvfs;

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Seeded query stream: the whole fleet's state space — slacks beyond the
/// grid, winter-to-summer ambients, draining batteries, congested uplinks.
std::vector<serve::DeviceState> make_queries(std::size_t n) {
  std::mt19937 rng(0x5e47e001u);
  std::uniform_real_distribution<double> slack(-0.05, 0.6);
  std::uniform_real_distribution<double> temp(-25.0, 65.0);
  std::uniform_real_distribution<double> soc(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> backlog(0, 12);
  std::uniform_real_distribution<double> window(-0.002, 0.01);
  std::vector<serve::DeviceState> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::DeviceState s;
    s.qos_slack = slack(rng);
    s.ambient_c = temp(rng);
    s.soc = soc(rng);
    s.backlog = backlog(rng);
    s.window_remaining_s = window(rng);
    queries.push_back(s);
  }
  return queries;
}

serve::ServerConfig serve_config() {
  serve::ServerConfig cfg;
  cfg.derate = {40.0, 2.0, 216.0};
  cfg.degraded.critical_soc = 0.3;
  cfg.degraded.max_skip = 3;
  return cfg;
}

std::string answers_stream(const std::vector<serve::ScheduleAnswer>& answers) {
  std::ostringstream os;
  serve::write_answers_json(os, answers);
  return os.str();
}

std::string batch_stream(const serve::ScheduleServer& server,
                         const std::vector<serve::DeviceState>& queries,
                         int workers) {
  util::ThreadPool pool(workers);
  return answers_stream(server.answer_batch(queries, pool, 64));
}

/// Large synthetic MCKP instance for the strip-blocking A/B: wide DP
/// (width * ~18 bytes far beyond L2) where the flat inner loop streams the
/// dp/next/parent rows once per item while the blocked loop keeps each
/// strip cache-resident across a whole class.
mckp::Instance dp_bench_instance(int classes, int items) {
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> w(10.0, 900.0);
  std::uniform_real_distribution<double> v(1.0, 100.0);
  mckp::Instance inst;
  double min_total = 0.0;
  for (int k = 0; k < classes; ++k) {
    std::vector<mckp::Item> cls;
    double wmin = 1e18;
    for (int j = 0; j < items; ++j) {
      cls.push_back({w(rng), v(rng)});
      wmin = std::min(wmin, cls.back().weight);
    }
    min_total += wmin;
    inst.classes.push_back(std::move(cls));
  }
  inst.capacity = min_total * 4.0;
  return inst;
}

double best_sweep_ms(const mckp::Instance& inst, int ticks, int reps,
                     double* checksum) {
  mckp::DpWorkspace ws;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<mckp::Solution> sols =
        mckp::solve_dp_sweep(inst, {inst.capacity}, ticks, ws);
    best = std::min(best, wall_ms_since(t0));
    *checksum = sols[0].feasible ? sols[0].total_value : -1.0;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const bool smoke = mode == "smoke";
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_serve.json";

  // ---- Ladder: one real governor build; the server copies its rungs and
  // the retained per-layer MCKP instance (the exact-answer sidecar).
  const graph::Model model = graph::zoo::make_person_detection();
  governor::GovernorConfig gov_cfg;
  gov_cfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{gov_cfg.pipeline.explore.sim.power});
  const auto t_ladder = std::chrono::steady_clock::now();
  const governor::ScheduleGovernor governor(model, gov_cfg);
  const double ladder_ms = wall_ms_since(t_ladder);

  const serve::ServerConfig cfg = serve_config();
  std::unique_ptr<serve::ScheduleServer> server =
      serve::make_server(governor, cfg);

  const std::size_t n_queries = smoke ? 5000 : 100000;
  const std::vector<serve::DeviceState> queries = make_queries(n_queries);

  // ---- Point-query throughput.
  std::cout << "serve " << n_queries << " point queries...\n";
  const auto t_point = std::chrono::steady_clock::now();
  for (const serve::DeviceState& q : queries) (void)server->answer(q);
  const double point_ms = wall_ms_since(t_point);

  // ---- Batch fan-out: byte-identical reply stream for 0/1/8 workers
  // (a server of its own per run — construction must not matter either),
  // equal to the point answers, plus throughput at 8 workers on the main
  // server.
  std::cout << "serve batch invariance (0/1/8 workers)...\n";
  const std::string stream0 =
      batch_stream(*serve::make_server(governor, cfg), queries, 0);
  const std::string stream1 =
      batch_stream(*serve::make_server(governor, cfg), queries, 1);
  const std::string stream8 =
      batch_stream(*serve::make_server(governor, cfg), queries, 8);
  const bool batch_thread_invariant = stream0 == stream1 && stream1 == stream8;
  std::vector<serve::ScheduleAnswer> point_replies;
  point_replies.reserve(n_queries);
  for (const serve::DeviceState& q : queries) {
    point_replies.push_back(server->answer(q));
  }
  const bool point_equals_batch = answers_stream(point_replies) == stream8;

  util::ThreadPool pool8(8);
  const auto t_batch = std::chrono::steady_clock::now();
  const std::vector<serve::ScheduleAnswer> batch_replies =
      server->answer_batch(queries, pool8, 64);
  const double batch_ms = wall_ms_since(t_batch);
  const bool batch_complete = batch_replies.size() == queries.size();
  const std::uint64_t dp_solves = server->stats().dp_solves;
  const bool single_sweep = dp_solves == 1;

  // ---- DP strip-blocking A/B on a wide synthetic instance: flat loop
  // (one strip spanning the whole row) vs the default block size.
  std::cout << "mckp strip-blocking A/B...\n";
  const int dp_classes = smoke ? 8 : 16;
  const int dp_items = smoke ? 16 : 32;
  const int dp_ticks = smoke ? 65536 : 262144;
  const int dp_reps = smoke ? 2 : 3;
  const mckp::Instance dp_inst = dp_bench_instance(dp_classes, dp_items);
  const int restore_block = mckp::dp_block_cells();
  double flat_value = 0.0, blocked_value = 0.0;
  mckp::set_dp_block_cells(1 << 30);  // one flat strip
  const double flat_ms = best_sweep_ms(dp_inst, dp_ticks, dp_reps, &flat_value);
  mckp::set_dp_block_cells(mckp::kDefaultDpBlockCells);
  const double blocked_ms =
      best_sweep_ms(dp_inst, dp_ticks, dp_reps, &blocked_value);
  mckp::set_dp_block_cells(restore_block);
  const double dp_block_speedup = blocked_ms > 0.0 ? flat_ms / blocked_ms : 0.0;
  // Full mode: blocking must be at least break-even on a wide DP. Smoke
  // instances are small enough that timer noise dominates — a floor only.
  const double dp_block_required = smoke ? 0.5 : 1.0;
  const bool dp_block_ok = dp_block_speedup >= dp_block_required;
  const bool dp_block_identical = flat_value == blocked_value;

  // ---- serve.* observability: counters published by a sink-carrying
  // batch agree with the server's own stats delta.
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  std::unique_ptr<serve::ScheduleServer> observed =
      serve::make_server(governor, cfg);
  const serve::ScheduleServer::Stats before = observed->stats();
  (void)observed->answer_batch(queries, pool8, 64, &sink);
  const serve::ScheduleServer::Stats after = observed->stats();
  const bool metrics_match_stats =
      metrics.counter("serve.queries").value() == after.queries - before.queries &&
      metrics.counter("serve.dp_solves").value() ==
          after.dp_solves - before.dp_solves;

  const auto qps = [&](double ms) {
    return ms > 0.0 ? static_cast<double>(n_queries) / (ms * 1e-3) : 0.0;
  };

  std::ofstream os(out_path);
  os.precision(6);
  os << "{\n"
     << "  \"smoke\": " << util::json_bool(smoke) << ",\n"
     << "  \"model\": " << util::json_quoted(model.name()) << ",\n"
     << "  \"rungs\": " << server->rungs().size() << ",\n"
     << "  \"n_queries\": " << n_queries << ",\n"
     << "  \"ladder_ms\": " << ladder_ms << ",\n"
     << "  \"point\": {\n"
     << "    \"wall_ms\": " << point_ms << ",\n"
     << "    \"queries_per_sec\": " << qps(point_ms) << "\n"
     << "  },\n"
     << "  \"batch8\": {\n"
     << "    \"wall_ms\": " << batch_ms << ",\n"
     << "    \"queries_per_sec\": " << qps(batch_ms) << "\n"
     << "  },\n"
     << "  \"dp_solves\": " << dp_solves << ",\n"
     << "  \"dp_block\": {\n"
     << "    \"classes\": " << dp_classes << ",\n"
     << "    \"items_per_class\": " << dp_items << ",\n"
     << "    \"ticks\": " << dp_ticks << ",\n"
     << "    \"block_cells\": " << mckp::kDefaultDpBlockCells << ",\n"
     << "    \"flat_ms\": " << flat_ms << ",\n"
     << "    \"blocked_ms\": " << blocked_ms << "\n"
     << "  },\n"
     << "  \"dp_block_speedup\": " << dp_block_speedup << ",\n"
     << "  \"dp_block_required\": " << dp_block_required << ",\n"
     << "  \"point_equals_batch\": " << util::json_bool(point_equals_batch)
     << ",\n"
     << "  \"batch_thread_invariant\": "
     << util::json_bool(batch_thread_invariant) << ",\n"
     << "  \"batch_complete\": " << util::json_bool(batch_complete) << ",\n"
     << "  \"single_sweep\": " << util::json_bool(single_sweep) << ",\n"
     << "  \"dp_block_ok\": " << util::json_bool(dp_block_ok) << ",\n"
     << "  \"dp_block_identical\": " << util::json_bool(dp_block_identical)
     << ",\n"
     << "  \"metrics_match_stats\": " << util::json_bool(metrics_match_stats)
     << "\n}\n";
  os.close();

  const bool ok = point_equals_batch && batch_thread_invariant &&
                  batch_complete && single_sweep && dp_block_ok &&
                  dp_block_identical && metrics_match_stats;
  std::cout << "point: " << qps(point_ms) / 1e6 << " Mq/s, batch8: "
            << qps(batch_ms) / 1e6 << " Mq/s, " << dp_solves
            << " MCKP sweep(s)\n"
            << "dp blocking: " << flat_ms << " ms flat vs " << blocked_ms
            << " ms blocked (" << dp_block_speedup << "x, required "
            << dp_block_required << ") -> " << out_path << "\n";
  return ok ? 0 : 1;
}

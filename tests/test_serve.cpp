// ScheduleServer tests: the serving determinism contract (an answer depends
// only on the quantized cell, batch reply stream byte-identical across
// thread counts), conservative quantization, rejection of a non-finite
// config, the fallback tiers and their equality with the LadderPolicy
// decision, the exact-MCKP sidecar, and the serve.* observability surface.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "mckp/mckp.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "scenario/faults.hpp"
#include "scenario/mission.hpp"
#include "scenario/policy.hpp"
#include "serve/schedule_server.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs::serve {
namespace {

constexpr double kTBaseUs = 1000.0;

scenario::RungInfo rung(const char* name, double t_us, double e_uj,
                        double peak_mhz) {
  scenario::RungInfo r;
  r.name = name;
  r.t_us = t_us;
  r.e_uj = e_uj;
  r.max_sysclk_mhz = peak_mhz;
  return r;
}

/// Three-rung Pareto ladder over t_base 1000us: default grid deadlines run
/// 1000..1500 in 50us cells.
std::vector<scenario::RungInfo> ladder() {
  return {rung("fast", 900.0, 50.0, 216.0), rung("mid", 1100.0, 30.0, 144.0),
          rung("slow", 1400.0, 20.0, 72.0)};
}

mckp::Instance small_instance() {
  mckp::Instance inst;
  inst.classes = {{{400.0, 30.0}, {700.0, 12.0}},
                  {{350.0, 25.0}, {600.0, 9.0}}};
  return inst;
}

DeviceState random_state(std::mt19937& rng) {
  std::uniform_real_distribution<double> slack(-0.1, 0.7);
  std::uniform_real_distribution<double> temp(-30.0, 70.0);
  std::uniform_real_distribution<double> soc(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> backlog(0, 12);
  std::uniform_real_distribution<double> window(-0.001, 0.008);
  DeviceState s;
  s.qos_slack = slack(rng);
  s.ambient_c = temp(rng);
  s.soc = soc(rng);
  s.backlog = backlog(rng);
  s.window_remaining_s = window(rng);
  return s;
}

ServerConfig eventful_config() {
  ServerConfig cfg;
  cfg.derate = {25.0, 2.0, 216.0};       // caps bite at warm cells
  cfg.degraded.critical_soc = 0.5;       // shed hints at low bands
  cfg.degraded.max_skip = 4;
  return cfg;
}

TEST(Serve, AnswerDependsOnlyOnTheCell) {
  ScheduleServer server(ladder(), kTBaseUs, eventful_config(),
                        small_instance(), 100.0);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const StateGrid& g = server.config().grid;
  const double slack_step =
      (g.slack_max - g.slack_min) / static_cast<double>(g.slack_cells - 1);
  const double temp_step =
      (g.temp_max - g.temp_min) / static_cast<double>(g.temp_cells - 1);
  int moved = 0;
  for (int i = 0; i < 300; ++i) {
    const DeviceState s = random_state(rng);
    // A second raw state nudged inside the first one's cell: slack up from
    // its floor, ambient down from its ceiling, SoC up from its band edge.
    const QuantizedState q = server.quantize(s);
    DeviceState t = s;
    t.qos_slack = g.slack_value(q.slack_cell) + 0.5 * slack_step * unit(rng);
    t.ambient_c = g.temp_value(q.temp_cell) - 0.5 * temp_step * unit(rng);
    t.soc = g.soc_value(q.soc_band) +
            0.5 * unit(rng) / static_cast<double>(g.soc_bands);
    if (server.quantize(t) != q) continue;  // left the cell at a clamp
    if (t.qos_slack != s.qos_slack || t.ambient_c != s.ambient_c) ++moved;
    const std::string want = answer_json(server.answer(s));
    EXPECT_EQ(answer_json(server.answer(t)), want) << "query " << i;
    EXPECT_EQ(answer_json(server.answer(s)), want) << "query " << i;
  }
  EXPECT_GT(moved, 200) << "most pairs must be distinct raw states";
}

TEST(Serve, BatchReplyStreamIsThreadCountInvariant) {
  std::mt19937 rng(11);
  std::vector<DeviceState> queries;
  for (int i = 0; i < 500; ++i) queries.push_back(random_state(rng));

  std::string streams[3];
  const int worker_counts[3] = {0, 1, 4};
  for (int w = 0; w < 3; ++w) {
    // Fresh server per thread count: cache history must not matter either.
    ScheduleServer server(ladder(), kTBaseUs, eventful_config(),
                          small_instance(), 100.0);
    util::ThreadPool pool(worker_counts[w]);
    const std::vector<ScheduleAnswer> replies =
        server.answer_batch(queries, pool, 16);
    ASSERT_EQ(replies.size(), queries.size());
    std::ostringstream os;
    write_answers_json(os, replies);
    streams[w] = os.str();
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[1], streams[2]);

  // And the batch replies are the point answers, slot for slot.
  ScheduleServer point(ladder(), kTBaseUs, eventful_config(),
                       small_instance(), 100.0);
  std::istringstream lines(streams[0]);
  std::string line;
  std::getline(lines, line);  // "["
  for (const DeviceState& q : queries) {
    std::getline(lines, line);
    if (!line.empty() && line.back() == ',') line.pop_back();
    EXPECT_EQ(line, "  " + answer_json(point.answer(q)));
  }
}

TEST(Serve, QuantizationIsConservative) {
  ScheduleServer server(ladder(), kTBaseUs, {}, {}, 0.0);
  // Slack floors to the tighter cell (grid 0..0.5, 11 cells, step 0.05).
  EXPECT_EQ(server.quantize({0.049, 25.0, 1.0, 0, -1.0}).slack_cell, 0);
  EXPECT_EQ(server.quantize({0.05, 25.0, 1.0, 0, -1.0}).slack_cell, 1);
  EXPECT_EQ(server.quantize({2.0, 25.0, 1.0, 0, -1.0}).slack_cell, 10);
  EXPECT_EQ(server.quantize({-1.0, 25.0, 1.0, 0, -1.0}).slack_cell, 0);
  // Ambient ceils to the hotter cell (grid -20..60, 17 cells, step 5).
  EXPECT_EQ(server.quantize({0.1, 25.0, 1.0, 0, -1.0}).temp_cell, 9);
  EXPECT_EQ(server.quantize({0.1, 25.1, 1.0, 0, -1.0}).temp_cell, 10);
  EXPECT_EQ(server.quantize({0.1, -100.0, 1.0, 0, -1.0}).temp_cell, 0);
  EXPECT_EQ(server.quantize({0.1, 999.0, 1.0, 0, -1.0}).temp_cell, 16);
  // SoC floors to the emptier band (4 bands).
  EXPECT_EQ(server.quantize({0.1, 25.0, 0.74, 0, -1.0}).soc_band, 2);
  EXPECT_EQ(server.quantize({0.1, 25.0, 0.75, 0, -1.0}).soc_band, 3);
  EXPECT_EQ(server.quantize({0.1, 25.0, 1.0, 0, -1.0}).soc_band, 3);
  EXPECT_EQ(server.quantize({0.1, 25.0, -0.5, 0, -1.0}).soc_band, 0);
  // NaN lands in the conservative cell of each dimension.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(server.quantize({nan, 25.0, 1.0, 0, -1.0}).slack_cell, 0);
  EXPECT_EQ(server.quantize({0.1, nan, 1.0, 0, -1.0}).temp_cell, 16);
  EXPECT_EQ(server.quantize({0.1, 25.0, nan, 0, -1.0}).soc_band, 0);
  // A NaN window is unknown: read as closing now, the tightest budget.
  EXPECT_EQ(server.quantize({0.5, 25.0, 1.0, 0, nan}).slack_cell, 10);
  EXPECT_EQ(server.quantize({0.5, 25.0, 1.0, 0, nan}).effective_cell, 0);
  EXPECT_EQ(server.quantize({0.5, 25.0, 1.0, 3, nan}).effective_cell, 0);
  // So a NaN ambient gets the hottest grid ambient's (tightest) thermal cap.
  ScheduleServer derated(ladder(), kTBaseUs, eventful_config(), {}, 0.0);
  EXPECT_EQ(answer_json(derated.answer({0.5, nan, 1.0, 0, -1.0})),
            answer_json(derated.answer({0.5, 60.0, 1.0, 0, -1.0})));
}

TEST(Serve, BacklogTightensEffectiveCell) {
  ScheduleServer server(ladder(), kTBaseUs, {}, {}, 0.0);
  // No window: effective == declared.
  DeviceState s{0.5, 25.0, 1.0, 3, -1.0};
  EXPECT_EQ(server.quantize(s).effective_cell, 10);
  // budget = window / (backlog + 1) = 4920 / 4 = 1230us -> cell 4 (1200us).
  s.window_remaining_s = 0.00492;
  QuantizedState q = server.quantize(s);
  EXPECT_EQ(q.slack_cell, 10);
  EXPECT_EQ(q.effective_cell, 4);
  // Backlog clamps at the grid's backlog_cap (8): depth 100 == depth 8.
  s.backlog = 100;
  DeviceState capped = s;
  capped.backlog = 8;
  EXPECT_EQ(server.quantize(s), server.quantize(capped));
  // A budget below the fastest deadline floors at cell 0.
  s.window_remaining_s = 0.0001;
  EXPECT_EQ(server.quantize(s).effective_cell, 0);
}

TEST(Serve, FallbackTiersMirrorLadderPolicy) {
  ServerConfig cfg;
  cfg.derate = {25.0, 10.0, 216.0};
  ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);

  // Tier 1: cool cell, wide deadline -> min-energy rung under it (slow).
  ScheduleAnswer a = server.answer({0.5, 20.0, 1.0, 0, -1.0});
  EXPECT_TRUE(a.feasible);
  EXPECT_EQ(a.rung, 2);
  EXPECT_DOUBLE_EQ(a.rung_e_uj, 20.0);

  // Tier 2: ambient 30 -> cap 166 MHz excludes "fast"; the backlog budget
  // tightens the effective deadline to 1000us, which no eligible rung
  // meets; dropping the budget, "slow" meets the declared 1500us.
  a = server.answer({0.5, 30.0, 1.0, 9, 0.005});
  EXPECT_TRUE(a.feasible);
  EXPECT_EQ(a.rung, 2);
  EXPECT_DOUBLE_EQ(a.deadline_us, 1000.0);

  // Tier 3: declared deadline 1000us, "fast" thermally excluded -> no
  // eligible rung meets any deadline; serve the fastest eligible (mid) and
  // flag the miss.
  a = server.answer({0.0, 30.0, 1.0, 0, -1.0});
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, 1);
  EXPECT_GT(a.cap_mhz, 0.0);

  // Tier 4: hot enough that the cap excludes every rung -> coolest rung,
  // infeasible.
  a = server.answer({0.5, 60.0, 1.0, 0, -1.0});
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, 2);

  // Empty ladder: answered, flagged, no crash.
  ScheduleServer empty({}, kTBaseUs, {}, {}, 0.0);
  a = empty.answer({0.1, 25.0, 1.0, 0, -1.0});
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, -1);

  // No instance, no MCKP sweep; with one, exactly one, run by the
  // constructor before any query.
  EXPECT_EQ(server.stats().dp_solves, 0u);
  ScheduleServer exact(ladder(), kTBaseUs, cfg, small_instance(), 0.0);
  EXPECT_EQ(exact.stats().dp_solves, 1u);
  for (int i = 0; i < 50; ++i) {
    (void)exact.answer({0.01 * i, 25.0, 1.0, 0, -1.0});
  }
  EXPECT_EQ(exact.stats().dp_solves, 1u);
}

TEST(Serve, RejectsNonFiniteConfig) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto message = [](const ServerConfig& cfg, double t_base_us) {
    try {
      ScheduleServer server(ladder(), t_base_us, cfg, {}, 0.0);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  ServerConfig cfg;
  cfg.grid.slack_max = nan;
  EXPECT_EQ(message(cfg, kTBaseUs), "ServerConfig.grid.slack_max: not finite");
  cfg = {};
  cfg.grid.slack_min = -inf;
  EXPECT_EQ(message(cfg, kTBaseUs), "ServerConfig.grid.slack_min: not finite");
  cfg = {};
  cfg.grid.temp_min = -inf;
  EXPECT_EQ(message(cfg, kTBaseUs), "ServerConfig.grid.temp_min: not finite");
  cfg = {};
  cfg.grid.temp_max = nan;
  EXPECT_EQ(message(cfg, kTBaseUs), "ServerConfig.grid.temp_max: not finite");
  // Finite bounds whose span overflows make the grid step infinite.
  cfg = {};
  cfg.grid.slack_min = -1e308;
  cfg.grid.slack_max = 1e308;
  EXPECT_EQ(message(cfg, kTBaseUs),
            "ServerConfig.grid.slack_max - slack_min: not finite");
  cfg = {};
  cfg.grid.temp_min = -1e308;
  cfg.grid.temp_max = 1e308;
  EXPECT_EQ(message(cfg, kTBaseUs),
            "ServerConfig.grid.temp_max - temp_min: not finite");
  cfg = {};
  EXPECT_EQ(message(cfg, nan), "t_base_us: not finite");
  EXPECT_EQ(message(cfg, inf), "t_base_us: not finite");
  EXPECT_EQ(message(cfg, 0.0), "t_base_us: not positive");
  EXPECT_EQ(message(cfg, -5.0), "t_base_us: not positive");
  EXPECT_EQ(message(cfg, kTBaseUs), "accepted");
}

TEST(Serve, AnswersEqualLadderPicks) {
  // Differential: the server's rung, feasibility and shed hint are the
  // LadderPolicy decision at the quantized cell values, on random ladders
  // seeded with the boundary cases — equal-energy ties, equal peaks, and
  // rungs sitting exactly on a grid deadline or a grid thermal cap.
  std::mt19937 rng(20261017);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> n_rungs(1, 7);
  obs::MetricsRegistry mx;
  obs::Sink sink{nullptr, &mx};
  int infeasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    ServerConfig cfg;
    cfg.derate = {25.0, 5.0, 216.0};
    cfg.degraded.critical_soc = unit(rng) < 0.8 ? unit(rng) : 0.0;
    cfg.degraded.miss_pressure = unit(rng) < 0.5 ? unit(rng) : 0.0;
    cfg.degraded.max_skip = static_cast<std::uint32_t>(rng() % 6);
    const StateGrid& g = cfg.grid;
    std::vector<scenario::RungInfo> rungs;
    const int n = n_rungs(rng);
    for (int i = 0; i < n; ++i) {
      double t = 700.0 + 1000.0 * unit(rng);
      if (rng() % 3 == 0) {  // exactly on a grid deadline
        t = kTBaseUs * (1.0 + g.slack_value(static_cast<int>(
                                  rng() % static_cast<unsigned>(g.slack_cells))));
      }
      double e = 5.0 + 55.0 * unit(rng);
      if (i > 0 && rng() % 4 == 0) e = rungs.back().e_uj;  // energy tie
      double peak = 48.0 + 192.0 * unit(rng);
      if (rng() % 3 == 0) {  // exactly on a grid thermal cap
        peak = cfg.derate.max_sysclk_mhz(g.temp_value(static_cast<int>(
            rng() % static_cast<unsigned>(g.temp_cells))));
        if (peak <= 0.0) peak = 216.0;
      }
      if (i > 0 && rng() % 4 == 0) peak = rungs.back().peak_mhz();
      rungs.push_back(rung("r", t, e, peak));
    }
    ScheduleServer server(rungs, kTBaseUs, cfg, {}, 0.0);
    scenario::LadderPolicy policy(rungs, {}, {});
    policy.set_sink(&sink);
    for (int q = 0; q < 50; ++q) {
      DeviceState s;
      s.qos_slack = -0.1 + 0.8 * unit(rng);
      s.ambient_c = -30.0 + 100.0 * unit(rng);
      s.soc = unit(rng);
      s.backlog = static_cast<std::uint32_t>(rng() % 13);
      s.window_remaining_s = -1.0;
      const ScheduleAnswer a = server.answer_fresh(s);
      const QuantizedState cell = server.quantize(s);
      scenario::FrameContext ctx;
      ctx.deadline_us = kTBaseUs * (1.0 + g.slack_value(cell.slack_cell));
      ctx.max_sysclk_mhz =
          cfg.derate.max_sysclk_mhz(g.temp_value(cell.temp_cell));
      ctx.backlog = s.backlog;
      const std::uint64_t budget_before =
          mx.counter("governor.tier_budget").value();
      const std::uint64_t declared_before =
          mx.counter("governor.tier_declared").value();
      const int want = policy.choose(ctx, -1);
      const bool want_feasible =
          mx.counter("governor.tier_budget").value() > budget_before ||
          mx.counter("governor.tier_declared").value() > declared_before;
      ASSERT_EQ(a.rung, want) << "trial " << trial << " query " << q;
      ASSERT_EQ(a.feasible, want_feasible) << "trial " << trial;
      ASSERT_EQ(a.shed, policy.degraded_skip(g.soc_value(cell.soc_band), 0.0,
                                             cfg.degraded))
          << "trial " << trial;
      if (!a.feasible) ++infeasible;
    }
  }
  EXPECT_GT(infeasible, 0) << "the corpus must reach the fallback tiers";
}

TEST(Serve, ShedHintFollowsDegradedLadder) {
  ServerConfig cfg;
  cfg.degraded.critical_soc = 0.5;
  cfg.degraded.max_skip = 4;
  ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);
  // Band 0 (repr. SoC 0.0): full severity -> max_skip.
  EXPECT_EQ(server.answer({0.1, 25.0, 0.1, 0, -1.0}).shed, 4u);
  // Band 1 (repr. SoC 0.25): severity 0.5 -> ceil(0.5 * 4) = 2.
  EXPECT_EQ(server.answer({0.1, 25.0, 0.3, 0, -1.0}).shed, 2u);
  // Healthy band: no shedding.
  EXPECT_EQ(server.answer({0.1, 25.0, 0.9, 0, -1.0}).shed, 0u);
  // Disabled spec: never sheds.
  ScheduleServer off(ladder(), kTBaseUs, {}, {}, 0.0);
  EXPECT_EQ(off.answer({0.1, 25.0, 0.0, 0, -1.0}).shed, 0u);
}

TEST(Serve, ExactSidecarMatchesDirectSweep) {
  const double reserve = 100.0;
  ServerConfig cfg;
  ScheduleServer server(ladder(), kTBaseUs, cfg, small_instance(), reserve);
  // The server runs ONE sweep over the whole deadline ladder; its answer at
  // cell c must equal a direct solve_dp_sweep over the same capacity ladder
  // read at index c.
  std::vector<double> caps;
  for (int c = 0; c < cfg.grid.slack_cells; ++c) {
    const double deadline = kTBaseUs * (1.0 + cfg.grid.slack_value(c));
    caps.push_back(std::max(0.0, deadline - reserve));
  }
  mckp::DpWorkspace ws;
  const std::vector<mckp::Solution> expect =
      mckp::solve_dp_sweep(small_instance(), caps, cfg.mckp_ticks, ws);
  for (int c = 0; c < cfg.grid.slack_cells; ++c) {
    const double slack = cfg.grid.slack_value(c);
    const ScheduleAnswer a = server.answer({slack, 25.0, 1.0, 0, -1.0});
    const auto cell = static_cast<std::size_t>(c);
    ASSERT_EQ(a.exact_feasible, expect[cell].feasible) << "cell " << c;
    if (!a.exact_feasible) continue;
    EXPECT_EQ(a.exact_t_us, expect[cell].total_weight) << "cell " << c;
    EXPECT_EQ(a.exact_e_uj, expect[cell].total_value) << "cell " << c;
  }
  // That sweep ran once, never once per query.
  EXPECT_EQ(server.stats().dp_solves, 1u);
}

TEST(Serve, BatchPublishesServeMetrics) {
  ScheduleServer server(ladder(), kTBaseUs, {}, small_instance(), 100.0);
  std::mt19937 rng(31);
  std::vector<DeviceState> queries;
  for (int i = 0; i < 200; ++i) queries.push_back(random_state(rng));
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  util::ThreadPool pool(2);
  (void)server.answer_batch(queries, pool, 16, &sink);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 200u);
  EXPECT_EQ(metrics.counter("serve.dp_solves").value(), 0u);
  // A second batch publishes only its own delta; the constructor's sweep
  // is the only one, so no batch adds a DP solve.
  (void)server.answer_batch(queries, pool, 16, &sink);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 400u);
  EXPECT_EQ(metrics.counter("serve.dp_solves").value(), 0u);
  EXPECT_EQ(server.stats().queries, 400u);
  EXPECT_EQ(server.stats().dp_solves, 1u);
}

}  // namespace
}  // namespace daedvfs::serve

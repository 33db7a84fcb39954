#include "serve/schedule_server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "governor/governor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"

namespace daedvfs::serve {
namespace {

constexpr int kMaxCells = 4096;

int clamp_cells(int cells) { return std::clamp(cells, 1, kMaxCells); }

void require_finite(double v, const char* field) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string(field) + ": not finite");
  }
}

void append_double(std::string& out, const char* field, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g", field, v);
  out += buf;
}

}  // namespace

double StateGrid::slack_value(int cell) const {
  const int cells = clamp_cells(slack_cells);
  if (cells <= 1) return slack_min;
  const double step = (slack_max - slack_min) / static_cast<double>(cells - 1);
  return slack_min + static_cast<double>(cell) * step;
}

int StateGrid::slack_cell(double slack) const {
  const int cells = clamp_cells(slack_cells);
  if (cells <= 1 || slack_max <= slack_min) return 0;
  if (std::isnan(slack)) return 0;  // Unknown: assume the tightest.
  const double s = std::clamp(slack, slack_min, slack_max);
  const double step = (slack_max - slack_min) / static_cast<double>(cells - 1);
  // Floor with a grid-point epsilon: an exact grid value lands on its own
  // cell, anything between grid points rounds DOWN to the tighter deadline.
  const int cell = static_cast<int>(std::floor((s - slack_min) / step + 1e-9));
  return std::clamp(cell, 0, cells - 1);
}

double StateGrid::temp_value(int cell) const {
  const int cells = clamp_cells(temp_cells);
  if (cells <= 1) return temp_max;
  const double step = (temp_max - temp_min) / static_cast<double>(cells - 1);
  return temp_min + static_cast<double>(cell) * step;
}

int StateGrid::temp_cell(double ambient_c) const {
  const int cells = clamp_cells(temp_cells);
  if (cells <= 1 || temp_max <= temp_min) return 0;
  if (std::isnan(ambient_c)) return cells - 1;  // Unknown: assume the hottest.
  const double t = std::clamp(ambient_c, temp_min, temp_max);
  const double step = (temp_max - temp_min) / static_cast<double>(cells - 1);
  // Ceil with a grid-point epsilon: between grid points rounds UP to the
  // hotter cell (tighter thermal cap).
  const int cell = static_cast<int>(std::ceil((t - temp_min) / step - 1e-9));
  return std::clamp(cell, 0, cells - 1);
}

int StateGrid::soc_band(double soc) const {
  const int bands = clamp_cells(soc_bands);
  if (std::isnan(soc)) return 0;  // Unknown: assume the emptiest.
  const double s = std::clamp(soc, 0.0, 1.0);
  const int band = static_cast<int>(std::floor(s * static_cast<double>(bands)));
  return std::clamp(band, 0, bands - 1);
}

double StateGrid::soc_value(int band) const {
  const int bands = clamp_cells(soc_bands);
  return static_cast<double>(band) / static_cast<double>(bands);
}

std::string answer_json(const ScheduleAnswer& a) {
  std::string out = "{";
  out += "\"feasible\":";
  out += util::json_bool(a.feasible);
  out += ",\"rung\":" + std::to_string(a.rung) + ",";
  append_double(out, "rung_t_us", a.rung_t_us);
  out += ",";
  append_double(out, "rung_e_uj", a.rung_e_uj);
  out += ",";
  append_double(out, "deadline_us", a.deadline_us);
  out += ",";
  append_double(out, "cap_mhz", a.cap_mhz);
  out += ",\"shed\":" + std::to_string(a.shed);
  out += ",\"exact_feasible\":";
  out += util::json_bool(a.exact_feasible);
  out += ",";
  append_double(out, "exact_t_us", a.exact_t_us);
  out += ",";
  append_double(out, "exact_e_uj", a.exact_e_uj);
  out += "}";
  return out;
}

void write_answers_json(std::ostream& os,
                        const std::vector<ScheduleAnswer>& answers) {
  os << "[\n";
  for (std::size_t i = 0; i < answers.size(); ++i) {
    os << "  " << answer_json(answers[i]);
    if (i + 1 < answers.size()) os << ",";
    os << "\n";
  }
  os << "]\n";
}

ScheduleServer::ScheduleServer(std::vector<scenario::RungInfo> rungs,
                               double t_base_us, ServerConfig cfg,
                               mckp::Instance instance, double mckp_reserve_us)
    : rungs_(std::move(rungs)), t_base_us_(t_base_us), cfg_(std::move(cfg)) {
  // A non-finite bound or span would turn a grid step into NaN or inf, and
  // the cell cast of a NaN is undefined behavior: reject it here.
  const StateGrid& g = cfg_.grid;
  require_finite(g.slack_min, "ServerConfig.grid.slack_min");
  require_finite(g.slack_max, "ServerConfig.grid.slack_max");
  require_finite(g.slack_max - g.slack_min,
                 "ServerConfig.grid.slack_max - slack_min");
  require_finite(g.temp_min, "ServerConfig.grid.temp_min");
  require_finite(g.temp_max, "ServerConfig.grid.temp_max");
  require_finite(g.temp_max - g.temp_min,
                 "ServerConfig.grid.temp_max - temp_min");
  require_finite(t_base_us_, "t_base_us");
  if (t_base_us_ <= 0.0) {
    throw std::invalid_argument("t_base_us: not positive");
  }
  cfg_.grid.slack_cells = clamp_cells(cfg_.grid.slack_cells);
  cfg_.grid.temp_cells = clamp_cells(cfg_.grid.temp_cells);
  cfg_.grid.soc_bands = clamp_cells(cfg_.grid.soc_bands);
  if (!instance.classes.empty()) {
    const double reserve_us = mckp_reserve_us < 0.0 ? 0.0 : mckp_reserve_us;
    std::vector<double> capacities;
    capacities.reserve(static_cast<std::size_t>(cfg_.grid.slack_cells));
    for (int c = 0; c < cfg_.grid.slack_cells; ++c) {
      capacities.push_back(std::max(0.0, deadline_us(c) - reserve_us));
    }
    mckp::DpWorkspace ws;
    sweep_ = mckp::solve_dp_sweep(instance, capacities, cfg_.mckp_ticks, ws);
  }
}

double ScheduleServer::deadline_us(int cell) const {
  return t_base_us_ * (1.0 + cfg_.grid.slack_value(cell));
}

QuantizedState ScheduleServer::quantize(const DeviceState& state) const {
  QuantizedState q;
  q.slack_cell = cfg_.grid.slack_cell(state.qos_slack);
  q.temp_cell = cfg_.grid.temp_cell(state.ambient_c);
  q.soc_band = cfg_.grid.soc_band(state.soc);
  q.effective_cell = q.slack_cell;
  // The catch-up budget (no radio term: the server knows no uplink) maps
  // DOWN to the largest grid deadline it still covers, floored at cell 0;
  // below the fastest cell the device gets the fastest rung and a
  // feasible=false answer flags the miss. Unlike a LadderPolicy frame, an
  // empty queue still has to finish inside the window.
  const double budget_us = scenario::catchup_budget_us(
      state.window_remaining_s, std::min(state.backlog, cfg_.grid.backlog_cap),
      0.0);
  while (q.effective_cell > 0 && deadline_us(q.effective_cell) > budget_us) {
    --q.effective_cell;
  }
  return q;
}

ScheduleAnswer ScheduleServer::resolve(const QuantizedState& q) const {
  ScheduleAnswer a;
  a.deadline_us = deadline_us(q.effective_cell);
  a.cap_mhz = cfg_.derate.max_sysclk_mhz(cfg_.grid.temp_value(q.temp_cell));

  // The decision rule at the cell values; no wake state, so transitions
  // are free. The shed hint is the degraded ladder at the band's
  // representative SoC with zero miss pressure (the server holds no
  // per-device miss history).
  const scenario::RungPick pick =
      scenario::pick_rung(rungs_, deadline_us(q.slack_cell), a.deadline_us,
                          a.cap_mhz, scenario::WakePricing::zero());
  a.rung = pick.rung;
  a.feasible = pick.tier == scenario::PickTier::kBudget ||
               pick.tier == scenario::PickTier::kDeclared;
  if (a.rung >= 0) {
    const scenario::RungInfo& r = rungs_[static_cast<std::size_t>(a.rung)];
    a.rung_t_us = r.t_us;
    a.rung_e_uj = r.e_uj;
  }
  a.shed = scenario::shed_for(cfg_.grid.soc_value(q.soc_band), 0.0,
                              cfg_.degraded);

  // Exact per-layer MCKP at the cell deadline, from the constructor's sweep.
  const auto cell = static_cast<std::size_t>(q.effective_cell);
  if (cell < sweep_.size() && sweep_[cell].feasible) {
    a.exact_feasible = true;
    a.exact_t_us = sweep_[cell].total_weight;
    a.exact_e_uj = sweep_[cell].total_value;
  }
  return a;
}

ScheduleAnswer ScheduleServer::answer(const DeviceState& state) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  return resolve(quantize(state));
}

ScheduleAnswer ScheduleServer::answer_fresh(const DeviceState& state) const {
  return answer(state);
}

std::vector<ScheduleAnswer> ScheduleServer::answer_batch(
    const std::vector<DeviceState>& queries, util::ThreadPool& pool,
    std::int64_t chunk, obs::Sink* sink) const {
  const bool host_span = sink != nullptr && sink->trace != nullptr;
  const double wall_start_us = host_span ? obs::host_now_us() : 0.0;
  const Stats before = stats();

  std::vector<ScheduleAnswer> out(queries.size());
  pool.parallel_for(static_cast<std::int64_t>(queries.size()), chunk,
                    [&](std::int64_t begin, std::int64_t end) {
                      for (std::int64_t i = begin; i < end; ++i) {
                        out[static_cast<std::size_t>(i)] = resolve(
                            quantize(queries[static_cast<std::size_t>(i)]));
                      }
                    });
  // One counter update per batch, not per query: the workers share no
  // cache line while they answer.
  queries_.fetch_add(queries.size(), std::memory_order_relaxed);

  // Observability (docs/observability.md): this batch's serve.* deltas plus
  // a wall-clock span on the host track. Purely observational — replies are
  // already sealed in their slots.
  if (sink != nullptr) {
    const Stats after = stats();
    if (obs::MetricsRegistry* mx = sink->metrics) {
      mx->counter("serve.queries").add(after.queries - before.queries);
      mx->counter("serve.dp_solves").add(after.dp_solves - before.dp_solves);
    }
    if (obs::TraceRecorder* tr = sink->trace) {
      tr->complete(obs::Track::kHost, "serve_batch", wall_start_us,
                   obs::host_now_us() - wall_start_us, "queries",
                   static_cast<double>(queries.size()));
    }
  }
  return out;
}

ScheduleServer::Stats ScheduleServer::stats() const {
  Stats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.dp_solves = sweep_.empty() ? 0 : 1;
  return s;
}

std::unique_ptr<ScheduleServer> make_server(
    const governor::ScheduleGovernor& gov, ServerConfig cfg) {
  return std::make_unique<ScheduleServer>(gov.rungs(), gov.t_base_us(),
                                          std::move(cfg), gov.mckp_instance(),
                                          gov.mckp_reserve_us());
}

}  // namespace daedvfs::serve

#include "scenario/engine.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/faults.hpp"

namespace daedvfs::scenario {
namespace {

/// Safety cap on simulated frames — bounds runaway specs (e.g. a microsecond
/// period over a year-long horizon), reported via MissionReport::truncated.
/// Counted against offered slots, which equal captures on fault-free specs
/// and additionally cover reboot-downtime slots on faulted ones.
constexpr std::uint64_t kMaxFrames = 200'000'000ULL;

/// Seed perturbation of the fault stream: the fault xorshift64 is seeded
/// with `spec.seed ^ kFaultStreamSalt`, so fault draws (loss, backoff
/// jitter) never consume — or depend on — the period-jitter stream.
constexpr std::uint64_t kFaultStreamSalt = 0xfa017c0de5eedULL;

/// Normalized IntervalSet of (start_s, duration_s) spans — connectivity
/// windows and radio outages share one normalization.
template <class Span>
IntervalSet interval_set(const std::vector<Span>& spans) {
  std::vector<std::pair<double, double>> pairs;
  pairs.reserve(spans.size());
  for (const Span& s : spans) pairs.emplace_back(s.start_s, s.duration_s);
  return IntervalSet::from_spans(pairs);
}

/// Connectivity windows as an IntervalSet (scenario/faults.hpp), preserving
/// the documented edge case: no *effective* (positive-duration) windows =
/// always connected — a list of degenerate zero-length entries behaves like
/// the empty list, not like a permanent blackout.
class Connectivity {
 public:
  explicit Connectivity(const std::vector<ConnectivityWindow>& windows)
      : set_(interval_set(windows)) {}

  [[nodiscard]] bool gated() const { return !set_.empty(); }

  /// Is `t` inside a window? Queries must be non-decreasing in time.
  [[nodiscard]] bool connected(double t) {
    return set_.empty() || set_.contains(t);
  }

  /// End of the window containing `t` (call connected(t) first).
  [[nodiscard]] double window_end() const { return set_.active_end(); }

 private:
  IntervalSet set_;
};

/// Harvest intake effective at `ambient_c`: the active step scaled by the
/// panel thermal-derating coefficient, clamped at zero.
double effective_intake_mw(const MissionSpec& spec, double harvest_mw,
                           double ambient_c) {
  if (spec.harvest_temp_coeff <= 0.0) return harvest_mw;
  return harvest_mw *
         std::max(0.0, 1.0 - spec.harvest_temp_coeff * (ambient_c - 25.0));
}

/// Events sorted by their mission time, ties kept in spec order.
template <class Event>
std::vector<Event> sorted_by_time(const std::vector<Event>& events) {
  std::vector<Event> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_s < b.at_s;
                   });
  return sorted;
}

/// One mission's state: the borrowed inputs, sorted event timelines with
/// their cursors, battery, RNG streams, backlog, clock and fault state, and
/// the report being filled. run() walks the duty-cycle slots; each member
/// function below it is one phase of a slot.
///
/// Fault paths (scenario/faults.hpp) are each gated on their spec being
/// declared, and fault decisions draw from a dedicated stream — a
/// fault-free MissionSpec takes none of those branches, consumes no fault
/// draws, and reproduces the fault-free engine bit for bit (pinned by the
/// golden report).
///
/// Observability (obs/) is emission only: every trace site is gated on
/// `tr` and reads state without feeding back, so the report is
/// bit-identical with or without a sink. Mission events are stamped in sim
/// time (microseconds of mission time), so an enabled trace is
/// byte-reproducible across runs and backends.
struct NodeState {
  NodeState(const MissionSpec& m, const SchedulePolicy& p, double tb,
            const sim::SimParams& s, obs::Sink* k)
      : spec(m), policy(p), t_base_us(tb), sim(s), sink(k) {
    if (ambient_c != 25.0) battery.set_ambient_c(ambient_c);
    for (const RungInfo& rung : rungs) {
      max_peak_mhz = std::max(max_peak_mhz, rung.peak_mhz());
    }
    r.mission = spec.name;
    r.policy = policy.name();
    r.frames_per_rung.assign(rungs.size(), 0);
  }

  MissionReport run();

  double advance_events();
  bool reset_and_checkpoint();
  double slot_period();
  bool capture(double period_s);
  double serve(double period_s, double cap_mhz);
  double uplink_with_retry(double attempt_start_s, double frame_radio_us);
  bool tx_attempt_fails(double t);
  double sleep_and_prelock(double period_s, double active_s);
  void idle_slot(double period_s, bool powered);
  void end_slot(double step_s);
  void trace_slot_counters(double end_s);
  MissionReport finish();

  // ---- Inputs (borrowed, read-only).
  const MissionSpec& spec;
  const SchedulePolicy& policy;
  const std::vector<RungInfo>& rungs = policy.rungs();
  const double t_base_us;
  const sim::SimParams& sim;
  obs::Sink* const sink;
  obs::TraceRecorder* const tr = sink != nullptr ? sink->trace : nullptr;
  const power::PowerModel pm{sim.power};
  const FaultSpec& faults = spec.faults;
  double max_peak_mhz = 0.0;

  // ---- Event timelines, each with its cursor.
  const std::vector<QosEvent> qos_events = sorted_by_time(spec.qos_events);
  const std::vector<TempEvent> temp_events = sorted_by_time(spec.temp_events);
  const std::vector<HarvestEvent> harvest_events =
      sorted_by_time(spec.harvest_events);
  const std::vector<ResetEvent> resets = sorted_by_time(faults.resets);
  std::size_t next_qos = 0;
  std::size_t next_temp = 0;
  std::size_t next_harvest = 0;
  std::size_t next_reset = 0;

  // ---- Uplink: windows, radio pricing, loss model, backlog.
  Connectivity link{spec.connectivity};
  IntervalSet outages = interval_set(faults.radio.outages);
  const power::RadioModel radio{spec.radio};
  const std::uint32_t radio_batch =
      std::max<std::uint32_t>(spec.radio_batch_frames, 1);
  const bool lossy = radio.enabled() && faults.radio.enabled();
  std::deque<double> queue;  ///< Capture times awaiting service.
  const std::size_t queue_cap =
      std::max<std::uint32_t>(spec.uplink_queue_frames, 1);

  // ---- Energy and randomness.
  power::Battery battery{spec.battery};
  Xorshift64 rng{spec.seed};  ///< Period jitter.
  Xorshift64 fault_rng{spec.seed ^ kFaultStreamSalt};

  // ---- Environment at now_s.
  double now_s = 0.0;
  double slack = spec.base_qos_slack;
  double ambient_c = spec.base_ambient_c;
  double harvest_mw = std::max(spec.base_harvest_mw, 0.0);
  const bool has_harvest = harvest_mw > 0.0 || !harvest_events.empty();

  // ---- Clock tree and governor.
  int cur = -1;                   ///< Rung of the last served frame.
  std::optional<WakeState> wake;  ///< Clock tree state across sleeps.
  int predicted = -1;             ///< Pre-locked rung awaiting its wake.
  bool prelock_pending = false;
  FrameContext ctx;  ///< Last context handed to choose() (predict_next's).

  // ---- Fault bookkeeping.
  double down_until_s = 0.0;  ///< Rebooting (node off) until this time.
  double next_ckpt_s = faults.reboot.checkpoint_interval_s;
  GovernorCheckpoint ckpt;
  const bool degraded_on = faults.degraded.enabled();
  double miss_ewma = 0.0;            ///< Miss pressure (served frames).
  std::uint32_t shed_countdown = 0;  ///< Captures left to shed.

  // ---- Observability.
  std::vector<const char*> rung_names;  ///< Interned, when tracing.
  int link_traced = -1;  ///< Connectivity span state: -1 unknown, 0/1 down/up.

  MissionReport r;
};

MissionReport NodeState::run() {
  // No rungs, no deadline reference or no duty cycle: the empty report.
  if (rungs.empty() || t_base_us <= 0.0 || spec.duty.period_s <= 0.0) {
    return std::move(r);
  }
  if (tr != nullptr) {
    rung_names.reserve(rungs.size());
    for (const RungInfo& rung : rungs) {
      rung_names.push_back(tr->intern(rung.name));
    }
    tr->counter(obs::Track::kEnv, "qos_slack", 0.0, slack);
    tr->counter(obs::Track::kEnv, "ambient_c", 0.0, ambient_c);
    if (has_harvest) tr->counter(obs::Track::kEnv, "harvest_mw", 0.0, harvest_mw);
  }

  // One frame is *captured* per duty-cycle slot. While the uplink is gated
  // and down, captures queue as latency debt; while it is up, the engine
  // serves the queue front (the live capture, when the queue was empty)
  // and then drains further backlog back-to-back inside the slot.
  while (now_s < spec.horizon_s && !battery.depleted()) {
    if (r.frames >= kMaxFrames || r.frames_offered >= kMaxFrames) {
      r.truncated = true;
      break;
    }
    const double cap_mhz = advance_events();
    const bool down = reset_and_checkpoint();
    const double period_s = slot_period();

    // Every slot is a capture *opportunity* the duty cycle offers — the
    // availability denominator. Slots the node reboots through are offered
    // but never captured.
    ++r.frames_offered;

    // ---- Faults: reboot downtime. The node is off: nothing captures, no
    // sleep draw (only battery self-discharge), but the sun still charges.
    if (down) {
      r.downtime_s += std::min(period_s, down_until_s - now_s);
      idle_slot(period_s, false);
      continue;
    }
    if (!capture(period_s)) continue;
    const double active_s = serve(period_s, cap_mhz);
    end_slot(sleep_and_prelock(period_s, active_s));
  }
  return finish();
}

/// Event advance: applies every QoS, temperature and harvest step due by
/// now_s. Returns the slot's thermal clock cap.
double NodeState::advance_events() {
  bool slack_changed = false;
  while (next_qos < qos_events.size() && qos_events[next_qos].at_s <= now_s) {
    slack = qos_events[next_qos++].qos_slack;
    slack_changed = true;
  }
  bool ambient_changed = false;
  while (next_temp < temp_events.size() &&
         temp_events[next_temp].at_s <= now_s) {
    ambient_c = temp_events[next_temp++].ambient_c;
    ambient_changed = true;
  }
  if (ambient_changed) battery.set_ambient_c(ambient_c);
  bool harvest_changed = false;
  while (next_harvest < harvest_events.size() &&
         harvest_events[next_harvest].at_s <= now_s) {
    harvest_mw = std::max(harvest_events[next_harvest++].intake_mw, 0.0);
    harvest_changed = true;
  }
  if (tr != nullptr) {
    if (slack_changed) {
      tr->counter(obs::Track::kEnv, "qos_slack", now_s * 1e6, slack);
    }
    if (ambient_changed) {
      tr->counter(obs::Track::kEnv, "ambient_c", now_s * 1e6, ambient_c);
    }
    if (harvest_changed) {
      tr->counter(obs::Track::kEnv, "harvest_mw", now_s * 1e6, harvest_mw);
    }
  }
  return spec.derate.max_sysclk_mhz(ambient_c);
}

/// Resets and checkpoint. Returns whether the node is down rebooting
/// through this slot.
bool NodeState::reset_and_checkpoint() {
  // ---- Faults: brownout/watchdog resets, resolved at slot granularity.
  // A reset pays the boot energy, takes the node down for the boot time,
  // and erases the volatile state: the clock tree falls back to the boot
  // configuration (any pre-lock is gone — a pending one is a miss), and
  // the governor either restores the last checkpoint (rung preference,
  // miss EWMA, queued frames captured at or before it) or cold-boots
  // (everything queued is dropped).
  const RebootSpec& reboot = faults.reboot;
  while (next_reset < resets.size() && resets[next_reset].at_s <= now_s) {
    ++next_reset;
    ++r.resets;
    if (tr != nullptr) {
      tr->complete(obs::Track::kFaults, "reboot", now_s * 1e6,
                   std::max(reboot.boot_s, 0.0) * 1e6);
    }
    const double boot_uj = std::max(reboot.boot_uj, 0.0);
    battery.drain_uj(boot_uj);
    r.boot_uj += boot_uj;
    down_until_s =
        std::max(down_until_s, now_s + std::max(reboot.boot_s, 0.0));
    if (prelock_pending) {
      ++r.prelock_misses;
      prelock_pending = false;
      if (tr != nullptr) {
        tr->instant(obs::Track::kGovernor, "prelock_miss", now_s * 1e6);
      }
    }
    predicted = -1;
    wake = WakeState::at(sim.boot);
    // The pre-lock target dies with the volatile clock state — checkpoints
    // never capture it, so a restore picks from the restored rung
    // preference alone.
    if (tr != nullptr) {
      tr->instant(obs::Track::kGovernor, "plan_invalidate", now_s * 1e6);
    }
    if (ckpt.valid()) {
      while (!queue.empty() && queue.back() > ckpt.at_s) {
        queue.pop_back();
        ++r.frames_dropped;
      }
      cur = ckpt.rung;
      miss_ewma = ckpt.miss_ewma;
    } else {
      r.frames_dropped += queue.size();
      queue.clear();
      cur = -1;
      miss_ewma = 0.0;
    }
  }
  const bool down = now_s < down_until_s;

  // ---- Faults: periodic governor checkpoint — one flash write per due
  // interval boundary (collapsed to one per slot when a slot spans
  // several), skipped while the node is down rebooting (the cursor still
  // advances: a dead node writes nothing).
  if (reboot.checkpointed()) {
    bool due = false;
    while (next_ckpt_s <= now_s) {
      due = true;
      next_ckpt_s += reboot.checkpoint_interval_s;
    }
    if (due && !down) {
      ckpt = GovernorCheckpoint{now_s, cur, miss_ewma};
      const double ckpt_uj = std::max(reboot.checkpoint_uj, 0.0);
      battery.drain_uj(ckpt_uj);
      r.checkpoint_uj += ckpt_uj;
      ++r.checkpoints;
      if (tr != nullptr) {
        tr->instant(obs::Track::kFaults, "checkpoint", now_s * 1e6);
      }
    }
  }
  return down;
}

/// The slot's duty-cycle period: the base period, shortened by any active
/// burst, then jittered from the period stream.
double NodeState::slot_period() {
  double period_s = spec.duty.period_s;
  for (const Burst& burst : spec.bursts) {
    if (burst.period_s > 0.0 && now_s >= burst.start_s &&
        now_s < burst.start_s + burst.duration_s) {
      period_s = std::min(period_s, burst.period_s);
    }
  }
  if (spec.period_jitter > 0.0) {
    period_s *= 1.0 + spec.period_jitter * (2.0 * rng.next_unit() - 1.0);
    period_s = std::max(period_s, 1e-6);
  }
  return period_s;
}

/// Capture, shed and link gate. Returns whether the slot goes on to serve;
/// a shed capture or a down link sleeps the whole slot instead.
bool NodeState::capture(double period_s) {
  ++r.frames_captured;
  if (tr != nullptr) {
    tr->instant(obs::Track::kFrames, "capture", now_s * 1e6);
  }

  // ---- Faults: graceful degradation sheds this capture (bounded by the
  // policy's skip factor): the frame is accounted, never enqueued, and
  // the whole slot sleeps — trading declared QoS for survival.
  if (shed_countdown > 0) {
    --shed_countdown;
    ++r.frames_shed;
    if (tr != nullptr) {
      tr->instant(obs::Track::kFaults, "shed", now_s * 1e6);
    }
    idle_slot(period_s, true);
    return false;
  }

  queue.push_back(now_s);
  if (queue.size() > queue_cap) {
    queue.pop_front();
    ++r.frames_dropped;
  }
  if (link.gated()) {
    r.max_backlog = std::max<std::uint64_t>(r.max_backlog, queue.size());
  }

  if (!link.connected(now_s)) {
    if (tr != nullptr && link_traced == 1) {
      tr->end(obs::Track::kLink, "window", now_s * 1e6);
    }
    link_traced = 0;
    // Down: the whole slot sleeps on the retained clock state. The sun
    // does not care about the uplink — harvest still charges the slot.
    idle_slot(period_s, true);
    return false;
  }
  if (tr != nullptr && link.gated() && link_traced != 1) {
    tr->begin(obs::Track::kLink, "window", now_s * 1e6);
    link_traced = 1;
  }
  return true;
}

/// Serve and drain: queue front first (== the live capture when no
/// backlog), then drain back-to-back while frames fit inside the slot and
/// the window stays up. The first serve always happens (capture() just
/// queued a frame) and may overrun the slot (the slot then stretches,
/// exactly like a v1 frame whose inference exceeds the period). Returns the
/// slot's active time.
double NodeState::serve(double period_s, double cap_mhz) {
  double active_slack = slack;
  if (spec.low_battery_soc > 0.0 && battery.soc() < spec.low_battery_soc) {
    active_slack = std::max(active_slack, spec.low_battery_qos_slack);
  }
  const double deadline_us = t_base_us * (1.0 + active_slack);
  const double slot_end_s = now_s + period_s;
  double active_s = 0.0;
  for (std::uint32_t batch_pos = 0; !queue.empty(); ++batch_pos) {
    const bool first = batch_pos == 0;
    const double serve_s = now_s + active_s;
    if (!first && !link.connected(serve_s)) break;
    const double capture_s = queue.front();

    // ---- Radio duty-cycling: frames drained back-to-back share one PA
    // ramp per batch of radio_batch frames. The batch leader pays the
    // full burst (ramp + payload); followers ride the already-ramped PA
    // and pay payload only. radio_batch == 1 is per-frame bursts,
    // bit-identical to the pre-batching engine.
    const bool follow = radio_batch > 1 && (batch_pos % radio_batch) != 0;
    const double frame_radio_us = follow ? radio.payload_us() : radio.tx_us();
    const double frame_radio_uj = follow ? radio.payload_uj() : radio.tx_uj();

    ctx = FrameContext{};
    ctx.time_s = serve_s;
    ctx.deadline_us = deadline_us;
    ctx.period_s = period_s;
    ctx.battery_soc = battery.soc();
    ctx.max_sysclk_mhz = cap_mhz;
    ctx.backlog = static_cast<std::uint32_t>(queue.size() - 1);
    ctx.window_remaining_s = link.gated() ? link.window_end() - serve_s : -1.0;
    ctx.radio_us = frame_radio_us;
    ctx.wake = wake;

    const int next = policy.choose(ctx, cur);
    const RungInfo& rung = rungs.at(static_cast<std::size_t>(next));
    const TransitionCost trans =
        wake ? wake_transition(*wake, rung, sim.switching, pm)
             : TransitionCost{};
    // The QoS deadline bounds the compute path (transition + inference);
    // the uplink burst extends the frame's slot occupancy instead — its
    // delay surfaces as backlog latency debt, not as a deadline miss.
    const double compute_us = trans.us + rung.t_us;
    const double frame_us = compute_us + frame_radio_us;
    if (!first && serve_s + frame_us * 1e-6 > slot_end_s) break;
    queue.pop_front();

    const bool missed = compute_us > ctx.deadline_us + 1e-9;
    if (missed) {
      ++r.deadline_misses;
      r.deadline_overrun_s += (compute_us - ctx.deadline_us) * 1e-6;
    }
    if (cur >= 0 && next != cur) ++r.rung_switches;
    if (cap_mhz > 0.0) {
      if (max_peak_mhz > cap_mhz + 1e-9) ++r.derated_frames;
      if (rung.peak_mhz() > cap_mhz + 1e-9) ++r.thermal_violations;
    }
    if (prelock_pending) {
      next == predicted ? ++r.prelock_hits : ++r.prelock_misses;
      if (tr != nullptr) {
        tr->instant(obs::Track::kGovernor,
                    next == predicted ? "prelock_hit" : "prelock_miss",
                    serve_s * 1e6);
      }
      prelock_pending = false;
    }
    battery.drain_uj(rung.e_uj + trans.uj + frame_radio_uj);
    r.inference_uj += rung.e_uj;
    r.transition_uj += trans.uj;
    r.radio_uj += frame_radio_uj;
    ++r.frames_per_rung[static_cast<std::size_t>(next)];
    ++r.frames;
    const double debt_s = serve_s - capture_s;
    r.backlog_latency_s += debt_s;
    r.max_latency_debt_s = std::max(r.max_latency_debt_s, debt_s);
    if (tr != nullptr) {
      tr->complete(obs::Track::kFrames,
                   rung_names[static_cast<std::size_t>(next)], serve_s * 1e6,
                   compute_us, "e_uj", rung.e_uj + trans.uj, "debt_s",
                   debt_s);
      if (missed) {
        tr->instant(obs::Track::kFrames, "deadline_miss", serve_s * 1e6);
      }
      if (frame_radio_us > 0.0) {
        tr->complete(obs::Track::kRadio, "tx", serve_s * 1e6 + compute_us,
                     frame_radio_us);
      }
    }

    const double frame_uplink_us =
        uplink_with_retry(serve_s + compute_us * 1e-6, frame_radio_us);
    cur = next;
    wake = WakeState::after(rung);
    active_s += (compute_us + frame_uplink_us) * 1e-6;

    // ---- Faults: degraded-mode pressure input — the deadline-miss EWMA
    // the policy's shedding ladder reads.
    if (degraded_on) {
      miss_ewma += faults.degraded.miss_alpha *
                   ((missed ? 1.0 : 0.0) - miss_ewma);
    }
    if (battery.depleted()) break;
  }

  // ---- Faults: after serving, ask the policy's DegradedMode ladder how
  // many upcoming captures to shed (0 from degradation-blind policies).
  if (degraded_on) {
    const std::uint32_t skip =
        policy.degraded_skip(battery.soc(), miss_ewma, faults.degraded);
    shed_countdown = std::min(skip, faults.degraded.max_skip);
  }
  return active_s;
}

/// Uplink retry. Returns the frame's total uplink occupancy in
/// microseconds, starting from its first attempt's `frame_radio_us`.
///
/// ---- Faults: lossy uplink with seeded-deterministic retry. A failed
/// attempt (hard outage, or the per-attempt loss draw) is retried up to
/// max_retries times, each after an exponential backoff (optionally
/// jittered from the fault stream); every retry pays a full radio burst —
/// PA ramp included — through the same RadioModel pricing as the first
/// attempt, and the backoff + burst extend the frame's slot occupancy
/// (latency debt for whatever queues behind it). The frame is abandoned as
/// a tx failure when the budget is exhausted, when the next burst cannot
/// finish inside the connectivity window, or when the battery dies
/// mid-burst.
double NodeState::uplink_with_retry(double attempt_start_s,
                                    double frame_radio_us) {
  double total_us = frame_radio_us;
  if (!lossy) return total_us;
  const RadioFaultSpec& loss = faults.radio;
  const double radio_us = radio.tx_us();
  const double radio_uj = radio.tx_uj();
  // Retries always pay the full burst — the PA ramped down during the
  // backoff — even when the first attempt rode a shared batch ramp.
  double attempt_us = frame_radio_us;
  bool fail = tx_attempt_fails(attempt_start_s);
  std::uint32_t attempt = 0;
  while (fail) {
    if (attempt >= loss.max_retries) {
      ++r.tx_failures;
      break;
    }
    const double unit =
        loss.backoff_jitter > 0.0 ? fault_rng.next_unit() : 0.5;
    const double backoff_s = retry_backoff_s(loss, attempt, unit);
    const double next_start_s =
        attempt_start_s + attempt_us * 1e-6 + backoff_s;
    if (link.gated() && next_start_s + radio_us * 1e-6 > link.window_end()) {
      ++r.tx_failures;  // the backoff crossed the window boundary
      break;
    }
    ++attempt;
    ++r.retries;
    if (tr != nullptr) {
      tr->complete(obs::Track::kRadio, "retry", next_start_s * 1e6,
                   radio_us);
    }
    total_us += backoff_s * 1e6 + radio_us;
    battery.drain_uj(radio_uj);
    r.retry_uj += radio_uj;
    attempt_start_s = next_start_s;
    attempt_us = radio_us;
    if (battery.depleted()) {
      ++r.tx_failures;  // died mid-retry-burst: delivery unconfirmed
      break;
    }
    fail = tx_attempt_fails(attempt_start_s);
  }
  return total_us;
}

/// An attempt fails inside a hard outage unconditionally (no draw), else
/// by the per-attempt loss probability. Attempt times are non-decreasing
/// across the mission, matching the IntervalSet query contract.
bool NodeState::tx_attempt_fails(double t) {
  if (!outages.empty() && outages.contains(t)) return true;
  return faults.radio.loss_prob > 0.0 &&
         fault_rng.next_unit() < faults.radio.loss_prob;
}

/// Sleep and pre-lock. Returns the slot's span: max(period, active time).
double NodeState::sleep_and_prelock(double period_s, double active_s) {
  // The remainder of the slot sleeps. Self-discharge applies over the
  // whole wall-clock span. Depletion is resolved at slot granularity (the
  // battery pins at empty mid-slot).
  const double step_s = std::max(period_s, active_s);
  const double sleep_s = step_s - active_s;
  r.sleep_uj += std::max(spec.duty.sleep_mw, 0.0) * sleep_s * 1e3;
  battery.elapse(sleep_s, spec.duty.sleep_mw);
  battery.elapse(active_s, 0.0);

  // ---- Predictive pre-lock: reposition the PLL/regulator for the rung
  // the policy expects next, paid during the sleep just charged (off the
  // wake critical path). Only when the sleep actually fits the relock.
  const int pred = policy.predict_next(ctx, cur);
  if (pred >= 0 && sleep_s * 1e6 > 0.0) {
    WakeState repositioned = *wake;
    const clock::SwitchCost cost = clock::background_reposition_cost(
        sim.switching, rungs[static_cast<std::size_t>(pred)].entry_hfo,
        repositioned.config, repositioned.locked_pll, repositioned.scale);
    if (cost.total_us > 0.0 && cost.total_us <= sleep_s * 1e6) {
      const double uj =
          cost.total_us *
          pm.power_mw(power::PowerState::from_parts(repositioned.config,
                                                    repositioned.locked_pll,
                                                    repositioned.scale),
                      power::Activity::kMemoryStall) *
          1e-3;
      battery.drain_uj(uj);
      r.prelock_uj += uj;
      ++r.prelocks;
      if (tr != nullptr) {
        tr->complete(obs::Track::kGovernor, "prelock",
                     (now_s + active_s) * 1e6, cost.total_us, "rung",
                     static_cast<double>(pred));
      }
      predicted = pred;
      prelock_pending = true;
      wake = repositioned;
    }
  }
  return step_s;
}

/// The slot that serves nothing (reboot downtime, shed capture, link
/// down): a `powered` node draws sleep power over the whole period, an
/// unpowered one only self-discharges; then the common slot end.
void NodeState::idle_slot(double period_s, bool powered) {
  if (powered) {
    r.sleep_uj += std::max(spec.duty.sleep_mw, 0.0) * period_s * 1e3;
  }
  battery.elapse(period_s, powered ? spec.duty.sleep_mw : 0.0);
  end_slot(period_s);
}

/// Harvest, slot-boundary counters, and the clock advance over `step_s`.
void NodeState::end_slot(double step_s) {
  // ---- Harvest: the active intake charges the battery over the whole
  // slot span (the sun does not care what the MCU is doing — idle slots
  // charge too), scaled by panel thermal derating, rate-capped and clamped
  // at capacity inside Battery::charge. Skipped once depleted: a
  // browned-out node is dead — charge never revives it, so depletion
  // semantics match the discharge-only engine exactly.
  if (has_harvest && !battery.depleted()) {
    r.harvested_mwh += battery.charge(
        step_s, effective_intake_mw(spec, harvest_mw, ambient_c));
  }
  trace_slot_counters(now_s + step_s);
  now_s += step_s;
}

/// Battery SoC + backlog depth counter samples at a slot boundary.
void NodeState::trace_slot_counters(double end_s) {
  if (tr == nullptr) return;
  tr->counter(obs::Track::kBattery, "soc_mwh", end_s * 1e6,
              battery.remaining_mwh());
  if (link.gated()) {
    tr->counter(obs::Track::kBacklog, "queue_depth", end_s * 1e6,
                static_cast<double>(queue.size()));
  }
}

MissionReport NodeState::finish() {
  r.simulated_s = now_s;
  r.battery_depleted = battery.depleted();
  r.battery_remaining_mwh = battery.remaining_mwh();
  r.frames_pending = queue.size();

  if (tr != nullptr && link_traced == 1) {
    // Balance the open connectivity span at mission end.
    tr->end(obs::Track::kLink, "window", now_s * 1e6);
  }
  if (sink != nullptr && sink->metrics != nullptr) {
    obs::MetricsRegistry& mx = *sink->metrics;
    mx.counter("scenario.frames_offered").add(r.frames_offered);
    mx.counter("scenario.frames_captured").add(r.frames_captured);
    mx.counter("scenario.frames_served").add(r.frames);
    mx.counter("scenario.frames_dropped").add(r.frames_dropped);
    mx.counter("scenario.frames_shed").add(r.frames_shed);
    mx.counter("scenario.deadline_misses").add(r.deadline_misses);
    mx.counter("scenario.rung_switches").add(r.rung_switches);
    mx.counter("scenario.prelocks").add(r.prelocks);
    mx.counter("scenario.prelock_hits").add(r.prelock_hits);
    mx.counter("scenario.prelock_misses").add(r.prelock_misses);
    mx.counter("scenario.retries").add(r.retries);
    mx.counter("scenario.tx_failures").add(r.tx_failures);
    mx.counter("scenario.resets").add(r.resets);
    mx.counter("scenario.checkpoints").add(r.checkpoints);
    mx.gauge("scenario.battery_remaining_mwh").set(r.battery_remaining_mwh);
    mx.gauge("scenario.availability").set(r.availability());
    mx.histogram("scenario.slot_backlog").observe(
        static_cast<double>(r.max_backlog));
  }
  return std::move(r);
}

}  // namespace

MissionReport simulate_mission(const MissionSpec& spec,
                               const SchedulePolicy& policy,
                               double t_base_us, const sim::SimParams& sim,
                               obs::Sink* sink) {
  return NodeState(spec, policy, t_base_us, sim, sink).run();
}

}  // namespace daedvfs::scenario

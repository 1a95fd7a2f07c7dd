#include "src/analysis/constrained.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "src/analysis/explore.h"
#include "src/analysis/remaining_multiset.h"

namespace sdfmap {

std::int64_t completion_time(std::int64_t now, std::int64_t remaining, std::int64_t wheel,
                             std::int64_t slice, std::int64_t offset) {
  if (remaining <= 0) return now;
  if (slice <= 0) return kNeverCompletes;
  if (slice >= wheel) return now + remaining;
  // Work in shifted coordinates where the slice occupies phases [0, slice);
  // adding one wheel keeps the shifted time non-negative.
  const std::int64_t shift = ((offset % wheel) + wheel) % wheel;
  std::int64_t t = now - shift + wheel;
  std::int64_t r = remaining;
  const std::int64_t phase = t % wheel;
  if (phase < slice) {
    const std::int64_t avail = slice - phase;
    if (r <= avail) return t + r + shift - wheel;
    r -= avail;
  }
  t += wheel - phase;  // start of the next slice window
  const std::int64_t full = (r - 1) / slice;
  t += full * wheel;
  r -= full * slice;
  return t + r + shift - wheel;
}

std::int64_t slice_time_between(std::int64_t from, std::int64_t to, std::int64_t wheel,
                                std::int64_t slice, std::int64_t offset) {
  if (to <= from) return 0;
  if (slice <= 0) return 0;
  if (slice >= wheel) return to - from;
  const std::int64_t shift = ((offset % wheel) + wheel) % wheel;
  const auto upto = [wheel, slice, shift](std::int64_t x) {
    const std::int64_t shifted = x - shift + wheel;  // non-negative
    return (shifted / wheel) * slice + std::min(shifted % wheel, slice);
  };
  return upto(to) - upto(from);
}

namespace {

/// The constrained semantics for both scheduling modes (Sec. 8.2 / Sec. 9.2).
///
/// Cost per simulated instant is what bounds slice allocation, so the
/// fixpoint keeps per-instant work proportional to what changed:
///  - actor ports are flattened once per execution (no graph lookups);
///  - a START phase only re-evaluates actors whose inputs grew since they
///    were last found disabled (a channel has one consumer, so nothing else
///    can enable them);
///  - firings carry absolute finish times, so advancing the clock touches no
///    state and remaining work is only worked out when a state key is
///    sampled;
///  - the fixpoint at an instant runs a further pass only when the previous
///    one started a zero-duration firing or hit the start cap — any other
///    further pass would change nothing. Such a pass is still counted as one
///    budget poll, so deadline and cancellation checks land exactly where
///    they would with every pass executed.
class ConstrainedSemantics : public ExploreHooks {
 public:
  /// List mode stores each sampled state's per-tile recorded-start counts, so
  /// the recurrent state splits the recorded schedules into prefix and loop.
  struct Extra {
    std::vector<std::size_t> starts;
  };

  ConstrainedSemantics(const Graph& g, const ConstrainedSpec& spec, SchedulingMode mode,
                       const ExecutionLimits& limits)
      : g_(g), spec_(spec), mode_(mode), limits_(limits) {
    validate();
    init_state();
  }

  void fixpoint(std::int64_t now, BudgetGuard& budget, TransitionEvent* trace);

  [[nodiscard]] const std::vector<std::int64_t>& fires() const { return fire_count_; }

  /// Serializes the extended state (tokens, per tile: firing, remaining work,
  /// schedule position, wheel phase and in list mode the ready list; the
  /// unscheduled actors' remaining work).
  void encode(StateKey& key, std::int64_t now) const {
    key.words.clear();
    key.words.reserve(tokens_.size() + spec_.tiles.size() * 6 + g_.num_actors());
    key.words.insert(key.words.end(), tokens_.begin(), tokens_.end());
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const TileState& ts = tiles_[t];
      key.words.push_back(ts.busy ? static_cast<std::int64_t>(ts.firing_actor) : -1);
      key.words.push_back(ts.busy ? tile_remaining(t, now) : -1);
      key.words.push_back(static_cast<std::int64_t>(ts.schedule_pos));
      key.words.push_back(now % spec_.tiles[t].wheel_size);  // wheel phase
      if (mode_ == SchedulingMode::kListScheduling) {
        key.words.push_back(static_cast<std::int64_t>(ts.ready.size()));
        for (const std::uint32_t a : ts.ready) key.words.push_back(a);
      }
    }
    for (const std::uint32_t a : unscheduled_) {
      unscheduled_remaining_[a].encode(now, key.words);
    }
  }

  /// A zero-slice tile's firing never completes (kNeverCompletes), so it
  /// counts as deadlocked.
  [[nodiscard]] std::int64_t next_completion() const {
    static_assert(kNeverCompletes == kNoCompletion);
    std::int64_t next = kNoCompletion;
    for (const TileState& ts : tiles_) {
      if (ts.busy) next = std::min(next, ts.finish);
    }
    for (const std::uint32_t a : unscheduled_) {
      if (!unscheduled_remaining_[a].empty()) {
        next = std::min(next, unscheduled_remaining_[a].front());
      }
    }
    return next;
  }

  void save(Extra& extra) const {
    if (mode_ != SchedulingMode::kListScheduling) return;
    extra.starts.resize(tiles_.size());
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      extra.starts[t] = recorded_starts_[t].size();
    }
  }

  void finish(SelfTimedResult& result, const Extra* recurrent) {
    if (mode_ == SchedulingMode::kListScheduling &&
        result.status == SelfTimedResult::Status::kPeriodic) {
      schedules.resize(tiles_.size());
      for (std::size_t t = 0; t < tiles_.size(); ++t) {
        schedules[t].firings = std::move(recorded_starts_[t]);
        schedules[t].loop_start = recurrent->starts[t];
      }
    }
    result.max_tokens = std::move(max_tokens_);
  }

  /// List mode: the recorded schedules, filled by finish() when periodic.
  std::vector<StaticOrderSchedule> schedules;

 private:
  /// One channel end of an actor: inputs use (channel, rate); outputs also
  /// name the channel's consumer, which a production marks dirty.
  struct Port {
    std::uint32_t channel;
    std::uint32_t consumer;
    std::int64_t rate;
  };

  struct TileState {
    bool busy = false;
    std::uint32_t firing_actor = 0;
    std::int64_t finish = 0;         // absolute completion time of the active firing
    std::size_t schedule_pos = 0;    // static mode
    std::deque<std::uint32_t> ready; // list mode
  };

  void validate() const {
    if (spec_.actor_tile.size() != g_.num_actors()) {
      throw std::invalid_argument("execute_constrained: actor_tile size mismatch");
    }
    for (const std::int32_t t : spec_.actor_tile) {
      if (t != kUnscheduled && (t < 0 || static_cast<std::size_t>(t) >= spec_.tiles.size())) {
        throw std::invalid_argument("execute_constrained: actor bound to unknown tile");
      }
    }
    for (const TdmaTileSpec& tile : spec_.tiles) {
      if (tile.wheel_size <= 0 || tile.slice < 0 || tile.slice > tile.wheel_size) {
        throw std::invalid_argument("execute_constrained: invalid wheel/slice");
      }
    }
    if (mode_ == SchedulingMode::kStaticOrder) {
      for (std::size_t t = 0; t < spec_.tiles.size(); ++t) {
        for (const ActorId a : spec_.tiles[t].schedule.firings) {
          if (a.value >= g_.num_actors() ||
              spec_.actor_tile[a.value] != static_cast<std::int32_t>(t)) {
            throw std::invalid_argument(
                "execute_constrained: schedule names an actor not bound to its tile");
          }
        }
      }
    }
  }

  /// Number of firings of `a` the current tokens enable, capped at
  /// max_tokens_per_channel (actors without inputs are capped too).
  std::int64_t enabled_firings(std::uint32_t a) const {
    std::int64_t enabled = limits_.max_tokens_per_channel;
    for (std::uint32_t i = in_begin_[a]; i < in_begin_[a + 1]; ++i) {
      enabled = std::min(enabled, tokens_[in_ports_[i].channel] / in_ports_[i].rate);
      if (enabled == 0) break;
    }
    return enabled;
  }

  bool tokens_available(std::uint32_t a) const {
    for (std::uint32_t i = in_begin_[a]; i < in_begin_[a + 1]; ++i) {
      if (tokens_[in_ports_[i].channel] < in_ports_[i].rate) return false;
    }
    return true;
  }

  void consume_inputs(std::uint32_t a, std::int64_t firings) {
    for (std::uint32_t i = in_begin_[a]; i < in_begin_[a + 1]; ++i) {
      tokens_[in_ports_[i].channel] -= in_ports_[i].rate * firings;
    }
  }

  /// Produces the outputs of `firings` completed firings of `a` at once. When
  /// any channel would exceed max_tokens_per_channel, the firings are
  /// replayed one by one so the error names the channel that one-at-a-time
  /// production overflows first.
  void produce_outputs(std::uint32_t a, std::int64_t firings) {
    const std::uint32_t begin = out_begin_[a];
    const std::uint32_t end = out_begin_[a + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::int64_t room = limits_.max_tokens_per_channel - tokens_[out_ports_[i].channel];
      if (room < 0 || room / out_ports_[i].rate < firings) throw_divergence(a);
    }
    for (std::uint32_t i = begin; i < end; ++i) {
      const Port& p = out_ports_[i];
      tokens_[p.channel] += p.rate * firings;
      max_tokens_[p.channel] = std::max(max_tokens_[p.channel], tokens_[p.channel]);
      dirty_[p.consumer] = 1;
    }
  }

  [[noreturn]] void throw_divergence(std::uint32_t a) {
    while (true) {
      for (std::uint32_t i = out_begin_[a]; i < out_begin_[a + 1]; ++i) {
        const Port& p = out_ports_[i];
        tokens_[p.channel] += p.rate;
        if (tokens_[p.channel] > limits_.max_tokens_per_channel) {
          throw AnalysisError(AnalysisErrorKind::kTokenDivergence,
                              "execute_constrained: unbounded token accumulation on '" +
                                  g_.channel(ChannelId{p.channel}).name + "'");
        }
      }
    }
  }

  void init_state() {
    const std::size_t num_actors = g_.num_actors();
    tokens_.resize(g_.num_channels());
    for (std::size_t i = 0; i < g_.num_channels(); ++i) {
      tokens_[i] = g_.channels()[i].initial_tokens;
    }
    max_tokens_ = tokens_;
    tiles_.assign(spec_.tiles.size(), {});
    unscheduled_remaining_.assign(num_actors, {});
    pending_claims_.assign(num_actors, 0);
    fire_count_.assign(num_actors, 0);
    recorded_starts_.assign(spec_.tiles.size(), {});
    dirty_.assign(num_actors, 1);
    in_begin_.assign(num_actors + 1, 0);
    out_begin_.assign(num_actors + 1, 0);
    for (std::uint32_t a = 0; a < num_actors; ++a) {
      const Actor& actor = g_.actor(ActorId{a});
      exec_time_.push_back(actor.execution_time);
      for (const ChannelId cid : actor.inputs) {
        in_ports_.push_back({cid.value, a, g_.channel(cid).consumption_rate});
      }
      for (const ChannelId cid : actor.outputs) {
        const Channel& c = g_.channel(cid);
        out_ports_.push_back({cid.value, c.dst.value, c.production_rate});
      }
      in_begin_[a + 1] = static_cast<std::uint32_t>(in_ports_.size());
      out_begin_[a + 1] = static_cast<std::uint32_t>(out_ports_.size());
      (spec_.actor_tile[a] == kUnscheduled ? unscheduled_ : tile_actors_).push_back(a);
    }
  }

  /// Work units the active firing of tile `t` still needs at `now`.
  std::int64_t tile_remaining(std::size_t t, std::int64_t now) const {
    const TileState& ts = tiles_[t];
    if (ts.finish == kNeverCompletes) return exec_time_[ts.firing_actor];  // zero slice
    const TdmaTileSpec& tile = spec_.tiles[t];
    return slice_time_between(now, ts.finish, tile.wheel_size, tile.slice, tile.slice_offset);
  }

  const Graph& g_;
  const ConstrainedSpec& spec_;
  const SchedulingMode mode_;
  const ExecutionLimits& limits_;

  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::vector<TileState> tiles_;
  std::vector<RemainingMultiset> unscheduled_remaining_;  // per unscheduled actor
  std::vector<std::int64_t> pending_claims_;                      // list mode, per actor
  std::vector<std::int64_t> fire_count_;
  std::vector<std::vector<ActorId>> recorded_starts_;             // list mode, per tile
  // Set when an actor's inputs grew since a START phase last found it
  // disabled; only dirty actors are re-evaluated.
  std::vector<char> dirty_;
  std::vector<std::int64_t> exec_time_;
  std::vector<std::uint32_t> in_begin_, out_begin_;  // per actor, into the port arrays
  std::vector<Port> in_ports_, out_ports_;
  std::vector<std::uint32_t> unscheduled_;  // unscheduled actors, ascending
  std::vector<std::uint32_t> tile_actors_;  // tile-bound actors, ascending
};

void ConstrainedSemantics::fixpoint(std::int64_t now, BudgetGuard& budget,
                                    TransitionEvent* trace) {
  const std::int64_t start_cap = limits_.max_tokens_per_channel;
  std::uint64_t instant_events = 0;
  bool another_pass = true;
  while (another_pass) {
    bool changed = false;
    // A zero-duration start or a capped start can enable more work at this
    // instant; nothing else can (see the class comment).
    bool cascade = false;
    // End unscheduled firings that have completed.
    for (const std::uint32_t a : unscheduled_) {
      auto& rem = unscheduled_remaining_[a];
      const std::int64_t ended = rem.due(now);
      if (ended == 0) continue;
      rem.pop_front();
      produce_outputs(a, ended);
      fire_count_[a] += ended;
      if (trace != nullptr) trace->ended.insert(trace->ended.end(), ended, ActorId{a});
      changed = true;
      instant_events += static_cast<std::uint64_t>(ended);
    }
    // End tile firings that have completed.
    for (auto& ts : tiles_) {
      if (ts.busy && ts.finish == now) {
        ts.busy = false;
        produce_outputs(ts.firing_actor, 1);
        ++fire_count_[ts.firing_actor];
        if (trace != nullptr) trace->ended.push_back(ActorId{ts.firing_actor});
        changed = true;
        ++instant_events;
      }
    }
    // Start unscheduled firings (self-timed).
    for (const std::uint32_t a : unscheduled_) {
      if (!dirty_[a]) continue;
      const std::int64_t started = enabled_firings(a);
      if (started == 0) {
        dirty_[a] = 0;
        continue;
      }
      if (started == start_cap) {
        cascade = true;  // stays dirty: more firings may be enabled
      } else {
        dirty_[a] = 0;
      }
      consume_inputs(a, started);
      unscheduled_remaining_[a].add(now + exec_time_[a], started);
      cascade = cascade || exec_time_[a] == 0;
      if (trace != nullptr) trace->started.insert(trace->started.end(), started, ActorId{a});
      changed = true;
      instant_events += static_cast<std::uint64_t>(started);
    }
    // Start tile firings.
    if (mode_ == SchedulingMode::kListScheduling) {
      // Enqueue newly enabled firing instances of every tile actor. A queued
      // instance claims tokens it has not consumed yet, so the number of
      // queued instances per actor never exceeds min_c floor(tokens/rate);
      // starting one lowers both sides by one.
      for (const std::uint32_t a : tile_actors_) {
        if (!dirty_[a]) continue;
        const std::int64_t enabled = enabled_firings(a);
        if (enabled == start_cap) {
          cascade = true;
        } else {
          dirty_[a] = 0;
        }
        auto& ready = tiles_[static_cast<std::size_t>(spec_.actor_tile[a])].ready;
        for (std::int64_t i = pending_claims_[a]; i < enabled; ++i) {
          ready.push_back(a);
          ++pending_claims_[a];
        }
      }
    }
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      TileState& ts = tiles_[t];
      if (ts.busy) continue;
      std::uint32_t a = 0;
      if (mode_ == SchedulingMode::kStaticOrder) {
        const StaticOrderSchedule& sched = spec_.tiles[t].schedule;
        if (ts.schedule_pos >= sched.size()) continue;
        a = sched.at(ts.schedule_pos).value;
        if (!dirty_[a]) continue;
        if (!tokens_available(a)) {
          dirty_[a] = 0;
          continue;
        }
        ts.schedule_pos = sched.next(ts.schedule_pos);
      } else {
        if (ts.ready.empty()) continue;
        a = ts.ready.front();
        ts.ready.pop_front();
        --pending_claims_[a];
        if (!tokens_available(a)) {
          throw std::logic_error("execute_constrained: ready-list claim without tokens");
        }
        recorded_starts_[t].push_back(ActorId{a});
      }
      consume_inputs(a, 1);
      const TdmaTileSpec& tile = spec_.tiles[t];
      ts.busy = true;
      ts.firing_actor = a;
      ts.finish =
          completion_time(now, exec_time_[a], tile.wheel_size, tile.slice, tile.slice_offset);
      cascade = cascade || ts.finish == now;
      if (trace != nullptr) trace->started.push_back(ActorId{a});
      changed = true;
      ++instant_events;
    }
    if (instant_events > limits_.max_events_per_instant) {
      throw AnalysisError(AnalysisErrorKind::kZeroDelayCycle,
                          "execute_constrained: zero-delay cycle at one instant");
    }
    budget.check();
    another_pass = changed && cascade;
    // The pass after a change without a cascade would change nothing;
    // account for it as one poll instead of running it.
    if (changed && !cascade) budget.check();
  }
}

}  // namespace

ConstrainedResult execute_constrained(const Graph& g, const RepetitionVector& gamma,
                                      const ConstrainedSpec& spec, SchedulingMode mode,
                                      const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  ConstrainedSemantics sem(g, spec, mode, limits);
  ConstrainedResult result;
  result.base = explore(sem, gamma, limits, "execute_constrained", observer);
  result.schedules = std::move(sem.schedules);
  return result;
}

}  // namespace sdfmap

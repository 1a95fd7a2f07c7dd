// Feasibility rule pack (SDF301-SDF307): analysis-backed necessary
// conditions on (graph, platform, constraint) and (graph, platform, mapping)
// tuples, reusing the MCR engine, the exact solver's sound pruning bounds and
// the constrained state-space engine. Soundness contract (docs/LINT.md): a
// rule may only fire as an *error* on instances the exact backend provably
// cannot map — every error reuses a bound the branch-and-bound backend prunes
// on, and every error carries a machine-checkable "witness:" note. The deep
// rules (SDF301, SDF307) run under the LintInput's AnalysisBudget and degrade
// to a pinned kInfo advisory on exhaustion; cancellation always propagates.

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "src/analysis/cache.h"
#include "src/analysis/constrained.h"
#include "src/analysis/error.h"
#include "src/analysis/mcr.h"
#include "src/lint/rule.h"
#include "src/mapping/binding_aware.h"
#include "src/sdf/hsdf.h"
#include "src/sdf/repetition_vector.h"
#include "src/solver/bounds.h"

namespace sdfmap {
namespace lint_detail {

namespace {

/// HSDF expansions beyond this many firings are skipped silently (a sound
/// non-answer): a lint pass must stay interactive, and SDF008 warns about
/// pathological repetition vectors long before this bound.
constexpr std::int64_t kMaxHsdfFirings = std::int64_t{1} << 14;

/// Same bound the graph pack uses for 64-bit token/time accounting.
constexpr std::int64_t kOverflowThreshold = std::int64_t{1} << 31;

/// Γ(a, pt) with the proc-type index checked against the application's table
/// (a platform may declare more types than the application knows about).
const ActorRequirement* requirement_or_null(const ApplicationGraph& app, ActorId a,
                                            ProcTypeId pt) {
  if (pt.value >= app.num_proc_types()) return nullptr;
  const auto& req = app.requirement(a, pt);
  return req ? &*req : nullptr;
}

/// Minimum execution time of `a` over all supported processor types, or -1
/// when the actor supports none (SDF305's finding).
std::int64_t best_case_time(const ApplicationGraph& app, ActorId a) {
  std::int64_t best = -1;
  for (std::size_t pt = 0; pt < app.num_proc_types(); ++pt) {
    const auto& req = app.requirement(a, ProcTypeId{static_cast<std::uint32_t>(pt)});
    if (req && (best < 0 || req->execution_time < best)) best = req->execution_time;
  }
  return best;
}

/// Minimum memory footprint of `a` over all supported processor types, or -1.
std::int64_t best_case_memory(const ApplicationGraph& app, ActorId a) {
  std::int64_t best = -1;
  for (std::size_t pt = 0; pt < app.num_proc_types(); ++pt) {
    const auto& req = app.requirement(a, ProcTypeId{static_cast<std::uint32_t>(pt)});
    if (req && (best < 0 || req->memory < best)) best = req->memory;
  }
  return best;
}

/// The budget-degraded advisory form of a deep rule: severity pinned to kInfo
/// so the engine's stamping cannot escalate it back to the rule's error
/// level, message deterministic (reason kind only, no timing text).
void emit_degraded(const char* rule_name, const char* reason,
                   std::vector<Diagnostic>& out) {
  Diagnostic d;
  d.severity = Severity::kInfo;
  d.severity_pinned = true;
  d.message = std::string("feasibility check '") + rule_name + "' gave up (" + reason +
              ") before reaching a verdict";
  d.notes.push_back({"advisory: the rule degrades instead of guessing; raise the lint"
                     " budget (--lint-budget-ms) for a definitive answer",
                     {}});
  out.push_back(std::move(d));
}

/// Polls the deep-rule budget before any expensive work. Returns true when
/// the rule may run; emits the advisory and returns false on an expired
/// deadline (an already-expired budget therefore degrades deterministically,
/// even when the analysis itself would finish between polls); throws on
/// cancellation, which must always propagate.
bool deep_rule_admitted(const LintInput& in, const char* rule_name,
                        std::vector<Diagnostic>& out) {
  if (in.budget == nullptr || in.budget->unlimited()) return true;
  switch (in.budget->poll()) {
    case AnalysisBudget::State::kOk: return true;
    case AnalysisBudget::State::kDeadlineExceeded:
      emit_degraded(rule_name, "deadline-exceeded", out);
      return false;
    case AnalysisBudget::State::kCancelled:
      throw AnalysisError(AnalysisErrorKind::kCancelled,
                          std::string("lint: feasibility check '") + rule_name +
                              "' cancelled");
  }
  return true;
}

/// "a#0 -> b#1 -> a#0": the critical cycle rendered through the HSDF origin
/// map as original-actor firings.
std::string cycle_text(const HsdfConversion& hsdf, const Graph& app_graph,
                       const std::vector<ChannelId>& cycle) {
  std::string text;
  for (const ChannelId c : cycle) {
    const ActorId src = hsdf.graph.channel(c).src;
    const HsdfConversion::Origin& origin = hsdf.origin[src.value];
    if (!text.empty()) text += " -> ";
    text += app_graph.actor(origin.actor).name + "#" + std::to_string(origin.firing);
  }
  return text;
}

// ---- SDF301: constraint above the structural throughput upper bound -------

void check_structural_bound(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.app == nullptr) return;
  const ApplicationGraph& app = *in.app;
  const Rational& lambda = app.throughput_constraint();
  if (lambda.is_zero()) return;
  const std::optional<Graph> relaxed = best_case_relaxation(app);
  if (!relaxed) return;  // unmappable actor: SDF305 owns that finding
  const auto gamma = compute_repetition_vector(*relaxed);
  if (!gamma) return;  // inconsistent: SDF001
  if (iteration_firings(*gamma) > kMaxHsdfFirings) return;  // SDF008 warns; stay fast
  if (!deep_rule_admitted(in, "feasibility-constraint-above-bound", out)) return;
  try {
    const HsdfConversion hsdf = to_hsdf(*relaxed, *gamma);
    const McrResult mcr =
        max_cycle_ratio(hsdf.graph, in.budget ? *in.budget : AnalysisBudget{});
    // Acyclic: unbounded throughput, nothing to prove. Deadlock only stems
    // from the original token distribution, which SDF002 reports.
    if (!mcr.is_finite() || mcr.ratio.is_zero()) return;
    const Rational bound = mcr.ratio.inverse();
    if (lambda <= bound) return;
    Diagnostic d;
    d.message = "throughput constraint " + lambda.to_string() +
                " exceeds the structural upper bound " + bound.to_string() +
                ": even with every actor at its best-case execution time no"
                " allocation can reach it";
    d.notes.push_back({"witness: best-case max cycle ratio " + mcr.ratio.to_string() +
                           " bounds throughput by 1/" + mcr.ratio.to_string() + " = " +
                           bound.to_string() + " < constraint " + lambda.to_string(),
                       {}});
    if (!mcr.critical_cycle.empty()) {
      d.notes.push_back(
          {"critical cycle: " + cycle_text(hsdf, app.sdf(), mcr.critical_cycle), {}});
    }
    d.fix_hint = "relax the constraint to at most " + bound.to_string() +
                 " iterations per time unit, or shorten the critical cycle's"
                 " execution times";
    out.push_back(std::move(d));
  } catch (const AnalysisError& e) {
    if (e.kind() == AnalysisErrorKind::kCancelled) throw;
    emit_degraded("feasibility-constraint-above-bound", analysis_error_kind_name(e.kind()),
                  out);
  }
}

// ---- SDF302: aggregate compute demand above platform capacity -------------

void check_aggregate_capacity(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.app == nullptr || in.platform == nullptr) return;
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  const Rational& lambda = app.throughput_constraint();
  if (lambda.is_zero()) return;
  const auto gamma = in.repetition_vector(app.sdf());
  if (!gamma) return;  // SDF001
  if (iteration_firings(*gamma) > kOverflowThreshold) return;  // SDF008
  // Best-case work per iteration: a lower bound on what any allocation puts
  // on the platform (actors without a supported type only add more; SDF305
  // reports them, so skipping keeps this bound sound).
  std::int64_t work = 0;
  for (const ActorId a : app.sdf().actor_ids()) {
    const std::int64_t best = best_case_time(app, a);
    if (best < 0) continue;
    const std::int64_t firings = (*gamma)[a.value];
    if (best > 0 && firings > kOverflowThreshold / best) return;  // accounting overflow
    work += firings * best;
  }
  // Capacity: every tile can grant at most its free wheel fraction.
  Rational capacity(0);
  for (const Tile& tile : arch.tiles()) {
    if (tile.wheel_size > 0 && tile.available_wheel() > 0) {
      capacity = capacity + Rational(tile.available_wheel(), tile.wheel_size);
    }
  }
  const Rational demand = lambda * Rational(work);
  if (!(demand > capacity)) return;
  Diagnostic d;
  d.message = "aggregate compute demand exceeds platform capacity: sustaining the"
              " constraint needs " + demand.to_string() +
              " processors' worth of wheel time but only " + capacity.to_string() +
              " is free across all tiles";
  d.notes.push_back({"witness: demand = lambda * sum(gamma(a)*tau_min(a)) = " +
                         lambda.to_string() + " * " + std::to_string(work) + " = " +
                         demand.to_string() + " > capacity = sum(free_wheel/wheel) = " +
                         capacity.to_string(),
                     {}});
  d.fix_hint = "add tiles, free occupied wheel time, or relax the constraint";
  out.push_back(std::move(d));
}

// ---- SDF303: per-actor minimum-slice infeasibility ------------------------

void check_actor_slice(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.app == nullptr || in.platform == nullptr) return;
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  const Rational& lambda = app.throughput_constraint();
  if (lambda.is_zero()) return;
  const auto gamma = in.repetition_vector(app.sdf());
  if (!gamma) return;
  if (iteration_firings(*gamma) > kOverflowThreshold) return;
  for (const ActorId a : app.sdf().actor_ids()) {
    bool has_candidate = false;
    bool hostable = false;
    std::vector<DiagnosticNote> rejections;
    for (const TileId t : arch.tile_ids()) {
      const Tile& tile = arch.tile(t);
      const ActorRequirement* req = requirement_or_null(app, a, tile.proc_type);
      if (req == nullptr) continue;  // type not supported; SDF305 covers "none"
      has_candidate = true;
      if (req->memory > tile.memory) {
        rejections.push_back({"witness: tile '" + tile.name + "': actor memory " +
                                  std::to_string(req->memory) + " > tile memory " +
                                  std::to_string(tile.memory),
                              in.tile_span(t)});
        continue;
      }
      const std::int64_t firings = (*gamma)[a.value];
      if (req->execution_time > 0 && firings > 0 &&
          req->execution_time > kOverflowThreshold / firings) {
        hostable = true;  // accounting would overflow: no sound verdict, admit
        break;
      }
      const std::int64_t actor_work = firings * req->execution_time;
      if (actor_work == 0) {
        hostable = true;  // a zero-time actor needs no wheel share
        break;
      }
      const std::int64_t need = slice_lower_bound(actor_work, tile.wheel_size, lambda);
      if (need > tile.available_wheel()) {
        rejections.push_back(
            {"witness: tile '" + tile.name + "': minimum slice ceil(lambda*" +
                 std::to_string(actor_work) + "*" + std::to_string(tile.wheel_size) +
                 ") = " + std::to_string(need) + " > free wheel " +
                 std::to_string(tile.available_wheel()),
             in.tile_span(t)});
        continue;
      }
      hostable = true;
      break;
    }
    if (!has_candidate || hostable) continue;
    const std::string& name = app.sdf().actor(a).name;
    Diagnostic d;
    d.message = "actor '" + name + "' cannot be hosted by any tile: every tile of a"
                " supported processor type fails the minimum-slice or memory bound"
                " under the throughput constraint";
    d.span = in.actor_span(a);
    d.notes = std::move(rejections);
    d.fix_hint = "free wheel time, add a faster or larger tile, or relax the constraint";
    out.push_back(std::move(d));
  }
}

// ---- SDF304: total memory lower bound above platform memory ---------------

void check_memory_bound(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.app == nullptr || in.platform == nullptr) return;
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  const Graph& g = app.sdf();
  std::int64_t actor_bits = 0;
  for (const ActorId a : g.actor_ids()) {
    const std::int64_t best = best_case_memory(app, a);
    if (best > 0) actor_bits += best;  // unmappable actors are SDF305's finding
  }
  std::int64_t buffer_bits = 0;
  for (const ChannelId c : g.channel_ids()) {
    const Channel& ch = g.channel(c);
    if (ch.src == ch.dst) continue;  // self-loops are scheduling artifacts
    const EdgeRequirement& req = app.edge_requirement(c);
    if (req.token_size <= 0) continue;
    // Whatever the binding, the channel reserves its declared buffers either
    // intra-tile or split across the endpoint tiles; take the cheaper.
    const std::int64_t intra = req.alpha_tile * req.token_size;
    const std::int64_t split = (req.alpha_src + req.alpha_dst) * req.token_size;
    buffer_bits += std::min(intra, split);
  }
  std::int64_t platform_bits = 0;
  for (const Tile& tile : arch.tiles()) platform_bits += tile.memory;
  const std::int64_t total = actor_bits + buffer_bits;
  if (total <= platform_bits) return;
  Diagnostic d;
  d.message = "total memory lower bound of " + std::to_string(total) +
              " bits exceeds the platform's " + std::to_string(platform_bits) +
              " bits: no binding can reserve the required state and buffers";
  d.notes.push_back({"witness: sum(min mu(a)) = " + std::to_string(actor_bits) +
                         " + sum(min buffer bits) = " + std::to_string(buffer_bits) +
                         " = " + std::to_string(total) + " > sum(m(t)) = " +
                         std::to_string(platform_bits),
                     {}});
  d.fix_hint = "shrink buffer allocations, add memory, or add tiles";
  out.push_back(std::move(d));
}

// ---- SDF305: actor with no processor of a supported type ------------------

void check_unmappable_actor(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.app == nullptr || in.platform == nullptr) return;
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  for (const ActorId a : app.sdf().actor_ids()) {
    const std::string& name = app.sdf().actor(a).name;
    if (!app.is_mappable(a)) {
      Diagnostic d;
      d.message = "actor '" + name + "' supports no processor type at all: no binding"
                  " can place it";
      d.span = in.actor_span(a);
      d.notes.push_back({"witness: the requirement table row of '" + name + "' is empty",
                         {}});
      d.fix_hint = "add a requirement entry for '" + name + "'";
      out.push_back(std::move(d));
      continue;
    }
    bool tile_exists = false;
    std::set<std::string> supported;
    for (std::size_t pt = 0; pt < app.num_proc_types(); ++pt) {
      const ProcTypeId id{static_cast<std::uint32_t>(pt)};
      if (!app.requirement(a, id)) continue;
      if (pt < arch.num_proc_types()) supported.insert(arch.proc_type_name(id));
      for (const Tile& tile : arch.tiles()) {
        if (tile.proc_type == id) {
          tile_exists = true;
          break;
        }
      }
      if (tile_exists) break;
    }
    if (tile_exists) continue;
    std::string types;
    for (const std::string& t : supported) types += (types.empty() ? "" : ", ") + t;
    Diagnostic d;
    d.message = "no tile of a processor type supported by actor '" + name +
                "' exists in the platform";
    d.span = in.actor_span(a);
    d.notes.push_back({"witness: supported processor types {" + types +
                           "} intersect no tile's type",
                       {}});
    d.fix_hint = "add a tile of a supported type, or extend the requirement table";
    out.push_back(std::move(d));
  }
}

// ---- SDF306: channel that no binding can route ----------------------------

void check_unroutable_channel(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.app == nullptr || in.platform == nullptr) return;
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  const Graph& g = app.sdf();
  // Tiles that could host an actor at all: supported type and enough memory.
  const auto admissible = [&](ActorId a) {
    std::vector<TileId> tiles;
    for (const TileId t : arch.tile_ids()) {
      const Tile& tile = arch.tile(t);
      const ActorRequirement* req = requirement_or_null(app, a, tile.proc_type);
      if (req && req->memory <= tile.memory) tiles.push_back(t);
    }
    return tiles;
  };
  const auto tile_list = [&](const std::vector<TileId>& tiles) {
    std::string text;
    for (const TileId t : tiles) {
      text += (text.empty() ? "" : ", ") + arch.tile(t).name;
    }
    return text;
  };
  for (const ChannelId c : g.channel_ids()) {
    const Channel& ch = g.channel(c);
    if (ch.src == ch.dst) continue;
    const std::vector<TileId> src_tiles = admissible(ch.src);
    const std::vector<TileId> dst_tiles = admissible(ch.dst);
    if (src_tiles.empty() || dst_tiles.empty()) continue;  // SDF303/SDF305 own that
    bool routable = false;
    for (const TileId s : src_tiles) {
      for (const TileId d : dst_tiles) {
        if (s == d || arch.find_connection(s, d)) {
          routable = true;
          break;
        }
      }
      if (routable) break;
    }
    if (routable) continue;
    Diagnostic d;
    d.message = "channel '" + ch.name + "' cannot be carried under any binding: every"
                " admissible placement of '" + g.actor(ch.src).name + "' and '" +
                g.actor(ch.dst).name + "' crosses tiles with no connection";
    d.span = in.channel_span(c);
    d.notes.push_back({"witness: source tiles {" + tile_list(src_tiles) +
                           "}, destination tiles {" + tile_list(dst_tiles) +
                           "}: no shared tile and no connection between any pair",
                       {}});
    d.fix_hint = "add a connection between an admissible source and destination tile";
    out.push_back(std::move(d));
  }
}

// ---- SDF307: explicit mapping misses the throughput constraint ------------

void check_mapping_throughput(const LintInput& in, std::vector<Diagnostic>& out) {
  if (in.app == nullptr || in.platform == nullptr || in.binding == nullptr ||
      in.schedules == nullptr || in.slices == nullptr) {
    return;
  }
  const ApplicationGraph& app = *in.app;
  const Architecture& arch = *in.platform;
  const Rational& lambda = app.throughput_constraint();
  if (lambda.is_zero()) return;
  if (!deep_rule_admitted(in, "feasibility-mapping-misses-constraint", out)) return;
  try {
    const BindingAwareGraph bound =
        build_binding_aware_graph(app, arch, *in.binding, *in.slices);
    const auto gamma = compute_repetition_vector(bound.graph);
    if (!gamma) return;
    ConstrainedSpec spec;
    spec.actor_tile = bound.actor_tile;
    for (const TileId t : arch.tile_ids()) {
      TdmaTileSpec tile_spec;
      tile_spec.wheel_size = arch.tile(t).wheel_size;
      tile_spec.slice = t.value < in.slices->size() ? (*in.slices)[t.value] : 0;
      if (t.value < in.schedules->size()) tile_spec.schedule = (*in.schedules)[t.value];
      spec.tiles.push_back(std::move(tile_spec));
    }
    ExecutionLimits limits;
    if (in.budget) limits.budget = *in.budget;
    const ConstrainedResult result =
        cached_execute_constrained(in.cache, in.cache_stats, bound.graph, *gamma, spec,
                                   SchedulingMode::kStaticOrder, limits);
    const Rational achieved = result.base.throughput();
    if (!(achieved < lambda)) return;
    Diagnostic d;
    // The finding is about the mapping artifact, not the application file.
    if (in.mapping_spans && !in.mapping_spans->file.empty()) {
      d.file = in.mapping_spans->file;
    }
    if (result.base.deadlocked()) {
      d.message = "the mapped graph deadlocks under its schedules and slices: throughput"
                  " 0 is below the constraint " + lambda.to_string();
      d.notes.push_back({"witness: constrained execution reaches no periodic phase"
                         " (deadlock), so throughput = 0 < " + lambda.to_string(),
                         {}});
    } else {
      d.message = "the mapping's constrained throughput " + achieved.to_string() +
                  " is below the constraint " + lambda.to_string();
      d.notes.push_back({"witness: constrained iteration period " +
                             result.base.iteration_period.to_string() +
                             " gives throughput " + achieved.to_string() + " < " +
                             lambda.to_string(),
                         {}});
    }
    d.fix_hint = "enlarge the time slices, rebind actors, or relax the constraint";
    out.push_back(std::move(d));
  } catch (const std::invalid_argument&) {
    // Malformed binding/schedule/slice combinations are the SDF20x structural
    // rules' findings; this rule only judges analyzable mappings.
  } catch (const AnalysisError& e) {
    if (e.kind() == AnalysisErrorKind::kCancelled) throw;
    emit_degraded("feasibility-mapping-misses-constraint",
                  analysis_error_kind_name(e.kind()), out);
  } catch (const ThroughputError&) {
    emit_degraded("feasibility-mapping-misses-constraint", "analysis-limit", out);
  }
}

}  // namespace

void append_feasibility_rules(std::vector<Rule>& rules) {
  const auto add = [&rules](const char* code, const char* name, const char* summary,
                            const char* detail, auto check) {
    Rule rule{code, name, summary, Severity::kError, RulePack::kFeasibility,
              [check](const LintInput& in, std::vector<Diagnostic>& out) {
                check(in, out);
              },
              detail};
    rules.push_back(std::move(rule));
  };
  add("SDF301", "feasibility-constraint-above-bound",
      "the throughput constraint exceeds the graph's structural upper bound (best-case MCR)",
      "Deep rule: converts the best-case relaxation (every actor at its minimum execution"
      " time, auto-concurrency 1) to an HSDFG and computes the maximum cycle ratio. The"
      " inverse ratio is a true throughput upper bound over every allocation, so a"
      " constraint above it is provably unsatisfiable. Witness: the bounding cycle ratio"
      " and the critical cycle. Degrades to an advisory note on budget exhaustion.",
      check_structural_bound);
  add("SDF302", "feasibility-capacity-exceeded",
      "aggregate best-case compute demand exceeds the platform's free wheel capacity",
      "The constraint needs lambda * sum(gamma(a)*tau_min(a)) processors' worth of wheel"
      " time; the platform offers at most sum(free_wheel/wheel) across its tiles. Demand"
      " above capacity is provably unmappable (the exact solver's root capacity bound)."
      " Witness: both rationals.",
      check_aggregate_capacity);
  add("SDF303", "feasibility-actor-slice-infeasible",
      "an actor's minimum TDMA slice or memory exceeds every supported tile's resources",
      "Reuses the exact solver's per-tile slice lower bound ceil(lambda*work*wheel): when"
      " every tile of a supported processor type rejects the actor on the slice or memory"
      " bound alone, no binding hosts it. Witness: one note per rejected tile.",
      check_actor_slice);
  add("SDF304", "feasibility-memory-exceeded",
      "the total memory lower bound (actor state + declared buffers) exceeds platform memory",
      "Sums the per-actor minimum memory over supported types and each channel's cheaper"
      " buffer reservation (intra-tile vs split); a total above the summed tile memories"
      " is unmappable under any binding. Witness: the three totals.",
      check_memory_bound);
  add("SDF305", "feasibility-actor-unmappable",
      "an actor supports no processor type, or no tile of a supported type exists",
      "An empty requirement-table row, or a supported-type set that intersects no tile's"
      " processor type, leaves no legal placement for the actor under any binding."
      " Witness: the supported-type set.",
      check_unmappable_actor);
  add("SDF306", "feasibility-channel-unroutable",
      "no admissible placement of a channel's endpoints is co-located or connected",
      "Computes each endpoint's admissible tiles (supported type, memory fit); when the"
      " sets share no tile and no platform connection links any source/destination pair,"
      " the channel cannot be carried under any binding. Witness: both tile sets.",
      check_unroutable_channel);
  add("SDF307", "feasibility-mapping-misses-constraint",
      "the explicit mapping's constrained throughput is below the throughput constraint",
      "Deep rule: builds the binding-aware graph for the given binding, schedules and"
      " slices and runs the exact constrained state-space engine (through the shared"
      " throughput cache). The analysis is exact for the mapping, so a throughput below"
      " the constraint is a proven violation. Witness: the achieved iteration period."
      " Degrades to an advisory note on budget exhaustion.",
      check_mapping_throughput);
}

}  // namespace lint_detail
}  // namespace sdfmap

#include "src/lint/lint.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "src/runtime/parallel.h"

namespace sdfmap {

namespace {

bool pack_enabled(const LintOptions& options, RulePack pack) {
  switch (pack) {
    case RulePack::kGraph: return options.graph_pack;
    case RulePack::kPlatform: return options.platform_pack;
    case RulePack::kMapping: return options.mapping_pack;
    case RulePack::kFeasibility: return options.feasibility_pack;
  }
  return false;
}

/// The artifact a pack's diagnostics refer to by default; individual
/// diagnostics keep a file they already set.
std::string pack_file(const LintInput& input, RulePack pack) {
  switch (pack) {
    case RulePack::kGraph: return input.graph_file();
    case RulePack::kPlatform: return input.platform_file();
    case RulePack::kMapping:
      if (input.mapping_spans && !input.mapping_spans->file.empty()) {
        return input.mapping_spans->file;
      }
      return input.graph_file();
    case RulePack::kFeasibility:
      // Feasibility findings argue about the application under its
      // constraint; rules that point at platform entities set the file
      // themselves.
      return input.graph_file();
  }
  return {};
}

}  // namespace

bool LintResult::has_code(std::string_view code) const {
  return find_code(code) != nullptr;
}

const Diagnostic* LintResult::find_code(std::string_view code) const {
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

LintResult run_lint(const LintInput& input, const LintOptions& options) {
  // Normalize: the graph pack runs on the application's SDFG when no bare
  // graph was given, and the deep-rule budget/cache come from the options
  // unless the caller wired them into the input directly.
  LintInput in = input;
  if (in.graph == nullptr && in.app != nullptr) in.graph = &in.app->sdf();
  if (in.budget == nullptr) in.budget = &options.deep_budget;
  if (in.cache == nullptr) in.cache = options.cache;
  if (in.cache_stats == nullptr) in.cache_stats = options.cache_stats;
  // Several graph and feasibility rules need γ of the graph: compute it once.
  // Always here, never taken from the caller, so it cannot disagree with
  // *in.graph.
  std::optional<RepetitionVector> gamma;
  in.graph_gamma = nullptr;
  if (in.graph != nullptr) {
    try {
      gamma = compute_repetition_vector(*in.graph);
      in.graph_gamma = &gamma;
    } catch (const std::exception&) {
      // Rational overflow: left unset, so each rule that needs γ recomputes
      // it and throws as it would alone.
    }
  }

  std::vector<const Rule*> active;
  for (const Rule& rule : lint_rules()) {
    if (rule.check && pack_enabled(options, rule.pack)) active.push_back(&rule);
  }
  for (const Rule& rule : options.extra_rules) {
    if (rule.check) active.push_back(&rule);
  }

  // One task per rule; parallel_transform reduces in registry order, so the
  // concatenation below never depends on scheduling.
  const std::vector<std::vector<Diagnostic>> per_rule = parallel_transform(
      active, [&in](const Rule* rule, std::size_t) {
        std::vector<Diagnostic> found;
        rule->check(in, found);
        for (Diagnostic& d : found) {
          d.code = rule->code;
          // Budget-degraded advisories pin kInfo; everything else gets the
          // rule's default severity.
          if (!d.severity_pinned) d.severity = rule->severity;
          if (d.file.empty()) d.file = pack_file(in, rule->pack);
        }
        return found;
      });

  LintResult result;
  for (const auto& found : per_rule) {
    result.diagnostics.insert(result.diagnostics.end(), found.begin(), found.end());
  }
  result.diagnostics.erase(
      std::remove_if(result.diagnostics.begin(), result.diagnostics.end(),
                     [&options](const Diagnostic& d) {
                       return d.severity < options.min_severity;
                     }),
      result.diagnostics.end());
  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   diagnostic_order_less);
  return result;
}

LintResult lint_graph(const Graph& g, const GraphProvenance* prov) {
  LintInput in;
  in.graph = &g;
  in.graph_provenance = prov;
  LintOptions options;
  options.platform_pack = false;
  options.mapping_pack = false;
  return run_lint(in, options);
}

LintResult lint_platform(const Architecture& arch, const ArchitectureProvenance* prov) {
  LintInput in;
  in.platform = &arch;
  in.platform_provenance = prov;
  LintOptions options;
  options.graph_pack = false;
  options.mapping_pack = false;
  return run_lint(in, options);
}

}  // namespace sdfmap

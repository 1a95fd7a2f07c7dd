// Engine-level behavior: deterministic ordering at any --jobs level,
// severity filtering, custom rules, and the text rendering contract.

#include <gtest/gtest.h>

#include "src/lint/driver.h"
#include "src/lint/lint.h"
#include "src/runtime/task_pool.h"

#ifndef SDFMAP_LINT_CORPUS_DIR
#error "SDFMAP_LINT_CORPUS_DIR must point at tests/lint/corpus"
#endif

namespace sdfmap {
namespace {

const std::string kCorpus = std::string(SDFMAP_LINT_CORPUS_DIR) + "/";

Graph messy_graph() {
  Graph g;
  const ActorId a = g.add_actor("a", 1);
  const ActorId b = g.add_actor("b", 1);
  g.add_actor("lone", 1);
  g.add_actor("lone", 1);
  g.add_channel(a, b, 1, 1, 0, "d");
  g.add_channel(b, a, 1, 1, 0, "d");
  g.add_channel(a, a, 1, 1, 0, "loop");
  return g;
}

TEST(LintEngineTest, OutputIsIdenticalForEveryJobsLevel) {
  const unsigned restore = TaskPool::global_jobs();
  std::vector<std::string> renders;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    TaskPool::set_global_jobs(jobs);
    const LintResult file = lint_file(kCorpus + "bad.sdfmapping");
    const LintResult graph = lint_graph(messy_graph());
    renders.push_back(render_diagnostics_text(file.diagnostics) + "---\n" +
                      render_diagnostics_text(graph.diagnostics));
  }
  TaskPool::set_global_jobs(restore);
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_EQ(renders[0], renders[2]);
  EXPECT_NE(renders[0].find("SDF203"), std::string::npos);
}

TEST(LintEngineTest, DiagnosticsAreSortedByFileSpanAndCode) {
  const LintResult r = lint_graph(messy_graph());
  ASSERT_GE(r.diagnostics.size(), 3u);
  for (std::size_t i = 1; i < r.diagnostics.size(); ++i) {
    EXPECT_FALSE(diagnostic_order_less(r.diagnostics[i], r.diagnostics[i - 1]))
        << "diagnostic " << i << " sorts before its predecessor";
  }
}

TEST(LintEngineTest, MinSeverityDropsLowerFindings) {
  Graph g;
  const ActorId a = g.add_actor("src", 1);
  const ActorId b = g.add_actor("snk", 1);
  g.add_channel(a, b, 1, 1, 0, "d");  // SDF003 warning only
  LintInput in;
  in.graph = &g;
  LintOptions options;
  options.min_severity = Severity::kError;
  EXPECT_TRUE(run_lint(in, options).clean());
  options.min_severity = Severity::kWarning;
  EXPECT_FALSE(run_lint(in, options).clean());
}

TEST(LintEngineTest, ExtraRulesRunAfterTheRegistry) {
  Graph g;
  g.add_actor("a", 1);
  g.add_channel(ActorId{0}, ActorId{0}, 1, 1, 1, "loop");
  LintInput in;
  in.graph = &g;
  LintOptions options;
  Rule custom;
  custom.code = "XSD900";
  custom.name = "custom-actor-count";
  custom.severity = Severity::kInfo;
  custom.check = [](const LintInput& input, std::vector<Diagnostic>& out) {
    Diagnostic d;
    d.message = std::to_string(input.graph->num_actors()) + " actor(s)";
    out.push_back(std::move(d));
  };
  options.extra_rules.push_back(custom);
  const LintResult r = run_lint(in, options);
  const Diagnostic* d = r.find_code("XSD900");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kInfo);
  EXPECT_EQ(d->message, "1 actor(s)");
}

TEST(LintEngineTest, RunLintComputesGammaItself) {
  // A consistent, live cycle: a caller-set γ that says "inconsistent" must
  // not reach the rules.
  Graph g;
  const ActorId a = g.add_actor("a", 1);
  const ActorId b = g.add_actor("b", 1);
  g.add_channel(a, b, 1, 1, 1, "d1");
  g.add_channel(b, a, 1, 1, 0, "d2");
  const std::optional<RepetitionVector> wrong;
  LintInput in;
  in.graph = &g;
  in.graph_gamma = &wrong;
  const LintResult r = run_lint(in, LintOptions{});
  EXPECT_FALSE(r.has_code("SDF001"));
  EXPECT_TRUE(r.clean()) << render_diagnostics_text(r.diagnostics);
}

TEST(LintEngineTest, RenderingShowsLocationSeverityAndNotes) {
  Diagnostic d;
  d.code = "SDF006";
  d.severity = Severity::kError;
  d.message = "self-loop on 'a' has no initial tokens";
  d.file = "graph.sdf";
  d.span = {4, 9, 4};
  d.notes.push_back({"a self-loop without tokens can never fire", {}});
  d.fix_hint = "give channel 'd2' at least 1 initial token";
  const std::string text = render_diagnostics_text({d});
  EXPECT_NE(text.find("graph.sdf:4:9: error: SDF006: self-loop"), std::string::npos);
  EXPECT_NE(text.find("note: a self-loop"), std::string::npos);
  EXPECT_NE(text.find("fix-it: give channel"), std::string::npos);
  // No file/span: the location prefix disappears entirely.
  d.file.clear();
  d.span = {};
  EXPECT_EQ(render_diagnostics_text({d}).find("error: SDF006"), 0u);
}

TEST(LintEngineTest, SeverityHelpers) {
  std::vector<Diagnostic> ds(3);
  ds[0].severity = Severity::kInfo;
  ds[1].severity = Severity::kWarning;
  ds[2].severity = Severity::kWarning;
  EXPECT_EQ(max_severity(ds), Severity::kWarning);
  EXPECT_EQ(max_severity({}), Severity::kInfo);
  EXPECT_EQ(count_severity(ds, Severity::kWarning), 2u);
  EXPECT_EQ(count_severity(ds, Severity::kError), 0u);
}

TEST(LintEngineTest, DriverRejectsUnknownExtensionsAndMissingFiles) {
  EXPECT_TRUE(lintable_extension("x/y/model.sdf"));
  EXPECT_TRUE(lintable_extension("m.sdfmapping"));
  EXPECT_FALSE(lintable_extension("notes.txt"));
  EXPECT_FALSE(lintable_extension("no_extension"));
  EXPECT_THROW((void)lint_file("model.xml"), std::invalid_argument);
  EXPECT_THROW((void)lint_file(kCorpus + "does_not_exist.sdf"), std::invalid_argument);
}

}  // namespace
}  // namespace sdfmap

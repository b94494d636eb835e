#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baseline.hpp"
#include "callgraph.hpp"
#include "cfg.hpp"
#include "dataflow.hpp"
#include "symbols.hpp"

namespace quicsteps::analyze {

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool family_enabled(const Options& options, const std::string& family) {
  if (options.rule_families.empty()) return true;
  for (const auto& f : options.rule_families) {
    if (f == family) return true;
  }
  return false;
}

}  // namespace

AnalysisResult run_analysis(const Options& options) {
  AnalysisResult result;
  const std::string root =
      options.root.empty() ? std::string(".") : options.root;
  const std::string include_base =
      options.include_base.empty() ? root + "/src" : options.include_base;
  std::vector<std::string> paths = options.paths;
  if (paths.empty()) {
    paths.push_back(root + "/src");
    // Self-hosting: the analyzer's own sources are part of the default
    // scan (fixture trees under testdata/ are skipped by build_model),
    // and so are the bench drivers and examples — they exercise the same
    // APIs the protocols and lifetime rules guard.
    for (const char* extra : {"/tools/analyze", "/bench", "/examples"}) {
      const std::string dir = root + extra;
      if (std::filesystem::exists(dir)) paths.push_back(dir);
    }
  }

  for (const auto& fam : options.rule_families) {
    const auto& rules = all_rules();
    if (std::none_of(rules.begin(), rules.end(), [&](const RuleInfo& r) {
          return rule_family(r.id) == fam;
        })) {
      result.error = "unknown rule family '" + fam + "'";
      return result;
    }
  }

  Model model;
  if (!build_model(paths, root, include_base, &model, &result.error)) {
    return result;
  }
  result.files_scanned = model.files.size();

  // The manifest feeds three families: layering (the DAG), lifetime (the
  // generation-checked containers) and protocol (the typestate machines).
  // "-" skips all three — fixture trees without a real layer stack opt out
  // of manifest-driven rules entirely.
  const auto needs_manifest = [](const std::string& family) {
    return family == "layering" || family == "lifetime" ||
           family == "protocol";
  };
  LayerManifest manifest;
  bool have_manifest = false;
  if (family_enabled(options, "layering") ||
      family_enabled(options, "lifetime") ||
      family_enabled(options, "protocol")) {
    std::string layers_path = options.layers_file.empty()
                                  ? root + "/tools/analyze/layers.json"
                                  : options.layers_file;
    if (layers_path != "-") {
      std::string manifest_text;
      if (!read_file(layers_path, &manifest_text)) {
        result.error = "cannot read layer manifest " + layers_path;
        return result;
      }
      if (!load_layer_manifest(manifest_text, &manifest, &result.error)) {
        return result;
      }
      have_manifest = true;
    }
  }
  const auto runs = [&](const std::string& family) {
    return family_enabled(options, family) &&
           (have_manifest || !needs_manifest(family));
  };

  std::vector<Finding> findings;
  if (runs("layering")) run_layering_rules(model, manifest, &findings);

  // The semantic families share one model: symbol index, call graph,
  // dataflow skeleton. The flow-sensitive families (lifetime, interval
  // units, typestate) additionally need per-callable CFGs.
  SymbolIndex index;
  CallGraph graph;
  Dataflow flow;
  CfgIndex cfgs;
  SemanticModel sem;
  const bool want_flow = runs("lifetime") || runs("protocol") || runs("units");
  if (runs("determinism") || want_flow) {
    index = build_symbol_index(model);
    graph = build_call_graph(model, index);
    flow = build_dataflow(model, index);
    sem = {&index, &graph, &flow};
    if (want_flow) {
      cfgs = build_cfg_index(model, index);
      sem.cfgs = &cfgs;
    }
  }
  if (runs("units")) {
    run_units_rules(model, &findings);
    run_interval_rules(model, sem, &findings);
  }
  if (runs("lifetime")) run_lifetime_rules(model, manifest, sem, &findings);
  if (runs("protocol")) run_typestate_rules(model, manifest, sem, &findings);
  if (runs("determinism")) {
    run_determinism_rules(model, &findings);
    run_taint_rules(model, sem, &findings);
  }
  if (runs("scheduling")) run_scheduling_rules(model, &findings);

  // Only the waivers of families that ran can be judged stale: a
  // `--rules units` run says nothing about a determinism waiver.
  std::vector<std::string> ran;
  for (const auto& rule : all_rules()) {
    const std::string family = rule_family(rule.id);
    if (family_enabled(options, family)) ++result.rules_run;
    if (runs(family) &&
        std::find(ran.begin(), ran.end(), family) == ran.end()) {
      ran.push_back(family);
    }
  }

  Baseline baseline;
  std::vector<std::string> baseline_files = options.baseline_files;
  if (baseline_files.empty()) {
    const std::string default_baseline = root + "/tools/analyze/baseline.txt";
    if (std::filesystem::exists(default_baseline)) {
      baseline_files.push_back(default_baseline);
    }
  }
  for (const auto& path : baseline_files) {
    std::string content;
    if (!read_file(path, &content)) {
      result.error = "cannot read baseline " + path;
      return result;
    }
    if (!baseline.load(content, path, &result.error)) return result;
  }

  for (auto& f : findings) {
    f.baselined = baseline.matches(f);
    if (f.baselined) {
      ++result.baselined_count;
    } else {
      ++result.active_count;
    }
  }
  result.unused_baseline_entries = baseline.unused(&ran);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule_id < b.rule_id;
            });
  result.findings = std::move(findings);
  return result;
}

}  // namespace quicsteps::analyze

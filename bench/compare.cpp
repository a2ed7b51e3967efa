#include "compare.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace hecmine::bench {

namespace {

using support::json::Value;

/// Per-run timing metric: p50 when both files carry it (schema v1), else
/// the best-of-repeat wall_ms so pre-schema baselines stay comparable.
double timing_of(const Value& run, bool use_p50) {
  if (use_p50 && run.contains("wall_ms_p50"))
    return run.at("wall_ms_p50").as_number();
  return run.at("wall_ms").as_number();
}

std::string config_fingerprint(const Value& doc) {
  const Value* config = doc.find("config");
  if (config == nullptr || !config->is_object()) return {};
  std::ostringstream out;
  for (const auto& [key, value] : config->as_object()) {
    out << key << '=';
    if (value.is_number())
      out << value.as_number();
    else if (value.is_string())
      out << value.as_string();
    else if (value.is_bool())
      out << (value.as_bool() ? "true" : "false");
    out << ';';
  }
  return out.str();
}

/// Non-fatal provenance comparison: warns when the two ledgers were
/// produced by visibly different builds (hecmine.manifest.v1 fields).
void compare_manifests(const Value& baseline, const Value& current,
                       std::vector<std::string>& warnings) {
  const Value* base = baseline.find("manifest");
  const Value* cur = current.find("manifest");
  if (base == nullptr || cur == nullptr || !base->is_object() ||
      !cur->is_object()) {
    // Pre-manifest ledgers: nothing to compare.
    return;
  }
  // "isa" is "generic" for every current build; older ledgers may carry
  // an -march=native string, a vectorization mismatch, not a regression.
  for (const char* key :
       {"git_sha", "build_type", "sanitizer", "compiler", "isa"}) {
    const Value* base_field = base->find(key);
    const Value* cur_field = cur->find(key);
    if (base_field == nullptr || cur_field == nullptr ||
        !base_field->is_string() || !cur_field->is_string())
      continue;
    if (base_field->as_string() != cur_field->as_string()) {
      warnings.push_back(std::string("manifest.") + key +
                         " differs: baseline \"" + base_field->as_string() +
                         "\" vs current \"" + cur_field->as_string() + "\"");
    }
  }
}

}  // namespace

CompareResult compare_bench_json(const Value& baseline, const Value& current,
                                 const CompareOptions& options) {
  CompareResult result;
  for (const Value* doc : {&baseline, &current}) {
    if (!doc->is_object() || !doc->contains("runs") ||
        !doc->at("runs").is_array()) {
      result.error = "not a bench ledger document (missing \"runs\" array)";
      return result;
    }
    const Value* schema = doc->find("schema");
    if (schema != nullptr && schema->as_string() != "hecmine.bench.v1") {
      result.error = "unsupported schema: " + schema->as_string();
      return result;
    }
  }
  if (options.check_config) {
    const std::string base_cfg = config_fingerprint(baseline);
    const std::string cur_cfg = config_fingerprint(current);
    // Pre-schema files carry no config; only reject a *mismatch*.
    if (!base_cfg.empty() && !cur_cfg.empty() && base_cfg != cur_cfg) {
      result.error = "config mismatch: baseline {" + base_cfg +
                     "} vs current {" + cur_cfg + "}";
      return result;
    }
  }

  compare_manifests(baseline, current, result.warnings);

  const bool use_p50 = [&] {
    for (const Value* doc : {&baseline, &current})
      for (const Value& run : doc->at("runs").as_array())
        if (!run.contains("wall_ms_p50")) return false;
    return true;
  }();

  bool ok = true;
  for (const Value& base_run : baseline.at("runs").as_array()) {
    const std::string& label = base_run.at("label").as_string();
    MetricDelta delta;
    delta.label = label;
    const Value* cur_run = nullptr;
    for (const Value& candidate : current.at("runs").as_array()) {
      if (candidate.at("label").as_string() == label) {
        cur_run = &candidate;
        break;
      }
    }
    if (cur_run == nullptr) {
      delta.skipped = true;
      delta.note = "missing in current";
      result.deltas.push_back(std::move(delta));
      continue;
    }
    // Convergence regression is a warning, not a gate failure: timing noise
    // never flips this bit, so a true→false transition always means the
    // workload's equilibrium path changed and deserves eyeballs.
    const Value* base_conv = base_run.find("converged");
    const Value* cur_conv = cur_run->find("converged");
    if (base_conv != nullptr && cur_conv != nullptr && base_conv->is_bool() &&
        cur_conv->is_bool() && base_conv->as_bool() && !cur_conv->as_bool()) {
      result.warnings.push_back(label +
                                " regressed from converged to non-converged");
    }
    delta.baseline = timing_of(base_run, use_p50);
    delta.current = timing_of(*cur_run, use_p50);
    delta.ratio = delta.baseline > 0.0 ? delta.current / delta.baseline : 0.0;
    if (delta.baseline < options.min_ms && delta.current < options.min_ms) {
      delta.skipped = true;
      delta.note = "below noise floor";
    } else if (delta.current >
               delta.baseline * (1.0 + options.max_regression)) {
      delta.regressed = true;
      std::ostringstream note;
      note << "slower by " << std::fixed << std::setprecision(1)
           << 100.0 * (delta.ratio - 1.0) << "% (limit "
           << 100.0 * options.max_regression << "%)";
      delta.note = note.str();
      ok = false;
    }
    result.deltas.push_back(std::move(delta));
  }

  if (options.check_audit) {
    const Value* base_audit = baseline.find("audit");
    const Value* cur_audit = current.find("audit");
    if (base_audit != nullptr && cur_audit != nullptr) {
      // Absolute-slack checks: these metrics sit at ~0 at a healthy
      // equilibrium, so ratios are meaningless — flag material absolute
      // growth instead.
      constexpr double kAuditSlack = 1e-6;
      for (const char* key : {"best_response_gap", "capacity_violation"}) {
        MetricDelta delta;
        delta.label = std::string("audit.") + key;
        delta.baseline = base_audit->number_or(key, 0.0);
        delta.current = cur_audit->number_or(key, 0.0);
        delta.ratio = delta.current - delta.baseline;  // absolute gap
        if (delta.current > delta.baseline + kAuditSlack) {
          delta.regressed = true;
          delta.note = "equilibrium quality degraded";
          ok = false;
        }
        result.deltas.push_back(std::move(delta));
      }
    }
  }

  if (options.check_counters) {
    const Value* base_counters = baseline.find("counters");
    const Value* cur_counters = current.find("counters");
    // Pre-counter ledgers (either side) skip the whole check so committed
    // baselines stay usable until refreshed.
    if (base_counters != nullptr && cur_counters != nullptr &&
        base_counters->is_object() && cur_counters->is_object()) {
      for (const auto& [label, base_fields] : base_counters->as_object()) {
        if (!base_fields.is_object()) continue;
        const Value* cur_fields = cur_counters->find(label);
        if (cur_fields == nullptr || !cur_fields->is_object()) {
          MetricDelta delta;
          delta.label = "counters." + label;
          delta.skipped = true;
          delta.note = "missing in current";
          result.deltas.push_back(std::move(delta));
          continue;
        }
        for (const auto& [field, base_value] : base_fields.as_object()) {
          if (!base_value.is_number()) continue;
          const Value* cur_value = cur_fields->find(field);
          if (cur_value == nullptr || !cur_value->is_number()) continue;
          MetricDelta delta;
          delta.label = "counters." + label + "." + field;
          delta.baseline = base_value.as_number();
          delta.current = cur_value->as_number();
          delta.ratio =
              delta.baseline > 0.0 ? delta.current / delta.baseline : 0.0;
          if (delta.baseline == 0.0) {
            // Work appearing where the baseline had none usually means new
            // instrumentation, not a regression; surface without gating.
            if (delta.current > 0.0) {
              delta.skipped = true;
              delta.note = "new work metric (baseline 0)";
            }
          } else if (delta.current >
                     delta.baseline * (1.0 + options.max_work_regression)) {
            delta.regressed = true;
            std::ostringstream note;
            note << "more work by " << std::fixed << std::setprecision(1)
                 << 100.0 * (delta.ratio - 1.0) << "% (limit "
                 << 100.0 * options.max_work_regression << "%)";
            delta.note = note.str();
            ok = false;
          }
          result.deltas.push_back(std::move(delta));
        }
      }
    }
  }

  if (options.strict && !result.warnings.empty()) {
    ok = false;
    result.strict_failed = true;
  }
  result.ok = ok;
  return result;
}

CompareResult compare_bench_files(const std::string& baseline_path,
                                  const std::string& current_path,
                                  const CompareOptions& options) {
  CompareResult result;
  try {
    const Value baseline = support::json::parse_file(baseline_path);
    const Value current = support::json::parse_file(current_path);
    return compare_bench_json(baseline, current, options);
  } catch (const std::exception& error) {
    result.error = error.what();
    return result;
  }
}

void print_compare(std::ostream& os, const CompareResult& result) {
  if (!result.error.empty()) {
    os << "bench_compare: error: " << result.error << "\n";
    return;
  }
  for (const std::string& warning : result.warnings)
    os << "warn " << warning << "\n";
  for (const MetricDelta& delta : result.deltas) {
    os << (delta.regressed ? "FAIL " : delta.skipped ? "skip " : "ok   ")
       << delta.label << ": " << delta.baseline << " -> " << delta.current;
    if (!delta.skipped && delta.ratio > 0.0 &&
        delta.label.rfind("audit.", 0) != 0)
      os << " (x" << delta.ratio << ")";
    if (!delta.note.empty()) os << "  [" << delta.note << "]";
    os << "\n";
  }
  if (result.ok) {
    os << "bench_compare: OK — no regression beyond tolerance\n";
  } else if (result.strict_failed) {
    os << "bench_compare: FAILED (strict: warnings are fatal)\n";
  } else {
    os << "bench_compare: REGRESSION detected\n";
  }
}

}  // namespace hecmine::bench

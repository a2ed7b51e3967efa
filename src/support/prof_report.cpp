#include "support/prof_report.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace hecmine::support::prof {

namespace {

/// One reconstructed span from an "X" trace event.
struct TraceSpan {
  std::string name;
  int id = -1;
  int parent = -1;
  double duration_ms = 0.0;
  WorkCounters work;
};

WorkCounters parse_work(const json::Value& args) {
  WorkCounters work;
  const json::Value* object = args.find("work");
  if (object == nullptr || !object->is_object()) return work;
  for (std::size_t i = 0; i < kWorkFieldCount; ++i) {
    const auto field = static_cast<WorkField>(i);
    work[field] = static_cast<std::uint64_t>(
        object->number_or(work_field_name(field), 0.0));
  }
  return work;
}

}  // namespace

Report build_report(const json::Value& trace) {
  HECMINE_REQUIRE(trace.is_object() && trace.contains("traceEvents") &&
                      trace.at("traceEvents").is_array(),
                  "not a trace document (missing traceEvents array)");
  std::vector<TraceSpan> spans;
  for (const json::Value& event : trace.at("traceEvents").as_array()) {
    if (!event.is_object()) continue;
    const json::Value* phase = event.find("ph");
    if (phase == nullptr || !phase->is_string() || phase->as_string() != "X")
      continue;
    // Only pid 1 carries wall-clock spans; the pid 2 campaign track is
    // stamped in simulated time and would swamp the table.
    if (event.number_or("pid", 1.0) != 1.0) continue;
    TraceSpan span;
    span.name = event.at("name").as_string();
    span.duration_ms = event.number_or("dur", 0.0) * 1e-3;
    const json::Value* args = event.find("args");
    if (args != nullptr && args->is_object()) {
      span.id = static_cast<int>(args->number_or("id", -1.0));
      span.parent = static_cast<int>(args->number_or("parent", -1.0));
      span.work = parse_work(*args);
    }
    spans.push_back(std::move(span));
  }

  // Exclusive cost: subtract every span's inclusive cost from its direct
  // parent. Span ids index the recording trace's span vector, so resolve
  // parents through an id map (dropped spans leave holes).
  std::map<int, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].id >= 0) by_id.emplace(spans[i].id, i);
  std::vector<double> exclusive_ms(spans.size());
  std::vector<WorkCounters> exclusive_work(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    exclusive_ms[i] = spans[i].duration_ms;
    exclusive_work[i] = spans[i].work;
  }
  for (const TraceSpan& span : spans) {
    if (span.parent < 0) continue;
    const auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) continue;
    const std::size_t p = parent->second;
    exclusive_ms[p] -= span.duration_ms;
    // Same-thread nested intervals of monotone counters cannot exceed the
    // parent's delta; guard anyway so a hand-edited trace cannot wrap.
    for (std::size_t f = 0; f < kWorkFieldCount; ++f) {
      const std::uint64_t child = span.work.values[f];
      std::uint64_t& slot = exclusive_work[p].values[f];
      slot -= std::min(slot, child);
    }
  }

  Report report;
  // The trace is outside input: only a plausible count converts.
  const double dropped = trace.number_or("dropped", 0.0);
  if (dropped >= 1.0 && dropped < 1e18)
    report.dropped = static_cast<std::uint64_t>(dropped);
  std::map<std::string, ReportRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    ReportRow& row = rows[span.name];
    row.name = span.name;
    row.spans += 1;
    row.inclusive_ms += span.duration_ms;
    row.exclusive_ms += std::max(0.0, exclusive_ms[i]);
    row.inclusive_work += span.work;
    row.exclusive_work += exclusive_work[i];
    report.spans += 1;
    report.total_work += exclusive_work[i];
    if (span.parent < 0) report.total_ms += span.duration_ms;
  }
  report.rows.reserve(rows.size());
  for (auto& [name, row] : rows) report.rows.push_back(std::move(row));
  std::sort(report.rows.begin(), report.rows.end(),
            [](const ReportRow& a, const ReportRow& b) {
              if (a.exclusive_ms != b.exclusive_ms)
                return a.exclusive_ms > b.exclusive_ms;
              return a.name < b.name;
            });
  return report;
}

void print_report(std::ostream& os, const Report& report) {
  print_section(os,
                "hecmine_report prof: hot path (exclusive self-cost per span "
                "name)");
  Table table("span", {"spans", "incl_ms", "excl_ms", "excl_%", "evals",
                       "evals/s", "evals/span"});
  const double total_excl = [&] {
    double sum = 0.0;
    for (const ReportRow& row : report.rows) sum += row.exclusive_ms;
    return sum;
  }();
  for (const ReportRow& row : report.rows) {
    table.add_row(row.name,
                  {static_cast<double>(row.spans), row.inclusive_ms,
                   row.exclusive_ms,
                   total_excl > 0.0 ? 100.0 * row.exclusive_ms / total_excl : 0.0,
                   static_cast<double>(row.exclusive_work.evals()),
                   row.evals_per_sec(), row.evals_per_span()});
  }
  table.print(os, 2);
  os << "spans: " << report.spans << "  wall (roots): " << report.total_ms
     << " ms\n";
  if (report.dropped > 0)
    os << "warning: " << report.dropped
       << " spans were dropped at the trace's capacity; this table covers "
          "only part of the run\n";
  os << "total work:";
  bool any = false;
  for (std::size_t i = 0; i < kWorkFieldCount; ++i) {
    const auto field = static_cast<WorkField>(i);
    if (report.total_work[field] == 0) continue;
    os << " " << work_field_name(field) << "=" << report.total_work[field];
    any = true;
  }
  if (!any) os << " (none recorded)";
  os << "\n";
}

}  // namespace hecmine::support::prof

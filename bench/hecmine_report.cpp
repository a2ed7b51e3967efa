// hecmine_report: the reader of a run bundle (support::RunDir) and of each
// file in it. Usage:
//
//   hecmine_report DIR [--fail-on-drift] [--drift-z=Z]
//   hecmine_report prof TRACE.json [MORE.json ...]
//   hecmine_report campaign BLOCKLOG.jsonl [--json=F] [--fail-on-drift]
//       [--drift-z=Z]
//
// prof folds a hecmine.trace.v1 timeline into the hot-path table. campaign
// replays a hecmine.blocklog.v1 stream through net::CampaignMonitor and
// judges drift with the monitor's own rule (net::drift_test). DIR, a
// directory whose flight.jsonl opens with its hecmine.flight.v1 header,
// runs every report whose input file is in the bundle.
//
// Exit codes: 0 clean (an empty input file reports "nothing to report");
// 2 unreadable or malformed input, a usage error, or, in bundle mode, a
// directory that is no bundle or a gate whose input file the bundle lacks;
// 3 a gate tripped. Bundle mode
// exits with the largest code of its reports. `--help` prints usage and
// exits 0.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chain/blocklog.hpp"
#include "core/types.hpp"
#include "net/campaign_monitor.hpp"
#include "support/cli.hpp"
#include "support/health.hpp"
#include "support/json.hpp"
#include "support/prof_report.hpp"
#include "support/provenance.hpp"
#include "support/run_dir.hpp"
#include "support/table.hpp"

namespace {

using namespace hecmine;
namespace json = support::json;
namespace health = support::health;
using support::RunDir;

void print_usage(std::ostream& os) {
  os << "usage: hecmine_report DIR [--fail-on-drift] [--drift-z=Z]\n"
        "       hecmine_report prof TRACE.json [MORE.json ...]\n"
        "       hecmine_report campaign BLOCKLOG.jsonl [--json=F] "
        "[--fail-on-drift] [--drift-z=Z]\n"
        "  DIR       a --run-dir bundle (a flight.jsonl with its header):\n"
        "            runs every report below whose input file is in it\n"
        "            (trace.json, blocklog.jsonl); a gate whose file is\n"
        "            missing exits 2.\n"
        "  prof      hot-path table: exclusive time and work per span name.\n"
        "  campaign  per-miner win rates against the sampler and the\n"
        "            reference equilibrium, with CLT drift scores.\n"
        "  --json=F              also write the report as JSON to F.\n"
        "  --fail-on-drift       exit 3 when a miner or the fork counter\n"
        "                        drifted from the model.\n"
        "  --drift-z=Z           drift threshold in standard deviations\n"
        "                        (default 4, as hecmine_cli --drift-z).\n"
        "Exit codes: 0 clean, 2 unreadable or malformed input or usage\n"
        "error, 3 a gate tripped.\n";
}

constexpr int kClean = 0;
constexpr int kBadInput = 2;
constexpr int kGateTripped = 3;

/// Reads `path` whole and hands its text to `report`. Unreadable files and
/// any error the report throws exit kBadInput with the file named; an
/// empty file reports "nothing to report".
int with_file(const std::string& command, const std::string& path,
              const std::function<int(const std::string&)>& report) {
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = std::move(buffer).str();
    if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
      std::cout << "hecmine_report " << command << ": " << path
                << ": empty file — nothing to report\n";
      return kClean;
    }
    return report(text);
  } catch (const std::exception& error) {
    std::cerr << "hecmine_report " << command << ": " << path << ": "
              << error.what() << "\n";
    return kBadInput;
  }
}

/// Parses a JSONL stream whose first line must be {"schema": `schema`}.
std::vector<json::Value> parse_stream(const std::string& text,
                                      const std::string& schema) {
  std::vector<json::Value> lines = json::parse_lines(text);
  if (lines.empty() || !lines.front().is_object() ||
      !lines.front().contains("schema") ||
      lines.front().at("schema").as_string() != schema) {
    throw std::runtime_error("not a " + schema +
                             " stream (missing schema header line)");
  }
  return lines;
}

// ---------------------------------------------------------------- prof

int report_prof(const std::string& path, const std::string& text) {
  const support::prof::Report report =
      support::prof::build_report(json::parse(text));
  if (report.spans == 0) {
    std::cout << "hecmine_report prof: " << path
              << ": trace has no complete spans — nothing to profile\n";
    return kClean;
  }
  support::prof::print_report(std::cout, report);
  return kClean;
}

// ------------------------------------------------------------ campaign

std::string line_error(std::size_t index, const std::string& what) {
  return "line " + std::to_string(index + 1) + ": " + what;
}

/// Largest miner id a block log may name (the benchmark's crowd pool has
/// 3e5 miners).
constexpr double kMaxMinerId = 1e7;

/// A block record line as the campaign loop produced it.
chain::BlockRecord parse_block_record(const json::Value& line) {
  const auto count = [&](const char* key) {
    return static_cast<std::uint64_t>(line.number_or(key, 0.0));
  };
  const auto flag = [&](const char* key) {
    return line.contains(key) && line.at(key).as_bool();
  };
  chain::BlockRecord record;
  record.round = count("round");
  record.height = count("height");
  record.winner = static_cast<std::int64_t>(line.number_or("winner", -1.0));
  record.via_edge = flag("via_edge");
  record.fork = flag("fork");
  record.steal = flag("steal");
  record.interval = line.number_or("interval", 0.0);
  record.sim_time = line.number_or("sim_time", 0.0);
  record.fork_rate = line.number_or("fork_rate", 0.0);
  record.difficulty = line.number_or("difficulty", 1.0);
  record.unit_rate = line.number_or("unit_rate", 1.0);
  record.active = count("active");
  record.edge_units = line.number_or("edge_units", 0.0);
  record.cloud_units = line.number_or("cloud_units", 0.0);
  record.p_fork = line.number_or("p_fork", 0.0);
  record.p_winner = line.number_or("p_winner", 0.0);
  return record;
}

chain::BlockLogSummary parse_summary(const json::Value& line) {
  const auto count = [](const json::Value& object, const char* key) {
    return static_cast<std::uint64_t>(object.number_or(key, 0.0));
  };
  chain::BlockLogSummary summary;
  summary.rounds = count(line, "rounds");
  summary.blocks = count(line, "blocks");
  summary.forks = count(line, "forks");
  summary.fork_expected = line.number_or("fork_expected", 0.0);
  summary.fork_variance = line.number_or("fork_variance", 0.0);
  summary.has_reference =
      line.contains("has_reference") && line.at("has_reference").as_bool();
  for (const json::Value& entry : line.at("miners").as_array()) {
    chain::BlockLogMinerSummary miner;
    miner.miner = count(entry, "miner");
    miner.wins = count(entry, "wins");
    miner.rounds = count(entry, "rounds");
    miner.expected = entry.number_or("expected", 0.0);
    miner.variance = entry.number_or("variance", 0.0);
    miner.expected_ref = entry.number_or("expected_ref", 0.0);
    miner.variance_ref = entry.number_or("variance_ref", 0.0);
    summary.miners.push_back(miner);
  }
  return summary;
}

/// Feeds every block record through a CampaignMonitor (the reference from
/// the log's reference line, observe action, wall clock off), so the
/// per-round Eq. 6 / Eq. 9 sums are the live monitor's. The trailing
/// summary line, when present, wins: it covers rounds the stride dropped
/// and shares the per-record miner cap elided, and on an unstrided,
/// fully shared log it must agree with the replayed sums.
int report_campaign(const std::string& path, const std::string& text,
                    const std::string& json_path, bool fail_on_drift,
                    double drift_z) {
  const std::vector<json::Value> lines =
      parse_stream(text, chain::kBlockLogSchema);
  net::CampaignMonitorOptions options;
  options.drift_z = drift_z;
  options.action = health::WatchdogAction::kObserve;
  options.wall_clock = false;
  support::Telemetry sink;
  net::CampaignMonitor monitor(sink, options);

  const json::Value* summary_line = nullptr;
  std::uint64_t records = 0, records_with_shares = 0;
  std::vector<std::size_t> ids;
  std::vector<chain::Allocation> granted;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const json::Value& line = lines[i];
    if (!line.is_object())
      throw std::runtime_error(line_error(i, "not a block log record"));
    if (const json::Value* kind = line.find("kind"); kind != nullptr) {
      if (kind->as_string() == "reference") {
        std::vector<core::MinerRequest> requests;
        for (const json::Value& request : line.at("requests").as_array()) {
          const json::Value::Array& pair = request.as_array();
          if (pair.size() != 2)
            throw std::runtime_error(
                line_error(i, "malformed reference request"));
          requests.push_back({pair[0].as_number(), pair[1].as_number()});
        }
        monitor.set_reference(std::move(requests),
                              line.at("mode").as_string() == "connected"
                                  ? core::EdgeMode::kConnected
                                  : core::EdgeMode::kStandalone,
                              line.number_or("fork_rate", 0.0),
                              line.number_or("edge_success", 1.0));
      } else if (kind->as_string() == "summary") {
        summary_line = &line;
      } else {
        throw std::runtime_error(
            line_error(i, "unknown record kind: " + kind->as_string()));
      }
      continue;
    }
    if (!line.contains("round"))
      throw std::runtime_error(
          line_error(i, "not a block record (no round field)"));
    ++records;
    ids.clear();
    granted.clear();
    if (const json::Value* shares = line.find("shares"); shares != nullptr) {
      ++records_with_shares;
      for (const json::Value& share : shares->as_array()) {
        const json::Value::Array& triple = share.as_array();
        if (triple.size() != 3)
          throw std::runtime_error(line_error(i, "malformed share triple"));
        // The monitor keeps one slot per id up to the largest, so an id
        // from the file is bounded before it sizes anything.
        const double id = triple[0].as_number();
        if (!(id >= 0.0 && id < kMaxMinerId) || id != std::floor(id))
          throw std::runtime_error(line_error(i, "share miner id out of range"));
        ids.push_back(static_cast<std::size_t>(id));
        granted.push_back({triple[1].as_number(), triple[2].as_number()});
      }
    }
    monitor.observe_block(parse_block_record(line), ids, granted);
  }

  chain::BlockLogSummary stats = monitor.summary();
  if (summary_line != nullptr) {
    chain::BlockLogSummary summary = parse_summary(*summary_line);
    // An unstrided, fully shared log must replay to the summary's sums: a
    // mismatch means the producer and the replay disagree on the model,
    // which is a corrupt log.
    if (records > 0 && records_with_shares == records &&
        summary.rounds == records) {
      for (const chain::BlockLogMinerSummary& miner : summary.miners) {
        const chain::BlockLogMinerSummary replay =
            miner.miner < stats.miners.size()
                ? stats.miners[miner.miner]
                : chain::BlockLogMinerSummary{};
        if (replay.wins != miner.wins ||
            std::abs(replay.expected - miner.expected) >
                1e-6 * std::max(1.0, miner.expected)) {
          throw std::runtime_error(
              "summary/replay mismatch for miner " +
              std::to_string(miner.miner) + " (summary expected sum " +
              std::to_string(miner.expected) + ", replay " +
              std::to_string(replay.expected) + ")");
        }
      }
    }
    stats = std::move(summary);
  } else {
    // Without a summary only the miners the records named have sums.
    std::erase_if(stats.miners, [](const chain::BlockLogMinerSummary& m) {
      return m.rounds == 0;
    });
  }
  if (stats.miners.empty()) {
    std::cout << "hecmine_report campaign: " << path
              << ": no per-miner statistics (header-only log, or strided "
                 "records without shares and no summary line)\n";
    return kClean;
  }

  const bool has_reference = stats.has_reference;
  std::uint64_t drifted = 0;
  support::print_section(std::cout,
                         "hecmine_report campaign: convergence vs model");
  support::Table table("miner", {"wins", "rounds", "rate", "sampler_rate", "z",
                                 "ref_rate", "z_ref", "drift"});
  for (const chain::BlockLogMinerSummary& miner : stats.miners) {
    const net::DriftTest test = net::drift_test(
        miner.wins, miner.rounds, miner.expected_ref, miner.variance_ref,
        options);
    const bool drift = has_reference && test.drifted;
    drifted += drift ? 1 : 0;
    const double rounds =
        static_cast<double>(std::max<std::uint64_t>(miner.rounds, 1));
    table.add_row("miner_" + std::to_string(miner.miner),
                  {static_cast<double>(miner.wins),
                   static_cast<double>(miner.rounds), test.empirical,
                   miner.expected / rounds,
                   net::drift_score(static_cast<double>(miner.wins),
                                    miner.expected, miner.variance),
                   has_reference ? test.expected : 0.0,
                   has_reference ? test.z : 0.0, drift ? 1.0 : 0.0});
  }
  const net::DriftTest fork = net::drift_test(
      stats.forks, stats.blocks, stats.fork_expected, stats.fork_variance,
      options);
  table.add_row("forks", {static_cast<double>(stats.forks),
                          static_cast<double>(stats.blocks),
                          stats.blocks == 0 ? 0.0 : fork.empirical,
                          stats.blocks == 0 ? 0.0 : fork.expected, fork.z,
                          0.0, 0.0, fork.drifted ? 1.0 : 0.0});
  table.print(std::cout, 4);
  if (!has_reference) {
    std::cout << "(no reference-equilibrium line: z_ref not available, "
                 "drift checked against the sampler only)\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out)
      throw std::runtime_error("cannot open --json output: " + json_path);
    json::Writer writer(out);
    writer.begin_object(json::Writer::kBlock);
    writer.member("schema", chain::kBlockLogSchema);
    writer.member("kind", "report");
    writer.member("source", path);
    writer.member("records", records);
    writer.member("blocks", stats.blocks);
    writer.member("forks", stats.forks);
    writer.member("fork_z", fork.z);
    writer.member("fork_drift", fork.drifted);
    writer.member("has_reference", has_reference);
    writer.member("drift_z_threshold", drift_z);
    writer.member("drifted_miners", drifted);
    writer.key("miners");
    writer.begin_array(json::Writer::kBlock);
    for (const chain::BlockLogMinerSummary& miner : stats.miners) {
      const double rounds =
          static_cast<double>(std::max<std::uint64_t>(miner.rounds, 1));
      writer.begin_object();
      writer.member("miner", miner.miner);
      writer.member("wins", miner.wins);
      writer.member("rounds", miner.rounds);
      writer.member("rate", static_cast<double>(miner.wins) / rounds);
      writer.member("sampler_rate", miner.expected / rounds);
      writer.member("sampler_z",
                    net::drift_score(static_cast<double>(miner.wins),
                                     miner.expected, miner.variance));
      if (has_reference) {
        writer.member("ref_rate", miner.expected_ref / rounds);
        writer.member("ref_z",
                      net::drift_score(static_cast<double>(miner.wins),
                                       miner.expected_ref,
                                       miner.variance_ref));
      }
      writer.end_object();
    }
    writer.end_array();
    writer.end_object();
    writer.finish();
    std::cout << "[campaign-report] " << json_path << "\n";
  }

  if (fail_on_drift && (drifted > 0 || fork.drifted)) {
    std::cerr << "hecmine_report campaign: " << drifted
              << " miner(s) drifted beyond z=" << drift_z
              << (fork.drifted ? ", fork rate drifted" : "")
              << " (--fail-on-drift)\n";
    return kGateTripped;
  }
  return kClean;
}

// -------------------------------------------------------- command line

/// Runs `report` over each path, with a "== path ==" header when there are
/// several; stops at the first unreadable file.
int over_files(const std::string& command,
               const std::vector<std::string>& paths,
               const std::function<int(const std::string&,
                                       const std::string&)>& report) {
  int status = kClean;
  for (const std::string& path : paths) {
    if (paths.size() > 1) std::cout << "== " << path << " ==\n";
    const int code = with_file(
        command, path,
        [&](const std::string& text) { return report(path, text); });
    if (code == kBadInput) return code;
    status = std::max(status, code);
  }
  return status;
}

int report_bundle(const std::string& dir, bool fail_on_drift,
                  double drift_z) {
  const auto file = [&](const char* name) {
    return (std::filesystem::path(dir) / name).string();
  };
  const auto present = [&](const char* name) {
    return std::filesystem::is_regular_file(file(name));
  };
  // A bundle is recognised by the header line of its flight stream.
  try {
    std::ifstream flight(file(RunDir::kFlight));
    if (!flight) throw std::runtime_error("cannot open file");
    std::string header;
    std::getline(flight, header);
    (void)parse_stream(header, support::provenance::schema_version("flight"));
  } catch (const std::exception& error) {
    std::cerr << "hecmine_report: " << dir << ": not a run bundle ("
              << RunDir::kFlight << ": " << error.what() << ")\n";
    return kBadInput;
  }
  int status = kClean;
  // A CI gate must not pass because its input is missing.
  const auto require = [&](bool gate, const char* name, const char* flag) {
    if (!gate || present(name)) return;
    std::cerr << "hecmine_report: " << dir << ": " << flag << " needs "
              << name << ", which the bundle lacks\n";
    status = std::max(status, kBadInput);
  };
  require(fail_on_drift, RunDir::kBlockLog, "--fail-on-drift");
  if (present(RunDir::kTrace))
    status = std::max(status, over_files("prof", {file(RunDir::kTrace)},
                                         report_prof));
  if (present(RunDir::kBlockLog)) {
    status = std::max(
        status, with_file("campaign", file(RunDir::kBlockLog),
                          [&](const std::string& text) {
                            return report_campaign(file(RunDir::kBlockLog),
                                                   text, {}, fail_on_drift,
                                                   drift_z);
                          }));
  }
  return status;
}

int run(const support::CliArgs& args) {
  const std::vector<std::string>& positional = args.positional();
  if (positional.empty()) {
    print_usage(std::cerr);
    return kBadInput;
  }
  const std::string& command = positional.front();
  const std::vector<std::string> inputs(positional.begin() + 1,
                                        positional.end());
  const std::string json_path = args.get("json", std::string{});
  const bool fail_on_drift = args.has("fail-on-drift");
  const double drift_z = args.positive_double("drift-z", 4.0);

  // Flags that do not belong to the chosen report are usage errors, not
  // silently ignored settings.
  std::vector<std::string> allowed;
  std::function<int()> report;
  if (command == "prof" && !inputs.empty()) {
    report = [&] { return over_files("prof", inputs, report_prof); };
  } else if (command == "campaign" && inputs.size() == 1) {
    allowed = {"json", "fail-on-drift", "drift-z"};
    report = [&] {
      return with_file("campaign", inputs[0], [&](const std::string& text) {
        return report_campaign(inputs[0], text, json_path, fail_on_drift,
                               drift_z);
      });
    };
  } else if (positional.size() == 1 &&
             std::filesystem::is_directory(command)) {
    allowed = {"fail-on-drift", "drift-z"};
    report = [&] { return report_bundle(command, fail_on_drift, drift_z); };
  }
  if (args.reject_unknown_flags(allowed, "hecmine_report") || !report) {
    print_usage(std::cerr);
    return kBadInput;
  }
  return report();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const support::CliArgs args(argc, argv);
    const std::vector<std::string>& positional = args.positional();
    if (args.has("help") ||
        std::find(positional.begin(), positional.end(), "-h") !=
            positional.end()) {
      print_usage(std::cout);
      return kClean;
    }
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "hecmine_report: " << error.what() << "\n";
    return kBadInput;
  }
}

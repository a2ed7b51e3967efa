#include "common.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

double Strata::at(std::size_t index, std::size_t dim) const {
  const std::uint64_t block = index / kBlock;
  const std::size_t slot = index % kBlock;
  // Fisher-Yates shuffle of the block's strata for this dimension.
  std::uint64_t state = mix64(key_ ^ mix64(block * 0x100000001b3ULL + dim));
  std::size_t order[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) order[i] = i;
  for (std::size_t i = kBlock - 1; i > 0; --i) {
    state = mix64(state);
    std::swap(order[i], order[state % (i + 1)]);
  }
  const double jitter = unit_interval(mix64(state ^ mix64(slot + 1)));
  return (static_cast<double>(order[slot]) + jitter) /
         static_cast<double>(kBlock);
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << value;
  return out.str();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int Tracer::open(const std::string& name) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ms = ms_between(epoch_, Clock::now());
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

double Tracer::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ms = ms_between(epoch_, Clock::now());
  open_.pop_back();
  return span.end_ms - span.start_ms;
}

std::vector<SelfTime> Tracer::self_times() const {
  // Children of one span run one after another on this thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_ms[static_cast<std::size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& entry = by_name[spans_[i].name];
    entry.name = spans_[i].name;
    const double total = spans_[i].end_ms - spans_[i].start_ms;
    ++entry.count;
    entry.total_ms += total;
    entry.self_ms += total - child_ms[i];
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  for (const Span& span : spans_) {
    hecmine::support::json::Writer writer(out);
    writer.begin_object();
    writer.member("name", span.name);
    writer.member("op", static_cast<std::uint64_t>(span.op));
    writer.member("parent", span.parent);
    writer.member("start_ms", span.start_ms);
    writer.member("end_ms", span.end_ms);
    writer.end_object();
    writer.finish();
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

void LayerSamples::add_work(const hecmine::support::prof::WorkCounters& work) {
  namespace prof = hecmine::support::prof;
  for (std::size_t i = 0; i < prof::kWorkFieldCount; ++i) {
    const auto field = static_cast<prof::WorkField>(i);
    add(std::string("work.") + prof::work_field_name(field),
        static_cast<double>(work[field]));
  }
}

const std::vector<double>* LayerSamples::find(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "report.hpp"
#include "support/error.hpp"
#include "vla/vla.hpp"

namespace perfbench {

// --- tracer ----------------------------------------------------------------------

int Tracer::begin(const std::string& name, int parent, int arg) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = seconds_between(t0_, Clock::now());
  s.end_s = s.start_s;
  s.parent = parent;
  s.arg = arg;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s =
      seconds_between(t0_, Clock::now());
}

int Tracer::add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int parent, int arg) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = seconds_between(t0_, start);
  s.end_s = seconds_between(t0_, end);
  s.parent = parent;
  s.arg = arg;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw v2d::Error("cannot write trace file '" + path + "'");
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
       << ", \"start_s\": " << json_number(s.start_s)
       << ", \"end_s\": " << json_number(s.end_s)
       << ", \"parent\": " << s.parent << ", \"arg\": " << s.arg << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

// --- statistics ------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double trimmed_mean(std::vector<double> v, double frac) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto cut = static_cast<std::size_t>(frac * static_cast<double>(v.size()));
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double tail(std::vector<double> v, std::size_t beyond, double cap,
            double* pct) {
  if (v.empty()) {
    *pct = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t idx = n > beyond ? n - 1 - beyond : n - 1;
  // Nearest rank of the cap: the smallest sample with at least cap% of
  // the samples at or below it.
  const auto capped = static_cast<std::size_t>(
      std::ceil(cap / 100.0 * static_cast<double>(n)));
  if (capped >= 1) idx = std::min(idx, capped - 1);
  *pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

// --- counters --------------------------------------------------------------------

Counters Counters::now() {
  Counters c;
  c.memo_hits = v2d::vla::process_memo_hits();
  c.memo_misses = v2d::vla::process_memo_misses();
  c.sched = v2d::task_graph::stats();
  return c;
}

Counters Counters::since(const Counters& earlier) const {
  Counters d;
  d.memo_hits = memo_hits - earlier.memo_hits;
  d.memo_misses = memo_misses - earlier.memo_misses;
  d.sched = sched.since(earlier.sched);
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  memo_hits += o.memo_hits;
  memo_misses += o.memo_misses;
  sched.sessions += o.sched.sessions;
  sched.stages += o.sched.stages;
  sched.chained_stages += o.sched.chained_stages;
  sched.tasks += o.sched.tasks;
  sched.chained_tasks += o.sched.chained_tasks;
  sched.steals += o.sched.steals;
  sched.syncs += o.sched.syncs;
  sched.affinity_hits += o.sched.affinity_hits;
  sched.combines += o.sched.combines;
  return *this;
}

void LoopResult::fail(const std::string& why, std::uint64_t ops) {
  failed += ops;
  if (failures.size() < 8) failures.push_back(why);
}

void LoopResult::check_repeat(
    const std::map<std::string, std::uint64_t>& counts, std::uint64_t ops) {
  for (const auto& [key, value] : counts) {
    const std::uint64_t first =
        repeat_counts.try_emplace(key, value).first->second;
    if (value != first) {
      fail("count " + key + " = " + std::to_string(value) +
               " differs from the first episode's " + std::to_string(first),
           ops);
      return;
    }
  }
}

// --- JSON ------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_number(double v) {
  return std::isfinite(v) ? exact(v) : "null";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench

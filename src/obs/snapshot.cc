#include "obs/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/stream_stats.h"
#include "util/check.h"

namespace rrs {

namespace {

void append(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append(std::string& out, double v) {
  // %.17g round-trips any finite double exactly through the strict
  // from_chars parser below.
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  append(out, h.count());
  out += ",\"sum\":";
  append(out, h.sum());
  out += ",\"min\":";
  append(out, h.min());
  out += ",\"max\":";
  append(out, h.max());
  out += ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    append(out, std::int64_t{i});
    out += ',';
    append(out, h.bucket(i));
    out += ']';
  }
  out += "]}";
}

/// Strict single-line cursor: every expect/parse advances or throws
/// InputError.  The format is exactly what the writer emits — key order
/// fixed, no whitespace — so any deviation is malformed input, not a
/// dialect.
class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}

  void expect(std::string_view lit) {
    RRS_REQUIRE(s_.size() - pos_ >= lit.size() &&
                    s_.compare(pos_, lit.size(), lit) == 0,
                "snapshot: expected '" << lit << "' at offset " << pos_);
    pos_ += lit.size();
  }

  [[nodiscard]] bool peek(char c) const {
    return pos_ < s_.size() && s_[pos_] == c;
  }

  void skip(char c) {
    RRS_REQUIRE(peek(c), "snapshot: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  [[nodiscard]] std::int64_t parse_int() {
    std::int64_t v = 0;
    const char* first = s_.data() + pos_;
    const char* last = s_.data() + s_.size();
    const auto res = std::from_chars(first, last, v);
    RRS_REQUIRE(res.ec == std::errc{} && res.ptr != first,
                "snapshot: bad integer at offset " << pos_);
    pos_ += static_cast<std::size_t>(res.ptr - first);
    return v;
  }

  [[nodiscard]] double parse_double() {
    double v = 0.0;
    const char* first = s_.data() + pos_;
    const char* last = s_.data() + s_.size();
    const auto res =
        std::from_chars(first, last, v, std::chars_format::general);
    RRS_REQUIRE(res.ec == std::errc{} && res.ptr != first,
                "snapshot: bad number at offset " << pos_);
    RRS_REQUIRE(std::isfinite(v),
                "snapshot: non-finite number at offset " << pos_);
    pos_ += static_cast<std::size_t>(res.ptr - first);
    return v;
  }

  void expect_end() const {
    RRS_REQUIRE(pos_ == s_.size(),
                "snapshot: trailing bytes at offset " << pos_);
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Every top-level integer key is a counter or gauge, never negative.
void parse(Cursor& c, std::int64_t& v) {
  v = c.parse_int();
  RRS_REQUIRE(v >= 0, "snapshot: negative counter");
}

void parse(Cursor& c, double& v) { v = c.parse_double(); }

void parse(Cursor& c, Histogram& h) {
  c.expect("{\"count\":");
  const std::int64_t count = c.parse_int();
  c.expect(",\"sum\":");
  const std::int64_t sum = c.parse_int();
  c.expect(",\"min\":");
  const std::int64_t min = c.parse_int();
  c.expect(",\"max\":");
  const std::int64_t max = c.parse_int();
  c.expect(",\"buckets\":[");
  std::vector<std::pair<int, std::int64_t>> buckets;
  if (!c.peek(']')) {
    for (;;) {
      c.skip('[');
      const std::int64_t index = c.parse_int();
      RRS_REQUIRE(index >= 0 && index < Histogram::kNumBuckets,
                  "snapshot: histogram bucket index out of range");
      c.skip(',');
      const std::int64_t n = c.parse_int();
      c.skip(']');
      buckets.emplace_back(static_cast<int>(index), n);
      if (!c.peek(',')) break;
      c.skip(',');
    }
  }
  c.expect("]}");
  h = Histogram::from_parts(count, sum, min, max, buckets);
}

}  // namespace

Snapshot make_snapshot(const StreamStats& stats, const RunCounters& counters,
                       Round round, std::int64_t pending) {
  Snapshot s;
  s.round = round;
  s.arrived = counters.arrived;
  s.executed = counters.executed;
  s.drop_count = stats.drop_count();
  s.drop_weight = counters.cost.drops;
  s.completed_weight = stats.completed_weight();
  s.work_units = counters.work_units;
  s.reconfig_events =
      counters.cost.reconfig_events - counters.cost.churn_reconfigs;
  s.churn_failures = counters.degraded.fault_events;
  s.churn_repairs = counters.degraded.repair_events;
  s.churn_evictions = counters.degraded.churn_evictions;
  s.pending = pending;
  s.wait = stats.wait();
  s.slack = stats.slack();
  s.service = stats.service();
  s.reconfig_gap = stats.reconfig_gap();
  s.mean_wait = s.wait.mean();
  s.mean_slack = s.slack.mean();
  return s;
}

void merge_into(Snapshot& into, const Snapshot& from) {
  merge_fields(into, from);
  into.mean_wait = into.wait.mean();
  into.mean_slack = into.slack.mean();
}

std::string to_json_line(const Snapshot& snapshot) {
  std::string out;
  out.reserve(512);
  char separator = '{';
  for_each_field(
      [&](const auto& field, const auto& value) {
        out += separator;
        out += '"';
        out += field.name;
        out += "\":";
        append(out, value);
        separator = ',';
      },
      snapshot);
  out += '}';
  return out;
}

Snapshot parse_snapshot_line(std::string_view line) {
  Cursor c(line);
  Snapshot s;
  char separator = '{';
  for_each_field(
      [&](const auto& field, auto& value) {
        c.skip(separator);
        c.skip('"');
        c.expect(field.name);
        c.expect("\":");
        parse(c, value);
        separator = ',';
      },
      s);
  c.expect("}");
  c.expect_end();

  // Cross-field consistency: a well-formed snapshot cannot violate these,
  // so a violation means corrupt input.
  RRS_REQUIRE(s.executed == s.wait.count() && s.executed == s.slack.count(),
              "snapshot: executed disagrees with wait/slack sample counts");
  RRS_REQUIRE(s.executed == s.service.count(),
              "snapshot: executed disagrees with service sample count");
  RRS_REQUIRE(s.work_units >= s.service.sum(),
              "snapshot: fewer work units than completed service demands");
  RRS_REQUIRE(s.completed_weight >= s.executed,
              "snapshot: completed weight below completion count");
  RRS_REQUIRE(s.arrived - s.executed >= s.drop_count,
              "snapshot: executed + dropped exceeds arrived");
  RRS_REQUIRE(s.churn_evictions <= s.churn_failures,
              "snapshot: more evictions than failures");
  RRS_REQUIRE(s.mean_wait == s.wait.mean() && s.mean_slack == s.slack.mean(),
              "snapshot: derived means disagree with histograms");
  return s;
}

void write_snapshots(std::ostream& os, std::span<const Snapshot> snapshots) {
  for (const Snapshot& s : snapshots) {
    os << to_json_line(s) << '\n';
  }
  os.flush();
  RRS_REQUIRE(os.good(), "snapshot write failed (stream error after flush)");
}

std::vector<Snapshot> read_snapshots(std::istream& in) {
  std::vector<Snapshot> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      out.push_back(parse_snapshot_line(line));
    } catch (const InputError& e) {
      throw InputError("snapshot line " + std::to_string(line_no) + ": " +
                       e.what());
    }
  }
  return out;
}

std::vector<Snapshot> merge_snapshot_series(
    const std::vector<std::vector<Snapshot>>& per_shard) {
  std::size_t longest = 0;
  for (const auto& series : per_shard) {
    longest = std::max(longest, series.size());
  }
  std::vector<Snapshot> out;
  out.reserve(longest);
  for (std::size_t i = 0; i < longest; ++i) {
    Snapshot merged;
    for (const auto& series : per_shard) {
      if (series.empty()) continue;
      // Carry-forward: a shard that drained early keeps contributing its
      // final cumulative totals.
      merge_into(merged, series[std::min(i, series.size() - 1)]);
    }
    out.push_back(std::move(merged));
  }
  return out;
}

}  // namespace rrs

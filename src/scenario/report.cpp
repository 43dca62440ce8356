#include "scenario/report.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace atum::scenario {

namespace {

// Minimal deterministic JSON assembly: append-only, fixed key order, fixed
// "%.4f" float formatting (identical doubles => identical bytes; all inputs
// are derived from the seeded simulation).
class Json {
 public:
  void u64(const char* key, std::uint64_t v) {
    sep();
    append("\"%s\":%" PRIu64, key, v);
  }
  void i64(const char* key, std::int64_t v) {
    sep();
    append("\"%s\":%" PRId64, key, v);
  }
  void f64(const char* key, double v) {
    sep();
    append("\"%s\":%.4f", key, v);
  }
  void str(const char* key, const std::string& v) {
    sep();
    append("\"%s\":", key);
    quote(v);
  }
  void open(const char* key, char bracket) {
    sep();
    if (key != nullptr) append("\"%s\":", key);
    out_.push_back(bracket);
    fresh_ = true;
  }
  void close(char bracket) {
    out_.push_back(bracket);
    fresh_ = false;
  }
  std::string take() { return std::move(out_); }

 private:
  void sep() {
    if (!fresh_) out_.push_back(',');
    fresh_ = false;
  }
  void quote(const std::string& v) {
    out_.push_back('"');
    for (char c : v) {
      if (c == '"' || c == '\\') out_.push_back('\\');
      out_.push_back(c);
    }
    out_.push_back('"');
  }
  void append(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[160];
    va_list args;
    va_start(args, fmt);
    int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (n > 0) out_.append(buf, static_cast<std::size_t>(n));
  }

  std::string out_;
  bool fresh_ = true;
};

}  // namespace

const PhaseMetrics* ScenarioReport::phase(const std::string& name) const {
  for (const PhaseMetrics& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

double ScenarioReport::total_delivery_ratio() const {
  std::uint64_t expected = 0;
  std::uint64_t got = 0;
  for (const PhaseMetrics& p : phases) {
    expected += p.deliveries_expected;
    got += p.deliveries;
  }
  return expected == 0 ? 1.0 : static_cast<double>(got) / static_cast<double>(expected);
}

std::string ScenarioReport::to_json() const {
  Json j;
  j.open(nullptr, '{');
  j.str("scenario", scenario);
  j.u64("seed", seed);
  j.u64("initial_nodes", initial_nodes);
  j.f64("sim_seconds", to_seconds(sim_end));
  j.u64("events_executed", totals.events_executed);
  j.u64("total_msgs_sent", totals.msgs_sent);
  j.u64("total_bytes_sent", totals.bytes_sent);
  j.u64("total_sha256_digests", totals.sha256_digests);
  j.f64("total_delivery_ratio", total_delivery_ratio());
  if (metrics_interval > 0) {
    j.f64("metrics_interval_s", to_seconds(metrics_interval));
    j.open("time_series", '[');
    for (const TimeSeriesPoint& p : time_series) {
      j.open(nullptr, '{');
      j.f64("t_s", to_seconds(p.at));
      j.f64("delivery_ratio", p.delivery_ratio);
      j.u64("broadcasts_sent", p.broadcasts_sent);
      j.u64("deliveries", p.deliveries);
      const WindowMetrics& w = p.window;
      j.u64("msgs_sent", w.msgs_sent);
      j.u64("msgs_delivered", w.msgs_delivered);
      j.u64("msgs_dropped", w.msgs_dropped);
      j.u64("bytes_sent", w.bytes_sent);
      j.u64("sha256_digests", w.sha256_digests);
      j.u64("joined", w.joined);
      j.u64("groups", w.groups);
      j.u64("live_events", w.live_events);
      j.u64("slot_count", w.slot_count);
      j.u64("flows", w.flows);
      j.close('}');
    }
    j.close(']');
  }
  j.open("phases", '[');
  for (const PhaseMetrics& p : phases) {
    j.open(nullptr, '{');
    j.str("name", p.name);
    j.f64("start_s", to_seconds(p.start));
    j.f64("end_s", to_seconds(p.end));
    j.u64("broadcasts_sent", p.broadcasts_sent);
    j.u64("deliveries_expected", p.deliveries_expected);
    j.u64("deliveries", p.deliveries);
    j.f64("delivery_ratio", p.delivery_ratio());
    j.u64("broadcasts_fully_delivered", p.broadcasts_fully_delivered);
    j.u64("latency_samples", p.latency_samples);
    j.f64("latency_ms_p50", p.latency_ms_p50);
    j.f64("latency_ms_p95", p.latency_ms_p95);
    j.f64("latency_ms_p99", p.latency_ms_p99);
    j.f64("latency_ms_max", p.latency_ms_max);
    j.u64("joins_requested", p.joins_requested);
    j.u64("joins_completed", p.joins_completed);
    j.u64("leaves_requested", p.leaves_requested);
    j.u64("leaves_completed", p.leaves_completed);
    j.u64("leaves_forced", p.leaves_forced);
    j.u64("stream_chunks_sent", p.stream_chunks_sent);
    j.u64("stream_deliveries_expected", p.stream_deliveries_expected);
    j.u64("stream_deliveries", p.stream_deliveries);
    j.u64("byzantine_converted", p.byzantine_converted);
    j.u64("groups_killed", p.groups_killed);
    j.u64("nodes_killed", p.nodes_killed);
    const WindowMetrics& w = p.window;
    j.u64("msgs_sent", w.msgs_sent);
    j.u64("msgs_delivered", w.msgs_delivered);
    j.u64("msgs_dropped", w.msgs_dropped);
    j.u64("msgs_blocked", w.msgs_blocked);
    j.u64("bytes_sent", w.bytes_sent);
    j.u64("sha256_digests", w.sha256_digests);
    j.u64("joined_correct_end", w.joined);
    j.u64("correct_evicted_end", p.correct_evicted_end);
    j.u64("group_count_end", w.groups);
    j.u64("live_events_end", w.live_events);
    j.u64("slot_count_end", w.slot_count);
    j.u64("flow_count_end", w.flows);
    j.i64("heal_to_full_delivery_us", p.heal_to_full_delivery);
    j.close('}');
  }
  j.close(']');
  j.close('}');
  std::string out = j.take();
  out.push_back('\n');
  return out;
}

}  // namespace atum::scenario

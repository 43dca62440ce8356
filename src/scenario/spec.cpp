#include "scenario/spec.h"

#include <set>
#include <stdexcept>
#include <string>

namespace atum::scenario {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("ScenarioSpec: " + what);
}

void check_fraction(double v, const char* what) {
  if (!(v >= 0.0 && v <= 1.0)) fail(std::string(what) + " must be in [0,1]");
}

void check_rate(double v, const char* what) {
  if (!(v >= 0.0)) fail(std::string(what) + " must be >= 0");
}

}  // namespace

void ScenarioSpec::validate() const {
  if (nodes < 2) fail("needs at least 2 nodes");
  if (phases.empty()) fail("needs at least one phase");
  if (drain < 0) fail("negative drain");
  if (metrics_interval < 0) fail("negative metrics_interval");
  if (trace_ring == 0) fail("trace_ring must be > 0");
  params.validate();
  net.validate();
  for (std::size_t c : relay_cycles) {
    if (c >= params.hc) fail("relay cycle index out of range");
  }

  std::set<std::string> names;
  for (const Phase& p : phases) {
    if (p.name.empty()) fail("phase without a name");
    if (!names.insert(p.name).second) fail("duplicate phase name '" + p.name + "'");
    if (p.duration <= 0) fail("phase '" + p.name + "' has non-positive duration");
    check_rate(p.churn.joins_per_minute, "churn.joins_per_minute");
    check_rate(p.churn.leaves_per_minute, "churn.leaves_per_minute");
    check_rate(p.broadcasts.per_second, "broadcasts.per_second");
    check_rate(p.stream.chunks_per_second, "stream.chunks_per_second");
    // The scenario header (magic + index + send time) needs 20 bytes.
    if (p.broadcasts.any() && p.broadcasts.payload_bytes < 20) {
      fail("broadcast payload_bytes must be >= 20");
    }
    if (p.stream.any() && p.stream.chunk_bytes == 0) fail("stream chunk_bytes must be > 0");
    if (p.partition) check_fraction(p.partition->minority_fraction, "minority_fraction");
    if (p.degrade) check_fraction(p.degrade->drop, "degrade.drop");
    if (p.degrade && p.degrade->extra_latency < 0) fail("negative degrade.extra_latency");
    if (p.byzantine) check_fraction(p.byzantine->fraction, "byzantine.fraction");
  }
  if (metrics_interval > 0) {
    DurationMicros span = drain;
    for (const Phase& p : phases) span += p.duration;
    if (span / metrics_interval > kMaxTimeSeriesPoints) {
      fail("metrics_interval of " + std::to_string(metrics_interval) + "us gives " +
           std::to_string(span / metrics_interval) + " time-series points over the phases and " +
           "drain, more than " + std::to_string(kMaxTimeSeriesPoints) +
           "; the smallest interval allowed is " +
           std::to_string(span / (kMaxTimeSeriesPoints + 1) + 1) + "us");
    }
  }
  for (const Expectation& e : expectations) {
    if (!names.contains(e.phase)) fail("expectation references unknown phase '" + e.phase + "'");
    if (!e.at_least_phase.empty() && !names.contains(e.at_least_phase)) {
      fail("expectation references unknown phase '" + e.at_least_phase + "'");
    }
  }
}

}  // namespace atum::scenario

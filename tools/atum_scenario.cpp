// atum_scenario: CLI runner for the scenario engine (src/scenario/).
//
//   atum_scenario --list
//   atum_scenario <preset> [--nodes N] [--seed S] [--out FILE] [--assert]
//                 [--metrics-interval DUR] [--trace-out FILE]
//                 [--trace-sample N] [--trace-ring N]
//
// Runs a built-in preset against a real node-level AtumSystem and emits the
// deterministic JSON metrics report (stdout, or FILE with --out). With
// --assert, the preset's built-in expectations are evaluated and violations
// exit non-zero — CI smokes presets exactly this way. Same preset + same
// seed => byte-identical report.
//
// Telemetry (ISSUE 9): --metrics-interval samples the system's metrics
// registry every DUR of sim-time ("1s", "500ms", "250000us"; bare numbers
// are seconds) into the report's time_series section. --trace-out enables
// message-lifecycle tracing and writes Chrome trace-event JSON (load it in
// Perfetto / chrome://tracing); --trace-sample keeps one trace key in N and
// --trace-ring bounds the per-node event ring. Telemetry is deterministic:
// same preset + seed => byte-identical report AND trace. All flags accept
// both `--flag value` and `--flag=value`.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "obs/trace.h"
#include "scenario/driver.h"
#include "scenario/presets.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --list\n"
               "       %s <preset> [--nodes N] [--seed S] [--out FILE] [--assert]\n"
               "          [--metrics-interval DUR] [--trace-out FILE]\n"
               "          [--trace-sample N] [--trace-ring N]\n",
               argv0, argv0);
  return 2;
}

// "1s" / "500ms" / "250000us" / bare seconds; 0 means off. Exits on
// nonsense, including nan, inf, negatives, values past DurationMicros and
// positive values under 1us (which would truncate to off).
atum::DurationMicros parse_duration(const std::string& s, const char* flag) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  std::string unit = end == nullptr ? "" : std::string(end);
  double scale = 0.0;
  if (unit.empty() || unit == "s") {
    scale = 1e6;
  } else if (unit == "ms") {
    scale = 1e3;
  } else if (unit == "us") {
    scale = 1.0;
  }
  const double us = v * scale;
  constexpr auto kMax = static_cast<double>(std::numeric_limits<atum::DurationMicros>::max());
  if (end == s.c_str() || scale == 0.0 || !(us >= 0.0 && us < kMax) || (us > 0.0 && us < 1.0)) {
    std::fprintf(stderr, "%s: bad duration '%s' (want e.g. 1s, 500ms, 250000us)\n", flag,
                 s.c_str());
    std::exit(2);
  }
  return static_cast<atum::DurationMicros>(us);
}

// A non-negative decimal integer: digits only, with no sign, no spaces, no
// trailing characters and no overflow. Exits on anything else.
std::uint64_t parse_count(const std::string& s, const char* flag) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || stop != end) {
    std::fprintf(stderr, "%s: bad count '%s' (want a non-negative integer)\n", flag, s.c_str());
    std::exit(2);
  }
  return v;
}

bool write_file(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atum;

  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "--list") == 0) {
    std::printf("%-26s %-8s %s\n", "preset", "nodes", "summary");
    for (const auto& p : scenario::preset_list()) {
      std::printf("%-26s %-8zu %s\n", p.name.c_str(), p.default_nodes, p.summary.c_str());
    }
    return 0;
  }

  std::string preset = argv[1];
  std::size_t nodes = 0;
  std::uint64_t seed = 0;
  std::string out_path;
  std::string trace_path;
  DurationMicros metrics_interval = 0;
  std::uint64_t trace_sample = 1;
  std::size_t trace_ring = 4096;
  bool check = false;
  for (int i = 2; i < argc; ++i) {
    // Both spellings: `--flag value` and `--flag=value`.
    std::string arg = argv[i];
    std::string flag = arg;
    std::string inline_val;
    bool has_inline = false;
    if (std::size_t eq = arg.find('='); eq != std::string::npos) {
      flag = arg.substr(0, eq);
      inline_val = arg.substr(eq + 1);
      has_inline = true;
    }
    auto value = [&]() -> std::string {
      if (has_inline) return inline_val;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--nodes") {
      nodes = static_cast<std::size_t>(parse_count(value(), "--nodes"));
    } else if (flag == "--seed") {
      seed = parse_count(value(), "--seed");
    } else if (flag == "--out") {
      out_path = value();
    } else if (flag == "--metrics-interval") {
      metrics_interval = parse_duration(value(), "--metrics-interval");
    } else if (flag == "--trace-out") {
      trace_path = value();
    } else if (flag == "--trace-sample") {
      trace_sample = parse_count(value(), "--trace-sample");
    } else if (flag == "--trace-ring") {
      trace_ring = static_cast<std::size_t>(parse_count(value(), "--trace-ring"));
    } else if (flag == "--assert" && !has_inline) {
      check = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage(argv[0]);
    }
  }

  scenario::ScenarioSpec spec;
  try {
    spec = scenario::make_preset(preset, nodes, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\nrun %s --list for the catalogue\n", e.what(), argv[0]);
    return 2;
  }
  spec.metrics_interval = metrics_interval;
  spec.trace = !trace_path.empty();
  spec.trace_sample = trace_sample;
  spec.trace_ring = trace_ring;

  std::fprintf(stderr, "scenario %s: %zu nodes, seed %llu, %zu phases\n", spec.name.c_str(),
               spec.nodes, static_cast<unsigned long long>(spec.seed), spec.phases.size());
  // The driver validates the spec: a bad one (say, --nodes 1) exits 2.
  std::optional<scenario::ScenarioDriver> driver;
  try {
    driver.emplace(std::move(spec));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  scenario::ScenarioReport report = driver->run();
  std::string json = report.to_json();

  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    if (!write_file(out_path, json)) return 1;
    std::fprintf(stderr, "report written to %s\n", out_path.c_str());
  }

  if (!trace_path.empty()) {
    const obs::Tracer& tracer = driver->system().tracer();
    if (!write_file(trace_path, tracer.to_chrome_json())) return 1;
    std::fprintf(stderr, "trace written to %s (%llu events recorded, %zu retained)\n",
                 trace_path.c_str(), static_cast<unsigned long long>(tracer.recorded()),
                 tracer.retained());
  }

  for (const auto& p : report.phases) {
    std::fprintf(stderr,
                 "phase %-12s delivery %6.4f (%llu/%llu) joins %llu/%llu p50 %.1fms\n",
                 p.name.c_str(), p.delivery_ratio(),
                 static_cast<unsigned long long>(p.deliveries),
                 static_cast<unsigned long long>(p.deliveries_expected),
                 static_cast<unsigned long long>(p.joins_completed),
                 static_cast<unsigned long long>(p.joins_requested), p.latency_ms_p50);
  }

  if (check) {
    auto violations = scenario::ScenarioDriver::check(driver->spec(), report);
    for (const std::string& v : violations) std::fprintf(stderr, "ASSERT FAILED: %s\n", v.c_str());
    if (!violations.empty()) return 1;
    std::fprintf(stderr, "all expectations hold\n");
  }
  return 0;
}

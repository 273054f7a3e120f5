// oscar_benchmark: the repository benchmark. One process runs
// one workload at one seed and prints, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs (--trace 1) the per-layer
// ones; BENCHMARK.json at the repository root declares both sets.
//
//   oscar_benchmark --workload grow --seed 42 --seconds 15 --trace 0
//   oscar_benchmark --smoke      # every workload at N=300, both modes
//
// Flags take `--flag value` or `--flag=value`. Exit codes: 0 when every
// output check passed, 1 when one failed (the JSON still prints), 2 on a
// usage error or a build/environment that cannot be timed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/audit.h"
#include "workloads.h"

extern char** environ;

namespace oscar_bench {
namespace {

struct Flags {
  RunOptions run;
  std::string results_dir;
  std::string commit = "unknown";
};

int Usage(const std::string& message) {
  std::cerr << "oscar_benchmark: " << message << "\n"
            << "usage: oscar_benchmark --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                       [--dataset-seed N] [--results-dir DIR] "
               "[--commit SHA]\n"
               "       oscar_benchmark --smoke\n"
               "workloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

/// Parses argv into `flags`; returns an error message or "".
std::string Parse(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && i + 1 < argc) {
      value = argv[++i];
    }
    uint64_t number = 0;
    if (arg == "--smoke") {
      flags->run.smoke = true;
    } else if (arg == "--workload") {
      flags->run.workload = value;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &number)) return "--seed wants an integer";
      flags->run.seed = number;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &number) || number == 0 || number > 3600) {
        return "--seconds wants an integer in [1, 3600]";
      }
      flags->run.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return "--trace wants 0 or 1";
      flags->run.trace = value == "1";
    } else if (arg == "--dataset-seed") {
      if (!ParseUint(value, &number)) return "--dataset-seed wants an integer";
      flags->run.dataset_seed = number;
    } else if (arg == "--results-dir") {
      flags->results_dir = value;
    } else if (arg == "--commit") {
      flags->commit = value;
    } else {
      return "unknown argument '" + std::string(argv[i]) + "'";
    }
  }
  if (flags->run.smoke) return "";
  for (const std::string& name : WorkloadNames()) {
    if (name == flags->run.workload) return "";
  }
  return "--workload wants one of the workloads below";
}

/// OSCAR_SANITIZE builds carry the flavor stamp; sanitizer flags passed
/// any other way still define these macros.
bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strcmp(OSCAR_SANITIZE_FLAVOR, "none") != 0;
#endif
}

/// Why this process cannot produce timings, or "".
std::string TimingRefusal() {
#ifndef __OPTIMIZE__
  return "unoptimized build (build type " OSCAR_BUILD_TYPE ")";
#endif
  if (std::strcmp(OSCAR_BUILD_TYPE, "Debug") == 0) return "Debug build";
  if (Sanitized()) return "sanitizer build";
  if (oscar::AuditEnabled()) return "OSCAR_AUDIT is on";
  return "";
}

/// Harness knobs (OSCAR_BENCH_*) must not leak into the workloads, and
/// the library's worker pools must run kThreads wide.
void PinEnvironment() {
  std::vector<std::string> knobs;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("OSCAR_BENCH_", 0) == 0) {
      knobs.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& knob : knobs) unsetenv(knob.c_str());
  setenv("OSCAR_THREADS", std::to_string(kThreads).c_str(), 1);
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ResultsJson(const Flags& flags, const RunReport& report) {
  const RunOptions& run = flags.run;
  std::string out = "{\n  \"workload\": " + Quote(run.workload) +
                    ",\n  \"seed\": " + std::to_string(run.seed) +
                    ",\n  \"dataset_seed\": " +
                    std::to_string(run.dataset_seed) +
                    ",\n  \"trace\": " + (run.trace ? "true" : "false") +
                    ",\n  \"seconds\": " + Number(run.seconds) +
                    ",\n  \"environment\": {\"nproc\": " +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ", \"threads\": " + std::to_string(kThreads) +
                    ", \"build_type\": " + Quote(OSCAR_BUILD_TYPE) +
                    ", \"sanitize\": " + Quote(OSCAR_SANITIZE_FLAVOR) +
                    ", \"compiler\": " + Quote(OSCAR_COMPILER_ID) +
                    ", \"commit\": " + Quote(flags.commit) + "}" +
                    ",\n  \"metrics\": " + MetricsObject(report.metrics) +
                    ",\n  \"details\": " + MetricsObject(report.details) +
                    ",\n  \"timings\": {";
  for (size_t i = 0; i < report.timings.size(); ++i) {
    const Summary& s = report.timings[i].second;
    out += std::string(i == 0 ? "" : ", ") + Quote(report.timings[i].first) +
           ": {\"n\": " + std::to_string(s.n) + ", \"min\": " +
           Number(s.min) + ", \"q1\": " + Number(s.q1) + ", \"median\": " +
           Number(s.median) + ", \"q3\": " + Number(s.q3) +
           ", \"max\": " + Number(s.max) + "}";
  }
  out += "},\n  \"attempted\": " + std::to_string(report.attempted) +
         ",\n  \"failed\": " + std::to_string(report.failed) +
         ",\n  \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(report.failures[i]);
  }
  return out + "]\n}\n";
}

std::string SpansJson(const std::string& workload,
                      const std::vector<Span>& spans) {
  std::string out = "{\"workload\": " + Quote(workload) + ", \"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += std::string(i == 0 ? "" : ",\n") + "{\"name\": " + Quote(s.name) +
           ", \"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"thread\": " + std::to_string(s.thread) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) + "}";
  }
  return out + "\n]}\n";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) std::cerr << "oscar_benchmark: cannot write " << path << "\n";
  return static_cast<bool>(out);
}

void PrintLines(const std::string& workload, const RunReport& report) {
  for (const std::vector<Metric>* set : {&report.metrics, &report.details}) {
    for (const Metric& m : *set) {
      std::cout << workload << " " << m.name << " " << Number(m.value) << " "
                << m.unit << "\n";
    }
  }
  for (const std::string& failure : report.failures) {
    std::cerr << "oscar_benchmark: " << workload << ": FAILED " << failure
              << "\n";
  }
}

/// Every workload at the smoke scale, untraced then traced. Passes when
/// every check passes and the traced spans cover the repetitions.
int Smoke(const Flags& flags) {
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    for (bool trace : {false, true}) {
      RunOptions run = flags.run;
      run.workload = name;
      run.trace = trace;
      const RunReport report = RunWorkload(run);
      PrintLines(name, report);
      ok = ok && report.failed == 0 && !report.metrics.empty();
      for (const Metric& m : report.metrics) {
        if (m.name == "bench.span_coverage" && m.value < 0.95) {
          std::cerr << "oscar_benchmark: " << name
                    << ": spans cover only " << m.value
                    << " of the repetition wall time\n";
          ok = false;
        }
      }
    }
  }
  std::cout << (ok ? "smoke: ok" : "smoke: FAILED") << "\n";
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Flags flags;
  const std::string error = Parse(argc, argv, &flags);
  if (!error.empty()) return Usage(error);
  PinEnvironment();
  if (flags.run.smoke) return Smoke(flags);

  const std::string refusal = TimingRefusal();
  if (!refusal.empty()) {
    std::cerr << "oscar_benchmark: refusing to time a run: " << refusal
              << "\n";
    return 2;
  }
  const RunReport report = RunWorkload(flags.run);
  PrintLines(flags.run.workload, report);
  if (!flags.results_dir.empty()) {
    const std::string stem = flags.results_dir + "/" + flags.run.workload +
                             (flags.run.trace ? "-trace" : "") + "-seed" +
                             std::to_string(flags.run.seed);
    WriteFile(stem + ".json", ResultsJson(flags, report));
    if (flags.run.trace) {
      WriteFile(flags.results_dir + "/spans-" + flags.run.workload + ".json",
                SpansJson(flags.run.workload, report.spans));
    }
  }
  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << MetricsObject(report.metrics) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace oscar_bench

int main(int argc, char** argv) { return oscar_bench::Main(argc, argv); }

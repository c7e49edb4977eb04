// bench_e2e: one rep of one end-to-end workload, reported as one JSON
// object on stdout. The front end (run.py) starts one such process per rep,
// one at a time, aggregates medians, checks the oracles, and prints the
// benchmark result; see README.md.
//
//   bench_e2e rep --workload NAME --seed N --scratch DIR
//                 [--traced [--trace-out FILE]] [--threads N] [--smoke]
//
// Refuses to report (exit 3) from a build without NDEBUG or with a
// sanitizer: those numbers measure the instrumentation, not the program.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "json.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

int usage() {
  std::cerr << "usage: bench_e2e rep --workload NAME --seed N --scratch DIR "
               "[--traced [--trace-out FILE]] [--threads N] [--smoke]\n";
  return 2;
}

/// This process's peak resident set in MB: VmHWM, which belongs to the
/// address space exec() created, so it holds only what the rep itself
/// touched (the parent's ru_maxrss would carry the pre-exec peak).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "<n> kB"
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  for (char ch : text) {
    if (ch < '0' || ch > '9') return false;
  }
  try {
    out = std::stoull(text);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) != "rep") return usage();

  e2e::RepOptions options;
  bool traced = false;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string text;
    if (arg == "--workload" && value(options.workload)) continue;
    if (arg == "--scratch" && value(options.scratch)) continue;
    if (arg == "--trace-out" && value(trace_out)) continue;
    if (arg == "--seed" && value(text) && parse_u64(text, options.seed)) {
      continue;
    }
    std::uint64_t threads = 0;
    if (arg == "--threads" && value(text) && parse_u64(text, threads) &&
        threads >= 1 && threads <= 64) {
      options.sim_threads = threads;
      continue;
    }
    if (arg == "--traced") {
      traced = true;
      continue;
    }
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    std::cerr << "bench_e2e: bad argument '" << arg << "'\n";
    return usage();
  }
  if (options.workload.empty() || options.scratch.empty()) return usage();
  if (!kNdebug || kSanitized) {
    std::cerr << "bench_e2e: refusing to report from a "
              << (kSanitized ? "sanitizer" : "debug (no NDEBUG)")
              << " build; build Release (run.py does)\n";
    return 3;
  }

  arcadia::Logger::instance().set_level(arcadia::LogLevel::Error);
  e2e::TraceLog log;
  if (traced) options.trace = &log;

  e2e::RepResult r;
  double rss_mb = 0.0;
  try {
    r = e2e::run_rep(options);
    rss_mb = peak_rss_mb();
    if (!trace_out.empty()) log.write(trace_out);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }

  char fingerprint[24];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(r.quality.fingerprint));
  e2e::JsonObject quality;
  quality.str("fingerprint", fingerprint)
      .count("events", r.quality.events)
      .count("repairs_committed", r.quality.repairs_committed)
      .num("repair_latency_mean_s", r.quality.repair_latency_mean_s)
      .num("client_latency_s", r.quality.client_latency_s)
      .num("client_above_share", r.quality.client_above_share);
  e2e::JsonObject build;
  build.str("build_type", E2E_BUILD_TYPE).str("compiler", __VERSION__);
  e2e::JsonObject out;
  out.str("workload", options.workload)
      .count("seed", options.seed)
      .boolean("smoke", options.smoke)
      .boolean("traced", traced)
      .count("sim_threads", options.sim_threads)
      .object("build", build)
      .count("ops", r.ops)
      .count("ops_failed", r.ops_failed)
      .strings("errors", r.errors)
      .num("setup_s", r.setup_s)
      .num("wall_s", r.wall_s)
      .num("peak_rss_mb", rss_mb)
      .object("quality", quality);
  if (traced) out.numbers("layers", r.layers);
  std::cout << out.dump() << std::endl;
  return 0;
}

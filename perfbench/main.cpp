// pbxbench: runs one workload for a fixed host-time budget and prints one
// JSON line of raw measurements (per-repetition host cost, exact counts,
// output digests, traced-run profiles and layer probes). perfbench/run.py
// turns it into the benchmark's metrics and checks it against the goldens.
//
//   pbxbench --workload W --seeds S1,S2,... --seconds T --trace 0|1
//            [--held-out-seed H]
//
// The sharded workload runs on one worker thread. Run lengths are counts
// fixed from T and the workload's nominal repetition time, so a run does
// the same work whatever the host's speed.
//
// --trace 0 runs whole cycles over the seeds (about T seconds of them on
// the reference host) and times topology builds after every repetition,
// about a second in all, so that they sample the host as the runs do.
// --trace 1 alternates untraced and traced runs of the first seed (at least
// two pairs), repeats the held-out seed twice, reruns the sharded
// workload's first seed on two workers, and runs the layer probes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

#ifndef PBXBENCH_BUILD_TYPE
#define PBXBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds{0.0};
  int trace{-1};
  std::uint64_t held_out_seed{0};
};

// Host seconds of topology builds timed in a --trace 0 run.
constexpr double kSetupSeconds = 1.0;

// The sharded workload's worker count in the traced rerun; its measured
// runs use RunOptions' default of one worker.
constexpr unsigned kParallelWorkers = 2;

// Number of `unit_reps`-repetition units that fill about `seconds`, at
// least `minimum`.
int units_for(double seconds, const std::string& workload, std::size_t unit_reps, int minimum) {
  const double unit_s = nominal_rep_seconds(workload) * static_cast<double>(unit_reps);
  return std::max(minimum, static_cast<int>(std::lround(seconds / unit_s)));
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pbxbench: %s\nusage: pbxbench --workload W --seeds S1,S2,... --seconds T "
               "--trace 0|1 [--held-out-seed H]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seeds") {
        for (std::size_t at = 0; at <= value.size();) {
          const std::size_t comma = std::min(value.find(',', at), value.size());
          a.seeds.push_back(std::stoull(value.substr(at, comma - at)));
          at = comma + 1;
        }
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--held-out-seed") {
        a.held_out_seed = std::stoull(value);
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!is_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.seeds.empty()) usage("--seeds is required");
  return a;
}

// ---- minimal JSON writer --------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string profile_json(const pbxcap::telemetry::ProfileData& p) {
  std::string out = "{\"events_processed\":" + num(p.events_processed) + ",\"categories\":[";
  for (std::size_t i = 0; i < p.categories.size(); ++i) {
    const auto& c = p.categories[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + quote(c.name) + ",\"events\":" + num(c.stats.events) +
           ",\"timed_samples\":" + num(c.stats.timed_samples) +
           ",\"timed_ns\":" + num(c.stats.timed_ns) + "}";
  }
  return out + "]}";
}

std::string rep_json(const RunOutcome& r) {
  std::string out = "{\"seed\":" + num(r.seed) + ",\"wall_s\":" + num(r.wall_s) +
                    ",\"calls\":" + num(r.calls_attempted) +
                    ",\"completed\":" + num(r.calls_completed) +
                    ",\"events\":" + num(r.events) + ",\"allocs\":" + num(r.allocs.calls) +
                    ",\"alloc_bytes\":" + num(r.allocs.bytes) +
                    ",\"sip_total\":" + num(r.report.sip_total) +
                    ",\"rtp_relayed\":" + num(r.report.rtp_relayed) +
                    ",\"transcoded_rtp\":" + num(r.report.transcoded_rtp) + ",\"digest\":{";
  for (std::size_t i = 0; i < r.digest.size(); ++i) {
    if (i > 0) out += ',';
    out += quote(r.digest[i].first) + ":" + quote(r.digest[i].second);
  }
  out += "},\"identities\":[";
  for (std::size_t i = 0; i < r.identities.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":" + quote(r.identities[i].name) +
           ",\"ok\":" + (r.identities[i].ok ? "true" : "false") +
           ",\"detail\":" + quote(r.identities[i].detail) + "}";
  }
  out += "]";
  if (!r.shards.empty()) {
    out += ",\"shard_threads\":" + num(static_cast<std::uint64_t>(r.shard_threads)) +
           ",\"shard_rounds\":" + num(r.shard_rounds) + ",\"shards\":[";
    for (std::size_t i = 0; i < r.shards.size(); ++i) {
      const auto& s = r.shards[i];
      if (i > 0) out += ',';
      out += "{\"events\":" + num(s.events) + ",\"messages_in\":" + num(s.messages_in) +
             ",\"messages_out\":" + num(s.messages_out) + ",\"wall_s\":" + num(s.wall_s) + "}";
    }
    out += "]";
  }
  if (r.profile) out += ",\"profile\":" + profile_json(*r.profile);
  return out + "}";
}

std::string reps_json(const std::vector<RunOutcome>& reps) {
  std::string out = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) out += ',';
    out += rep_json(reps[i]);
  }
  return out + "]";
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-build seconds of back-to-back topology builds, in batches of at least
// 50 ms (the doubling warm-up sizes them).
class SetupTimer {
 public:
  SetupTimer(std::string workload, RunOptions options)
      : workload_{std::move(workload)}, options_{options} {
    for (;;) {
      const auto t0 = Clock::now();
      build_batch();
      if (since(t0) >= 0.05) break;
      batch_ *= 2;
    }
  }

  /// Times whole batches for about `seconds` (at least one batch).
  void sample_for(double seconds) {
    const auto start = Clock::now();
    do {
      const auto t0 = Clock::now();
      build_batch();
      samples_.push_back(since(t0) / batch_);
    } while (since(start) < seconds);
  }

  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  void build_batch() {
    for (int i = 0; i < batch_; ++i) build_topology_only(workload_, options_);
  }

  std::string workload_;
  RunOptions options_;
  int batch_{1};
  std::vector<double> samples_;
};

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bool sharded = is_sharded(args.workload);
  RunOptions plain{.seed = args.seeds.front()};
  RunOptions traced = plain;
  traced.traced = true;

  try {
    std::string out = "{\"workload\":" + quote(args.workload) +
                      ",\"trace\":" + num(static_cast<std::uint64_t>(args.trace)) +
                      ",\"shard_workers\":" +
                      num(static_cast<std::uint64_t>(sharded ? plain.shard_workers : 0)) +
                      ",\"build_type\":" + quote(PBXBENCH_BUILD_TYPE) +
                      ",\"compiler\":" + quote(std::string{"g++ "} + __VERSION__);
    if (args.trace == 0) {
      SetupTimer setup{args.workload, plain};
      std::vector<RunOutcome> reps;
      const int cycles = units_for(args.seconds, args.workload, args.seeds.size(), 1);
      const double setup_share = kSetupSeconds / (cycles * args.seeds.size());
      for (int c = 0; c < cycles; ++c) {
        for (const std::uint64_t seed : args.seeds) {
          RunOptions options = plain;
          options.seed = seed;
          reps.push_back(run_workload(args.workload, options));
          setup.sample_for(setup_share);
        }
      }
      out += ",\"setup_s\":[";
      for (std::size_t i = 0; i < setup.samples().size(); ++i) {
        out += (i > 0 ? "," : "") + num(setup.samples()[i]);
      }
      out += "],\"reps\":" + reps_json(reps);
    } else {
      // Untraced and traced repetitions alternate so host drift hits both.
      std::vector<RunOutcome> reps;
      std::vector<RunOutcome> traced_reps;
      const int pairs = units_for(args.seconds, args.workload, 2, 2);
      for (int p = 0; p < pairs; ++p) {
        reps.push_back(run_workload(args.workload, plain));
        traced_reps.push_back(run_workload(args.workload, traced));
      }
      out += ",\"reps\":" + reps_json(reps) + ",\"traced_reps\":" + reps_json(traced_reps);
      if (args.held_out_seed != 0) {
        RunOptions held = plain;
        held.seed = args.held_out_seed;
        out += ",\"held_out_seed\":" + num(args.held_out_seed) + ",\"held_out\":" +
               reps_json({run_workload(args.workload, held), run_workload(args.workload, held)});
      }
      if (sharded) {
        RunOptions parallel = plain;
        parallel.shard_workers = kParallelWorkers;
        out += ",\"parallel\":" + reps_json({run_workload(args.workload, parallel)});
      }
      out += ",\"probes\":{";
      const ProbeResults probes = run_layer_probes(args.seeds.front());
      for (std::size_t i = 0; i < probes.size(); ++i) {
        out += (i > 0 ? "," : "") + quote(probes[i].first) + ":" + num(probes[i].second);
      }
      out += "}";
    }
    out += ",\"peak_rss_kb\":" + num(peak_rss_kb()) + "}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbxbench: %s\n", e.what());
    return 1;
  }
}

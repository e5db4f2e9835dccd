// The benchmark's three workloads, run through the library's public entry
// points (exp::run_testbed / exp::run_cluster). Each run returns host cost,
// exact counts and a digest of the simulated outputs; host timings never
// enter the digest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "exp/cluster.hpp"
#include "monitor/report.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

/// True for the names accepted by --workload.
[[nodiscard]] bool is_workload(const std::string& name);
/// True for the workload that runs on the shard executor.
[[nodiscard]] bool is_sharded(const std::string& name);
/// Host seconds of one untraced repetition on the reference host (median
/// of ten runs; the sharded workload on one worker). Run lengths are fixed
/// from it, so that a run does the same work however fast the host is.
[[nodiscard]] double nominal_rep_seconds(const std::string& name);

struct RunOptions {
  std::uint64_t seed{1};
  /// Telemetry on: profiler with sampled timing, spans, and the sampler
  /// period set beyond the horizon so no fluid stream is forced back to
  /// per-packet (a sampler tick inside the run changes the event stream).
  bool traced{false};
  /// Shard executor workers (sharded workload only).
  unsigned shard_workers{1};
};

/// (field, value) pairs in a fixed order; values are decimal integers or
/// doubles printed with 12 significant digits.
using Digest = std::vector<std::pair<std::string, std::string>>;

struct Identity {
  std::string name;
  bool ok{false};
  std::string detail;
};

struct RunOutcome {
  std::uint64_t seed{0};
  double wall_s{0.0};
  std::uint64_t calls_attempted{0};
  /// Carried calls: the per-call denominator (blocked calls carry no media).
  std::uint64_t calls_completed{0};
  std::uint64_t events{0};
  AllocCount allocs;
  Digest digest;
  std::vector<Identity> identities;
  pbxcap::monitor::ExperimentReport report;
  // Shard executor observations (sharded workload only).
  std::vector<pbxcap::exp::ClusterResult::ShardObservation> shards;
  unsigned shard_threads{0};
  std::uint64_t shard_rounds{0};
  /// Profiler snapshot of a traced run (shards merged in shard order).
  std::optional<pbxcap::telemetry::ProfileData> profile;
};

/// One full experiment; wall_s and allocs cover exactly the entry-point call.
[[nodiscard]] RunOutcome run_workload(const std::string& name, const RunOptions& options);

/// Builds and tears down the workload's topology with no call offered and no
/// drain: placement window, hold time and drain are all zero.
void build_topology_only(const std::string& name, const RunOptions& options);

}  // namespace perfbench

// Layer probes: single public functions of one layer, timed on inputs
// captured from the workloads (a real INVITE as fleet_signalling's caller
// sends it, a real RTP packet and the kernel queue depth of table1_packet).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// (metric name, value) in BENCHMARK.json's per-layer naming.
using ProbeResults = std::vector<std::pair<std::string, double>>;

/// Captures the inputs (about two seconds of simulation) and runs every
/// probe: each reports ns/op as the median of timed batches after a
/// warm-up, and allocs/op exactly over all batches.
[[nodiscard]] ProbeResults run_layer_probes(std::uint64_t seed);

}  // namespace perfbench

#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "exp/testbed.hpp"
#include "rtp/codec.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

using pbxcap::Duration;
namespace exp = pbxcap::exp;
namespace loadgen = pbxcap::loadgen;
namespace pbx = pbxcap::pbx;
namespace rtp = pbxcap::rtp;
namespace telemetry = pbxcap::telemetry;

constexpr const char* kTable1 = "table1_packet";
constexpr const char* kFleet = "fleet_signalling";
constexpr const char* kTrunk = "trunk_acd_sharded";

// Far beyond every workload's horizon (at most 150 s simulated), so the
// sampler, the profiler series and the fluid boundary guard never fire.
constexpr Duration kQuietSamplePeriod = Duration::hours(24);

// Table I's heaviest column: 240 E offered on N = 165 channels, h = 120 s
// deterministic, 180 s placement window, G.711, exact per-packet media.
exp::TestbedConfig table1_config(std::uint64_t seed) {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(240.0);
  config.pbx.max_channels = 165;
  config.seed = seed;
  return config;
}

// 550 E of 30 s G.711 calls over 32 dispatcher-fronted backends with fluid
// media. 550 E is 48% of the 1,147 G.711 streams the 100 Mbps caller link
// carries, below the load where fluid and per-packet media diverge.
exp::ClusterConfig fleet_config(std::uint64_t seed) {
  constexpr double kErlangs = 550.0;
  constexpr std::uint32_t kServers = 32;
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(kErlangs, Duration::seconds(30));
  config.servers = kServers;
  config.channels_per_server =
      static_cast<std::uint32_t>(std::ceil(1.5 * kErlangs / kServers));
  config.routing = exp::ClusterRouting::kDispatcher;
  config.fluid.enabled = true;
  config.seed = seed;
  return config;
}

// 300 E of 60 s calls over 8 backends on the shard executor (one shard per
// backend plus the hub; `workers` threads run them): per-packet
// media, a 50/50 G.729/PCMU offer mix towards a PCMU-only receiver (G.729
// legs are transcoded), 20% of calls queued at an ACD with Exp(30 s)
// patience and a 182 every 10 s, and 20 ms IAX2-style trunking on the
// uplinks.
exp::ClusterConfig trunk_config(std::uint64_t seed, unsigned workers) {
  constexpr double kErlangs = 300.0;
  constexpr std::uint32_t kServers = 8;
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(kErlangs, Duration::seconds(60));
  config.scenario.placement_window = Duration::seconds(60);
  const rtp::Codec g729 = *rtp::codec_by_payload_type(rtp::payload_type::kG729);
  config.scenario.codec_mix = {{g729, 0.5}, {rtp::g711_ulaw(), 0.5}};
  config.scenario.receiver_payload_types = {rtp::payload_type::kPcmu};
  config.allowed_payload_types = {rtp::payload_type::kG729, rtp::payload_type::kPcmu};
  config.scenario.acd.fraction = 0.2;
  config.servers = kServers;
  config.channels_per_server =
      static_cast<std::uint32_t>(std::ceil(1.5 * kErlangs / kServers));
  config.acd.enabled = true;
  config.acd.queues = {pbx::AcdQueueConfig{
      .agents = {pbx::AcdAgentSpec{.count = 6}},
      .patience = pbx::PatienceModel::kExponential,
      .patience_mean = Duration::seconds(30),
      .announce_period = Duration::seconds(10),
  }};
  config.trunk_window = Duration::millis(20);
  config.shard.enabled = true;
  config.shard.threads = workers;
  config.seed = seed;
  return config;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

Digest report_digest(const pbxcap::monitor::ExperimentReport& r) {
  Digest d;
  const auto u = [&d](const char* name, std::uint64_t v) {
    d.emplace_back(name, std::to_string(v));
  };
  const auto f = [&d](const char* name, double v) { d.emplace_back(name, fmt_double(v)); };
  u("calls_attempted", r.calls_attempted);
  u("calls_completed", r.calls_completed);
  u("calls_blocked", r.calls_blocked);
  u("calls_failed", r.calls_failed);
  u("calls_attempted_steady", r.calls_attempted_steady);
  f("blocking_probability_steady", r.blocking_probability_steady);
  u("channels_peak", r.channels_peak);
  u("sip_total", r.sip_total);
  u("sip_invite", r.sip_invite);
  u("sip_100", r.sip_100);
  u("sip_180", r.sip_180);
  u("sip_200", r.sip_200);
  u("sip_ack", r.sip_ack);
  u("sip_bye", r.sip_bye);
  u("sip_errors", r.sip_errors);
  u("sip_retransmissions", r.sip_retransmissions);
  u("rtp_packets_at_pbx", r.rtp_packets_at_pbx);
  u("rtp_relayed", r.rtp_relayed);
  u("mos_count", r.mos.count());
  f("mos_mean", r.mos.mean());
  f("mos_min", r.mos.min());
  f("mos_max", r.mos.max());
  u("acd_offered", r.acd.offered);
  u("acd_queued", r.acd.queued);
  u("acd_served", r.acd.served);
  u("acd_abandoned", r.acd.abandoned);
  u("acd_timed_out", r.acd.timed_out);
  u("acd_voicemail", r.acd.voicemail);
  u("acd_blocked_full", r.acd.blocked_full);
  u("acd_announcements", r.acd.announcements);
  u("codec_rejections_488", r.codec_rejections_488);
  u("transcoded_bridges", r.transcoded_bridges);
  u("transcoded_rtp", r.transcoded_rtp);
  u("trunk_frames", r.trunk_frames);
  u("trunk_mini_frames", r.trunk_mini_frames);
  return d;
}

// ROADMAP item 2's call-outcome conservation law, from public fields only.
Identity conservation(const pbxcap::monitor::ExperimentReport& r) {
  const std::uint64_t accounted = r.calls_completed + r.calls_blocked + r.calls_failed +
                                  r.acd.abandoned + r.acd.voicemail;
  Identity id{"calls_conserved", accounted == r.calls_attempted, ""};
  id.detail = "attempted " + std::to_string(r.calls_attempted) +
              " vs completed+blocked+failed+abandoned+voicemail " + std::to_string(accounted);
  return id;
}

telemetry::Config traced_config() {
  telemetry::Config cfg;
  cfg.profiling = true;
  // Time 1 fire in 16 (default 1 in 256) so that rare categories such as
  // fluid flushes and ACD timers still get samples.
  cfg.profile_sample_period = 16;
  cfg.sample_period = kQuietSamplePeriod;
  return cfg;
}

using Clock = std::chrono::steady_clock;

}  // namespace

bool is_workload(const std::string& name) {
  return name == kTable1 || name == kFleet || name == kTrunk;
}

bool is_sharded(const std::string& name) { return name == kTrunk; }

double nominal_rep_seconds(const std::string& name) {
  if (name == kTable1) return 5.2;
  return name == kFleet ? 0.63 : 2.7;
}

RunOutcome run_workload(const std::string& name, const RunOptions& options) {
  if (!is_workload(name)) throw std::invalid_argument{"unknown workload: " + name};
  std::optional<telemetry::Telemetry> tel;
  if (options.traced) tel.emplace(traced_config());

  RunOutcome out;
  out.seed = options.seed;
  if (name == kTable1) {
    exp::TestbedConfig config = table1_config(options.seed);
    if (tel) config.telemetry = &*tel;
    const AllocCount a0 = alloc_count();
    const auto t0 = Clock::now();
    out.report = exp::run_testbed(config);
    out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    out.allocs = alloc_count() - a0;
    out.digest = report_digest(out.report);
    if (tel) out.profile = tel->profiler()->snapshot();
  } else {
    exp::ClusterConfig config =
        name == kFleet ? fleet_config(options.seed)
                       : trunk_config(options.seed, options.shard_workers);
    if (tel) config.telemetry = &*tel;
    const AllocCount a0 = alloc_count();
    const auto t0 = Clock::now();
    exp::ClusterResult result = exp::run_cluster(config);
    out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    out.allocs = alloc_count() - a0;
    out.report = result.report;
    out.digest = report_digest(out.report);
    out.digest.emplace_back("uplink_bytes", std::to_string(result.uplink_bytes));
    out.digest.emplace_back("uplink_packets", std::to_string(result.uplink_packets));
    out.digest.emplace_back("failovers", std::to_string(result.failovers));
    out.digest.emplace_back("dispatch_rejected", std::to_string(result.dispatch_rejected));
    out.digest.emplace_back("probes_sent", std::to_string(result.probes_sent));
    out.shards = result.shards;
    out.shard_threads = result.shard_threads;
    out.shard_rounds = result.shard_rounds;
    if (config.shard.enabled) {
      out.identities.push_back({"shard_clamped_zero", result.shard_clamped == 0,
                                "shard_clamped " + std::to_string(result.shard_clamped)});
    }
    if (tel) {
      if (result.shard_profiles.empty()) {
        out.profile = tel->profiler()->snapshot();
      } else {
        out.profile = telemetry::ProfileData{};
        for (const auto& shard : result.shard_profiles) out.profile->merge(shard.data);
      }
    }
  }
  out.calls_attempted = out.report.calls_attempted;
  out.calls_completed = out.report.calls_completed;
  out.events = out.report.events_processed;
  out.identities.insert(out.identities.begin(), conservation(out.report));
  return out;
}

void build_topology_only(const std::string& name, const RunOptions& options) {
  const auto quiet = [](loadgen::CallScenario& s) {
    s.placement_window = Duration::zero();
    s.hold_time = Duration::zero();
  };
  if (name == kTable1) {
    exp::TestbedConfig config = table1_config(options.seed);
    quiet(config.scenario);
    config.drain = Duration::zero();
    (void)exp::run_testbed(config);
    return;
  }
  exp::ClusterConfig config = name == kFleet ? fleet_config(options.seed)
                                             : trunk_config(options.seed, options.shard_workers);
  quiet(config.scenario);
  config.drain = Duration::zero();
  (void)exp::run_cluster(config);
}

}  // namespace perfbench

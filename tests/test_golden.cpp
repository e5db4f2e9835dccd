// Golden output digests for the experiment run paths.
//
// Every other test compares a run with itself (same seed twice, or one
// seed at several worker counts). These pin what run_testbed and
// run_cluster produce across code changes: each case hashes the report,
// the ClusterResult fields, the Prometheus and JSON registry exports, the
// per-second series CSV and the span traces, and compares the hashes with
// stored values. A refactor of the run paths must leave every digest
// unchanged; a change that is meant to alter simulated output re-records
// them (the failure message prints the new values).
//
// What the simulator spends (kernel events, shard rounds, the profiler's
// per-category event counts) is hashed apart, into `cost=`. A change that
// only makes the kernel do less work re-records `cost=` alone, so it cannot
// hide a change of the model inside a re-recorded model digest.
//
// Doubles are hashed as %.17g, so the digests assume IEEE-754 binary64
// arithmetic without contraction (x86-64 SSE2 builds) and the same libm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "fault/plan.hpp"
#include "rtp/codec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pbxcap;

/// FNV-1a 64 over "key=value\n" lines.
class Hash {
 public:
  void text(std::string_view key, std::string_view value) {
    mix(key);
    mix("=");
    mix(value);
    mix("\n");
  }
  void u(std::string_view key, std::uint64_t v) { text(key, std::to_string(v)); }
  void f(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    text(key, buf);
  }
  void summary(std::string_view key, const stats::Summary& s) {
    const std::string k{key};
    u(k + ".count", s.count());
    f(k + ".mean", s.mean());
    f(k + ".min", s.min());
    f(k + ".max", s.max());
    f(k + ".variance", s.variance());
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t h_{14695981039346656037ULL};
};

std::string report_hash(const monitor::ExperimentReport& r) {
  Hash h;
  h.f("offered_erlangs", r.offered_erlangs);
  h.f("arrival_rate_per_s", r.arrival_rate_per_s);
  h.u("hold_time_ns", static_cast<std::uint64_t>(r.hold_time.ns()));
  h.u("seed", r.seed);
  h.u("calls_attempted", r.calls_attempted);
  h.u("calls_completed", r.calls_completed);
  h.u("calls_blocked", r.calls_blocked);
  h.u("calls_failed", r.calls_failed);
  h.f("blocking_probability", r.blocking_probability);
  h.f("blocking_probability_steady", r.blocking_probability_steady);
  h.u("calls_attempted_steady", r.calls_attempted_steady);
  h.u("channels_configured", r.channels_configured);
  h.u("channels_peak", r.channels_peak);
  h.summary("cpu_utilization", r.cpu_utilization);
  h.u("rtp_packets_at_pbx", r.rtp_packets_at_pbx);
  h.u("rtp_relayed", r.rtp_relayed);
  h.u("codec_rejections_488", r.codec_rejections_488);
  h.u("transcoded_bridges", r.transcoded_bridges);
  h.u("transcoded_rtp", r.transcoded_rtp);
  h.u("trunk_frames", r.trunk_frames);
  h.u("trunk_mini_frames", r.trunk_mini_frames);
  h.summary("mos", r.mos);
  h.summary("setup_delay_ms", r.setup_delay_ms);
  h.summary("effective_loss", r.effective_loss);
  h.summary("jitter_ms", r.jitter_ms);
  h.u("sip_total", r.sip_total);
  h.u("sip_invite", r.sip_invite);
  h.u("sip_100", r.sip_100);
  h.u("sip_180", r.sip_180);
  h.u("sip_200", r.sip_200);
  h.u("sip_ack", r.sip_ack);
  h.u("sip_bye", r.sip_bye);
  h.u("sip_errors", r.sip_errors);
  h.u("sip_retransmissions", r.sip_retransmissions);
  h.u("acd.offered", r.acd.offered);
  h.u("acd.queued", r.acd.queued);
  h.u("acd.served", r.acd.served);
  h.u("acd.abandoned", r.acd.abandoned);
  h.u("acd.timed_out", r.acd.timed_out);
  h.u("acd.voicemail", r.acd.voicemail);
  h.u("acd.blocked_full", r.acd.blocked_full);
  h.u("acd.announcements", r.acd.announcements);
  h.u("acd.serve_retries", r.acd.serve_retries);
  h.u("acd.serve_failures", r.acd.serve_failures);
  h.summary("acd.wait_s", r.acd.wait_s);
  h.summary("acd.wait_served_s", r.acd.wait_served_s);
  h.f("acd.busy_agent_s", r.acd.busy_agent_s);
  h.u("acd.agents", r.acd.agents);
  h.u("overload_rejections", r.overload_rejections);
  h.u("calls_retried", r.calls_retried);
  h.u("retries_rerouted", r.retries_rerouted);
  h.u("sip_queue_dropped", r.sip_queue_dropped);
  h.u("link_dropped_impairment", r.link_dropped_impairment);
  return h.hex();
}

/// Every deterministic ClusterResult field except the report (hashed on its
/// own), the merged trace (hashed as an export) and the executor's costs:
/// per-shard events, rounds and profiles, hashed by cost_hash. shard_threads
/// and the per-shard wall_s depend on the worker count and the host, so they
/// are checked by the cases, not hashed.
std::string result_hash(const exp::ClusterResult& r) {
  Hash h;
  h.u("backends", r.backends.size());
  for (const exp::BackendObservation& b : r.backends) {
    h.text("host", b.host);
    h.u("channels", b.channels);
    h.u("peak_channels", b.peak_channels);
    h.u("congestion", b.congestion);
    h.u("rtp_relayed", b.rtp_relayed);
    h.u("crashes", b.crashes);
    h.summary("cpu_utilization", b.cpu_utilization);
    h.u("calls_routed", b.calls_routed);
    h.u("probe_failures", b.probe_failures);
    h.u("circuit_opens", b.circuit_opens);
    h.u("final_circuit", static_cast<std::uint64_t>(b.final_circuit));
  }
  for (const std::uint32_t p : r.peak_channels_per_server) h.u("peak", p);
  for (const std::uint64_t c : r.congestion_per_server) h.u("congestion", c);
  h.u("uplink_bytes", r.uplink_bytes);
  h.u("uplink_packets", r.uplink_packets);
  h.u("failovers", r.failovers);
  h.u("dispatch_rejected", r.dispatch_rejected);
  h.u("probes_sent", r.probes_sent);
  h.u("probe_failures", r.probe_failures);
  h.u("circuit_opens", r.circuit_opens);
  h.u("shards", r.shards.size());
  for (const exp::ClusterResult::ShardObservation& s : r.shards) {
    h.u("messages_in", s.messages_in);
    h.u("messages_out", s.messages_out);
  }
  h.u("shard_clamped", r.shard_clamped);
  return h.hex();
}

std::string text_hash(const std::string& text) {
  Hash h;
  h.text("bytes", text);
  return h.hex();
}

/// The run's telemetry exports, one hash each.
std::string telemetry_hashes(const telemetry::Telemetry& tel) {
  std::string out;
  out += " prom=" + text_hash(telemetry::to_prometheus(tel.registry()));
  out += " json=" + text_hash(telemetry::to_json(tel.registry()));
  out += " csv=" + text_hash(tel.sampler().to_csv());
  if (tel.tracer() != nullptr) {
    out += " trace=" + text_hash(telemetry::to_chrome_trace(*tel.tracer()));
  }
  return out;
}

/// The simulator's own work: events processed, per-shard events and
/// rounds, the profiler snapshot and the shard attribution. `result` is
/// null for a testbed run.
std::string cost_hash(const monitor::ExperimentReport& report, const telemetry::Telemetry& tel,
                      const exp::ClusterResult* result) {
  Hash h;
  h.u("events_processed", report.events_processed);
  if (tel.profiler() != nullptr) {
    h.text("profile", telemetry::to_json(tel.profiler()->snapshot()));
  }
  if (result != nullptr) {
    for (const exp::ClusterResult::ShardObservation& s : result->shards) {
      h.u("events", s.events);
    }
    h.u("shard_rounds", result->shard_rounds);
    h.text("attribution", telemetry::attribution_json(result->shard_profiles));
  }
  return " cost=" + h.hex();
}

std::string cluster_hashes(const exp::ClusterResult& result, const telemetry::Telemetry& tel) {
  std::string out = "report=" + report_hash(result.report) + " result=" + result_hash(result);
  out += telemetry_hashes(tel);
  out += " merged_trace=" + text_hash(result.merged_trace);
  out += cost_hash(result.report, tel, &result);
  return out;
}

telemetry::Config traced_and_profiled() {
  telemetry::Config cfg;
  cfg.profiling = true;
  return cfg;
}

exp::ClusterConfig small_cluster(double erlangs, std::uint32_t servers, std::uint64_t seed) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(90);
  config.servers = servers;
  config.channels_per_server = 12;
  config.seed = seed;
  return config;
}

/// G.729/PCMU offers towards a PCMU-only receiver (transcoded bridges), a
/// fifth of the calls queued at an ACD with Exp patience, and 20 ms
/// IAX2-style trunking on the uplinks.
void add_trunk_and_acd(exp::ClusterConfig& config) {
  const rtp::Codec g729 = *rtp::codec_by_payload_type(rtp::payload_type::kG729);
  config.scenario.codec_mix = {{g729, 0.5}, {rtp::g711_ulaw(), 0.5}};
  config.scenario.receiver_payload_types = {rtp::payload_type::kPcmu};
  config.allowed_payload_types = {rtp::payload_type::kG729, rtp::payload_type::kPcmu};
  config.scenario.acd.fraction = 0.2;
  config.acd.enabled = true;
  config.acd.queues = {pbx::AcdQueueConfig{
      .agents = {pbx::AcdAgentSpec{.count = 3}},
      .patience = pbx::PatienceModel::kExponential,
      .patience_mean = Duration::seconds(15),
      .announce_period = Duration::seconds(5),
  }};
  config.trunk_window = Duration::millis(20);
}

TEST(Golden, TestbedWithFaultsAndTelemetry) {
  const auto plan = fault::FaultPlan::parse(
      "@10s link client loss=0.05 jitter_mean=4ms jitter_stddev=2ms\n"
      "@20s link pbx blackout=on\n"
      "@21s link pbx blackout=off\n"
      "@30s pbx stall 500ms\n"
      "@40s pbx crash dead=4s\n");
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(14.0, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(90);
  config.pbx.max_channels = 12;
  config.seed = 71;
  config.faults = &plan;
  telemetry::Telemetry tel{traced_and_profiled()};
  config.telemetry = &tel;
  const monitor::ExperimentReport report = exp::run_testbed(config);
  EXPECT_GT(report.calls_completed, 0u);
  EXPECT_EQ("report=" + report_hash(report) + telemetry_hashes(tel) +
                cost_hash(report, tel, nullptr),
            "report=1d8ae6650e6c0d24 prom=f4dbe2184833e2fb "
            "json=069fe20eb02ca51d csv=f6139f96590a1036 "
            "trace=ef11160fe7299f2f cost=4e9ec4137eb2cbae");
}

TEST(Golden, DnsClusterWithBackendFaultAndTelemetry) {
  const auto plan = fault::FaultPlan::parse(
      "@15s link pbx loss=0.1\n"
      "@25s pbx crash dead=10s\n");
  exp::ClusterConfig config = small_cluster(36.0, 3, 72);
  config.faults = &plan;
  config.fault_backend = 1;
  telemetry::Telemetry tel;
  config.telemetry = &tel;
  const exp::ClusterResult result = exp::run_cluster(config);
  ASSERT_EQ(result.backends.size(), 3u);
  EXPECT_EQ(result.backends[1].crashes, 1u);
  EXPECT_TRUE(result.shards.empty());
  EXPECT_EQ(result.shard_threads, 0u);
  EXPECT_EQ(cluster_hashes(result, tel),
            "report=dbce38241dc4e554 result=f79d71739a0c1616 "
            "prom=849465434a4e1581 json=3f8e600e43e2f8c2 "
            "csv=ead87ec361949f84 trace=8008e75787024e5e "
            "merged_trace=bae610ca660823c3 cost=e08d8e7c746bc6df");
}

TEST(Golden, DispatcherClusterWithFluidAcdAndTrunking) {
  exp::ClusterConfig config = small_cluster(30.0, 3, 73);
  config.routing = exp::ClusterRouting::kDispatcher;
  config.dispatcher.policy = dispatch::Policy::kLeastLoaded;
  config.fluid.enabled = true;
  add_trunk_and_acd(config);
  telemetry::Telemetry tel{traced_and_profiled()};
  config.telemetry = &tel;
  const exp::ClusterResult result = exp::run_cluster(config);
  EXPECT_GT(result.report.acd.offered, 0u);
  EXPECT_GT(result.report.trunk_frames, 0u);
  EXPECT_TRUE(result.shards.empty());
  EXPECT_EQ(cluster_hashes(result, tel),
            "report=4f4175743aabf025 result=fa0884fc380fb65b "
            "prom=d45209758cd836f1 json=98d188f40893e71c "
            "csv=73f56994c0c18d3a trace=1ee38d7225ca8de7 "
            "merged_trace=bae610ca660823c3 cost=d2750f4bac4e1859");
}

TEST(Golden, ShardedDispatcherClusterWithCrashTrunkingAndAcd) {
  const auto plan = fault::FaultPlan::parse("@15s pbx crash dead=20s\n");
  for (const unsigned workers : {1u, 2u}) {
    SCOPED_TRACE(workers);
    exp::ClusterConfig config = small_cluster(30.0, 3, 74);
    config.routing = exp::ClusterRouting::kDispatcher;
    config.dispatcher.policy = dispatch::Policy::kLeastLoaded;
    config.faults = &plan;
    config.fault_backend = 1;
    add_trunk_and_acd(config);
    config.shard.enabled = true;
    config.shard.threads = workers;
    telemetry::Telemetry tel{traced_and_profiled()};
    config.telemetry = &tel;
    const exp::ClusterResult result = exp::run_cluster(config);
    ASSERT_EQ(result.shards.size(), 4u);
    EXPECT_EQ(result.shard_threads, workers);
    EXPECT_EQ(result.backends[1].crashes, 1u);
    EXPECT_FALSE(result.merged_trace.empty());
    EXPECT_EQ(result.shard_profiles.size(), 4u);
    EXPECT_EQ(cluster_hashes(result, tel),
              "report=1895d3c66f67ed72 result=4022537bbac6e2a4 "
              "prom=7ca4962e16f290b5 json=a8be92d608f02e79 "
              "csv=835bdd8b31a62d79 trace=8f8a1bfb17d7c034 "
              "merged_trace=8ed67de7fbedbe97 cost=0a5daa70bff3b855");
  }
}

}  // namespace

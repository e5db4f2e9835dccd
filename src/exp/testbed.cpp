#include "exp/testbed.hpp"

#include <algorithm>
#include <optional>

#include "exp/report_util.hpp"
#include "fault/injector.hpp"
#include "loadgen/caller.hpp"
#include "loadgen/receiver.hpp"
#include "monitor/capture.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"

namespace pbxcap::exp {

monitor::ExperimentReport run_testbed(const TestbedConfig& config, WifiObservations* wifi_out) {
  sim::Simulator simulator;
  sim::Random master{config.seed};
  sim::Random impairment_rng = master.fork();
  sim::Random arrival_rng = master.fork();

  net::Network network{simulator, impairment_rng};
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;

  net::SwitchNode lan_switch{"switch"};
  pbx::AsteriskPbx pbx{config.pbx, simulator, resolver};
  loadgen::SipCaller caller{"sipp-client.unb.br", config.pbx.host, simulator, resolver, ssrcs,
                            config.scenario, arrival_rng};
  loadgen::SipReceiver receiver{"sipp-server.unb.br", simulator, resolver, ssrcs,
                                config.scenario};

  net::WifiCell wifi_cell{"ap", config.wifi_cell.value_or(net::WifiCellConfig{})};

  network.attach(lan_switch);
  network.attach(pbx);
  network.attach(caller);
  network.attach(receiver);
  net::Link* client_link = nullptr;
  if (config.wifi_cell) {
    // VoWiFi access: caller -> AP (radio) -> switch (wired uplink).
    network.attach(wifi_cell);
    client_link = &network.connect(caller, wifi_cell, config.client_link);
    net::Link& uplink = network.connect(wifi_cell, lan_switch, {});
    wifi_cell.set_uplink(uplink);
    lan_switch.add_route(caller.id(), uplink);
  } else {
    client_link = &network.connect(caller, lan_switch, config.client_link);
  }
  net::Link& server_link = network.connect(receiver, lan_switch, config.server_link);
  net::Link& pbx_link = network.connect(pbx, lan_switch, config.pbx_link);
  pbx.bind();
  caller.bind();
  receiver.bind();

  const bool fluid_on = config.fluid.enabled && !config.wifi_cell;
  rtp::FluidConfig fluid_cfg = config.fluid;
  fluid_cfg.enabled = fluid_on;
  rtp::FluidEngine fluid_engine{simulator, fluid_cfg};
  if (fluid_on) {
    fluid_engine.watch_link(*client_link);
    fluid_engine.watch_link(server_link);
    fluid_engine.watch_link(pbx_link);
    caller.set_fluid_engine(&fluid_engine);
    receiver.set_fluid_engine(&fluid_engine);
  }

  // Dialplan: every recv-* extension terminates on the SIP server host, and
  // so do the agent legs of ACD calls (the receiver plays every agent).
  pbx.dialplan().add("recv-", receiver.sip_host());
  pbx.dialplan().add("queue-", receiver.sip_host());
  pbx.directory().allow_prefix("caller-");

  monitor::SipCapture sip_capture{pbx.id()};
  monitor::RtpCapture rtp_capture{pbx.id()};
  sip_capture.attach(network);
  rtp_capture.attach(network);
  if (config.trace != nullptr) config.trace->attach(network);

  telemetry::Telemetry* tel = config.telemetry;
  const bool tel_on = tel != nullptr && tel->enabled();
  if (tel_on) {
    pbx.set_telemetry(tel);
    caller.set_telemetry(tel);
    receiver.set_telemetry(tel);

    // Per-second series. Probes capture locals of this frame; they only run
    // while the simulator below is running, so the references stay valid.
    auto& sampler = tel->sampler();
    const Duration period = tel->config().sample_period;
    sampler.add_gauge("active_channels",
                      [&pbx] { return static_cast<double>(pbx.channels().in_use()); });
    sampler.add_gauge("cpu_utilization", [&pbx, &simulator, period] {
      // Utilization over the elapsed part of the last sample period.
      const TimePoint now = simulator.now();
      const Duration back = std::min(period, now - TimePoint::origin());
      return back > Duration::zero() ? pbx.cpu().utilization(now - back, now).mean() : 0.0;
    });
    // Live cumulative P_b = blocked so far / placed so far. The call log's
    // own blocking_probability() only counts *finalized* calls in its
    // denominator — blocked calls finalize instantly but completed ones only
    // at teardown, which would spike the mid-run curve toward 1.0 right when
    // the pool first saturates.
    const telemetry::Counter& offered =
        tel->registry().counter("pbxcap_caller_calls_offered_total");
    sampler.add_gauge("blocking_probability", [&caller, &offered] {
      const auto placed = static_cast<double>(offered.value());
      return placed > 0.0 ? static_cast<double>(caller.log().blocked()) / placed : 0.0;
    });
    sampler.add_rate("calls_blocked_per_s",
                     [&caller] { return static_cast<double>(caller.log().blocked()); });
    sampler.add_rate("sip_msgs_per_s",
                     [&sip_capture] { return static_cast<double>(sip_capture.total()); });
    sampler.add_rate("rtp_pkts_per_s",
                     [&rtp_capture] { return static_cast<double>(rtp_capture.packets_in()); });
    if (config.pbx.sip_service.enabled) {
      sampler.add_gauge("sip_queue_depth",
                        [&pbx] { return static_cast<double>(pbx.sip_backlog()); });
    }
    if (config.pbx.acd.enabled) {
      sampler.add_gauge("acd_queue_depth",
                        [&pbx] { return static_cast<double>(pbx.acd().total_depth()); });
    }
    start_telemetry(*tel, simulator, fluid_on ? &fluid_engine : nullptr,
                    /*profile_series=*/true);
  }

  std::optional<fault::FaultInjector> injector;
  if (config.faults != nullptr && !config.faults->empty()) {
    arm_faults(injector, simulator, *config.faults,
               fault::FaultTargets{client_link, &server_link, &pbx_link, &pbx},
               fluid_on ? &fluid_engine : nullptr, tel_on ? tel->tracer() : nullptr);
  }

  fluid_engine.start();
  caller.start();
  simulator.run_until(TimePoint::at(run_horizon(config.scenario, config.drain)));
  caller.finalize_remaining();

  if (tel_on) {
    stop_telemetry(*tel);
    // Mirror the NIC-tap message census and ring drop counts into the
    // registry so one Prometheus snapshot carries the full picture.
    auto& reg = tel->registry();
    for (const auto& [key, v] : sip_capture.counters().all()) {
      reg.counter("pbxcap_sip_messages_observed_total", {{"type", key}},
                  "SIP messages by method/status observed at the PBX NIC")
          .add(v);
    }
    reg.counter("pbxcap_sip_errors_observed_total", {},
                "Error responses (>= 400) observed at the PBX NIC")
        .add(sip_capture.errors());
    if (config.trace != nullptr) {
      reg.counter("pbxcap_trace_events_dropped_total", {},
                  "Packet-trace ring overwrites (oldest events lost)")
          .add(config.trace->dropped());
    }
    if (tel->tracer() != nullptr) {
      reg.counter("pbxcap_trace_spans_dropped_total", {},
                  "Span-ring overwrites (oldest spans lost)")
          .add(tel->tracer()->dropped());
    }
    if (config.faults != nullptr) {
      // Chaos runs get the per-link drop census; plain runs skip it so their
      // exports stay byte-identical to the pre-fault-injection era.
      const auto mirror = [&reg](const char* name, const net::Link& link) {
        const net::LinkDirectionStats& fwd = link.stats_from(link.endpoint_a());
        const net::LinkDirectionStats& rev = link.stats_from(link.endpoint_b());
        const auto add = [&](const char* reason, std::uint64_t v) {
          reg.counter("pbxcap_link_dropped_total", {{"link", name}, {"reason", reason}},
                      "Packets dropped by testbed links, by cause")
              .add(v);
        };
        add("queue_full", fwd.dropped_queue_full + rev.dropped_queue_full);
        add("random_loss", fwd.dropped_random_loss + rev.dropped_random_loss);
        add("impairment", fwd.dropped_impairment + rev.dropped_impairment);
      };
      if (client_link != nullptr) mirror("client", *client_link);
      mirror("server", server_link);
      mirror("pbx", pbx_link);
    }
  }

  merge_callee_quality(caller, receiver);
  monitor::ExperimentReport report =
      build_report(config.scenario, config.seed, caller, receiver,
                   {{&pbx, &sip_capture, &rtp_capture}},
                   {&server_link, &pbx_link, client_link}, simulator.events_processed());

  if (wifi_out != nullptr && config.wifi_cell) {
    wifi_out->medium_utilization = wifi_cell.medium_utilization(simulator.now());
    wifi_out->frames_forwarded = wifi_cell.frames_forwarded();
    wifi_out->frames_dropped_queue = wifi_cell.frames_dropped_queue();
    wifi_out->frames_dropped_radio = wifi_cell.frames_dropped_radio();
  }
  return report;
}

monitor::ExperimentReport run_offered_load(double erlangs, std::uint64_t seed,
                                           std::uint32_t max_channels) {
  TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs);
  config.pbx.max_channels = max_channels;
  config.seed = seed;
  return run_testbed(config);
}

}  // namespace pbxcap::exp

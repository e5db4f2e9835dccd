// run_cluster: the Fig. 4 testbed with k PBX backends behind one switch.
//
// The hub — caller bank, receiver, switch, routing tier, access links and
// fluid engine — is built once. Each backend is then placed one of two ways:
//
//   monolithic (default)  attached to the hub network, on the hub simulator.
//   sharded               its own shard (simulator, network, resolver,
//   (shard.enabled)       private telemetry) joined to the switch through a
//                         portal pair; exp::ShardExecutor synchronizes the
//                         shards conservatively. Shard 0 is the hub, shard
//                         1 + i backend i.
//
// A sharded uplink is split into two half-links, one per shard, each owning
// one direction's queue/impairment state (Link direction state is
// independent, so the split is exact). Packets a Link would deliver to a
// portal become timestamped cross-shard messages, with node ids translated
// at the boundary so each shard's Network stays self-contained. Cross-shard
// propagation is floored to the executor lookahead (default 1 ms vs the
// monolithic 5 us): the accuracy cost of the parallel mode, and the reason
// sharded results are compared across worker counts, not with the
// monolithic run. Window schedule, drain order, id translation and the
// post-run merge of backend telemetry (in shard order) are worker-count
// independent, so per-seed outputs are byte-identical for any thread count.
//
// Dialplan, capture taps, fluid link watching, sampler gauges, fault arming,
// the report and the per-backend epilogue are one loop over the backends for
// both placements.
#include "exp/cluster.hpp"

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/report_util.hpp"
#include "exp/shard_exec.hpp"
#include "fault/injector.hpp"
#include "loadgen/caller.hpp"
#include "loadgen/receiver.hpp"
#include "monitor/capture.hpp"
#include "net/network.hpp"
#include "net/portal.hpp"
#include "net/switch_node.hpp"
#include "net/trunk.hpp"
#include "rtp/fluid.hpp"
#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "util/strings.hpp"

namespace pbxcap::exp {

namespace {

/// Node-id translation table for one hub <-> backend boundary.
struct ShardIdMap {
  // Hub-side ids.
  net::NodeId hub_caller{net::kInvalidNode};
  net::NodeId hub_receiver{net::kInvalidNode};
  net::NodeId hub_dispatcher{net::kInvalidNode};
  net::NodeId hub_switch{net::kInvalidNode};
  net::NodeId hub_portal{net::kInvalidNode};  // P_i, stands in for the pbx
  // Backend-side ids.
  net::NodeId be_caller{net::kInvalidNode};
  net::NodeId be_receiver{net::kInvalidNode};
  net::NodeId be_dispatcher{net::kInvalidNode};
  net::NodeId be_portal{net::kInvalidNode};  // S_i, stands in for the switch
  net::NodeId be_pbx{net::kInvalidNode};

  [[nodiscard]] net::NodeId to_backend(net::NodeId hub_id) const {
    if (hub_id == hub_caller) return be_caller;
    if (hub_id == hub_receiver) return be_receiver;
    if (hub_id == hub_dispatcher) return be_dispatcher;
    throw std::logic_error{"run_cluster: untranslatable hub node id"};
  }

  [[nodiscard]] net::NodeId to_hub(net::NodeId be_id) const {
    if (be_id == be_caller) return hub_caller;
    if (be_id == be_receiver) return hub_receiver;
    if (be_id == be_dispatcher) return hub_dispatcher;
    throw std::logic_error{"run_cluster: untranslatable backend node id"};
  }
};

/// A sharded backend's own shard: the pbx half of the uplink ends at a
/// portal standing in for the switch; unlinked stand-ins give the resolver
/// ids for the remote SIP hosts (they never receive locally).
struct BackendShard {
  sim::Simulator sim;
  net::Network net;
  sip::HostResolver resolver;
  net::PortalNode to_switch{"portal-switch"};
  net::PortalNode caller_stub{"stub-sipp-client"};
  net::PortalNode receiver_stub{"stub-sipp-server"};
  net::PortalNode dispatcher_stub{"stub-dispatcher"};
  net::Link* uplink{nullptr};      // pbx half of the uplink
  telemetry::Telemetry telemetry;  // private; merged post-run in shard order
  std::optional<fault::FaultInjector> injector;

  BackendShard(sim::Random impairment, const telemetry::Config& tel_cfg)
      : net{sim, std::move(impairment)}, telemetry{tel_cfg} {}
};

/// One fleet member, wherever it runs.
struct Backend {
  std::unique_ptr<BackendShard> shard;  // null: attached to the hub network
  std::unique_ptr<pbx::AsteriskPbx> pbx;
  std::unique_ptr<net::PortalNode> portal;  // sharded: the pbx's stand-in on the hub
  net::Link* hub_link{nullptr};             // the uplink, or its hub half
  std::optional<monitor::SipCapture> sip_capture;
  std::optional<monitor::RtpCapture> rtp_capture;

  /// The links carrying the uplink: the whole link, or both halves.
  [[nodiscard]] std::array<const net::Link*, 2> uplinks() const {
    return {hub_link, shard ? shard->uplink : nullptr};
  }
};

pbx::PbxConfig backend_pbx_config(const ClusterConfig& config, const ServerSpec& spec,
                                  std::size_t i) {
  pbx::PbxConfig pbx_config;
  pbx_config.host = util::format("pbx%u.unb.br", static_cast<unsigned>(i));
  pbx_config.max_channels = spec.channels;
  pbx_config.sip_service = config.sip_service;
  pbx_config.overload = config.overload;
  if (!config.allowed_payload_types.empty()) {
    pbx_config.allowed_payload_types = config.allowed_payload_types;
  }
  pbx_config.acd = config.acd;
  // Independent patience streams per backend, deterministic in i only (so
  // shards stay deterministic at any worker count).
  pbx_config.acd.seed = config.acd.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
  return pbx_config;
}

/// Joins one backend shard to the hub through the executor: both networks
/// hand packets bound for their portal to the other shard, translated.
void join_shard(ShardExecutor& exec, std::size_t backend_shard, const ShardIdMap& map,
                net::Network& hub_net, net::Network& backend_net) {
  // hub -> backend: the packet was heading for portal P_i; it enters the
  // backend shard off the uplink as a delivery to the pbx.
  hub_net.set_remote_sink(
      map.hub_portal, [&exec, map, backend_shard, net = &backend_net](
                          net::Packet&& pkt, net::NodeId /*from*/, TimePoint deliver_at) {
        if (pkt.kind == net::PacketKind::kTrunk) {
          // Trunk shell off the hub half of the uplink: translate every
          // aggregated frame like a bare delivery; the shell itself is
          // link-local framing and just needs backend-valid endpoints.
          net::remap_trunk_frames(pkt, [&map](net::Packet& inner) {
            inner.src = map.to_backend(inner.src);
            inner.dst = map.be_pbx;
          });
          pkt.src = map.be_portal;
          pkt.dst = map.be_pbx;
        } else {
          pkt.src = map.to_backend(pkt.src);
          pkt.dst = map.be_pbx;
        }
        exec.post(0, backend_shard, deliver_at.ns(),
                  [net, p = std::move(pkt), from = map.be_portal] {
                    net->deliver(p, from, p.dst);
                  });
      });

  // backend -> hub: the packet was heading for portal S_i; it enters the
  // hub shard off the uplink as a delivery to the switch, which re-routes
  // by dst (paying its processing delay) exactly as in the monolithic run.
  backend_net.set_remote_sink(
      map.be_portal, [&exec, map, backend_shard, net = &hub_net](
                         net::Packet&& pkt, net::NodeId /*from*/, TimePoint deliver_at) {
        if (pkt.src != map.be_pbx) {
          throw std::logic_error{"run_cluster: unexpected backend egress source"};
        }
        pkt.src = map.hub_portal;
        if (pkt.kind == net::PacketKind::kTrunk) {
          // The shell is unwrapped at the hub switch; each aggregated
          // frame then re-routes by its own translated dst.
          net::remap_trunk_frames(pkt, [&map](net::Packet& inner) {
            inner.src = map.hub_portal;
            inner.dst = map.to_hub(inner.dst);
          });
          pkt.dst = map.hub_switch;
        } else {
          pkt.dst = map.to_hub(pkt.dst);
        }
        exec.post(backend_shard, 0, deliver_at.ns(),
                  [net, p = std::move(pkt), from = map.hub_portal, to = map.hub_switch] {
                    net->deliver(p, from, to);
                  });
      });
}

}  // namespace

ClusterResult run_cluster(const ClusterConfig& config) {
  // Resolve the fleet: explicit heterogeneous specs, or the homogeneous
  // servers x channels_per_server shorthand.
  std::vector<ServerSpec> fleet = config.fleet;
  if (fleet.empty()) {
    if (config.servers == 0) {
      throw std::invalid_argument{"run_cluster: need at least one server"};
    }
    fleet.assign(config.servers, ServerSpec{config.channels_per_server, 0});
  }
  if (config.faults != nullptr && config.fault_backend >= fleet.size()) {
    throw std::invalid_argument{"run_cluster: fault_backend is not a backend of the fleet"};
  }
  const bool sharded = config.shard.enabled;
  telemetry::Telemetry* tel = config.telemetry;
  const bool tel_on = tel != nullptr && tel->enabled();

  // The first two forks (hub impairment, arrivals) are the same in both
  // modes, so the offered-call stream is seed-compatible; backend shards'
  // impairment streams come after.
  sim::Simulator simulator;
  sim::Random master{config.seed};
  sim::Random impairment_rng = master.fork();
  sim::Random arrival_rng = master.fork();
  net::Network network{simulator, std::move(impairment_rng)};
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;
  net::SwitchNode lan_switch{"switch"};

  // Backend shards mirror the hub sink's switches: their span rings become
  // per-shard processes of the merged trace, their profiles per-shard rows
  // of the attribution export.
  telemetry::Config shard_tel_cfg = tel_on ? tel->config() : telemetry::Config{};
  shard_tel_cfg.enabled = tel_on;
  std::vector<Backend> backends(fleet.size());
  std::vector<std::string> pbx_hosts;
  std::vector<dispatch::BackendConfig> backend_configs;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    Backend& b = backends[i];
    if (sharded) b.shard = std::make_unique<BackendShard>(master.fork(), shard_tel_cfg);
    const pbx::PbxConfig pbx_config = backend_pbx_config(config, fleet[i], i);
    b.pbx = std::make_unique<pbx::AsteriskPbx>(pbx_config, b.shard ? b.shard->sim : simulator,
                                               b.shard ? b.shard->resolver : resolver);
    pbx_hosts.push_back(pbx_config.host);
    backend_configs.push_back(
        {pbx_config.host, fleet[i].weight != 0 ? fleet[i].weight : fleet[i].channels});
  }

  // Sharded uplinks cross shards: propagation floored to the lookahead so
  // every boundary message lands at least one window ahead (the
  // conservative synchronization contract).
  net::LinkConfig uplink_cfg{};
  if (sharded && uplink_cfg.propagation < config.shard.lookahead) {
    uplink_cfg.propagation = config.shard.lookahead;
  }
  uplink_cfg.trunk_window = config.trunk_window;

  // Backends join the switch: sharded ones through a portal standing in for
  // the pbx, attached before the caller bank; the rest directly, after it.
  // Each mode keeps its node ids, and with them its outputs.
  const auto attach_to_hub = [&](Backend& b) {
    if (b.shard) {
      const std::string& host = b.pbx->sip_host();
      b.portal = std::make_unique<net::PortalNode>(util::format("portal-%s", host.c_str()));
      network.attach(*b.portal);
      b.hub_link = &network.connect(*b.portal, lan_switch, uplink_cfg);
      resolver.add(host, b.portal->id());
    } else {
      network.attach(*b.pbx);
      b.hub_link = &network.connect(*b.pbx, lan_switch, uplink_cfg);
      b.pbx->bind();
    }
  };
  network.attach(lan_switch);
  if (sharded) {
    for (Backend& b : backends) attach_to_hub(b);
  }
  loadgen::SipCaller caller{"sipp-client.unb.br", pbx_hosts, simulator, resolver, ssrcs,
                            config.scenario, std::move(arrival_rng)};
  loadgen::SipReceiver receiver{"sipp-server.unb.br", simulator, resolver, ssrcs,
                                config.scenario};
  network.attach(caller);
  network.attach(receiver);
  net::Link& client_link = network.connect(caller, lan_switch, {});
  net::Link& server_link = network.connect(receiver, lan_switch, {});
  caller.bind();
  receiver.bind();
  if (!sharded) {
    for (Backend& b : backends) attach_to_hub(b);
  }

  rtp::FluidEngine fluid{simulator, config.fluid};
  rtp::FluidEngine* const active_fluid = config.fluid.enabled ? &fluid : nullptr;
  if (active_fluid != nullptr) {
    fluid.watch_link(client_link);
    fluid.watch_link(server_link);
    for (const Backend& b : backends) fluid.watch_link(*b.hub_link);
    caller.set_fluid_engine(&fluid);
    receiver.set_fluid_engine(&fluid);
  }

  // Routing tier. The dispatcher is a real node on the LAN — its OPTIONS
  // probes traverse the switch like any other SIP traffic — but routing
  // decisions are redirect-style (the caller asks, then talks to the
  // backend directly), so the Fig. 2 ladder and the media path are
  // unchanged from the paper's testbed.
  std::optional<dispatch::Dispatcher> dispatcher;
  if (config.routing == ClusterRouting::kDispatcher) {
    dispatcher.emplace("dispatcher.unb.br", backend_configs, config.dispatcher, simulator,
                       resolver);
    network.attach(*dispatcher);
    network.connect(*dispatcher, lan_switch, {});
    dispatcher->bind();
    caller.set_dispatcher(&*dispatcher);
  }

  // Each PBX on its own network: a shard gets the pbx half of the uplink
  // and stand-ins for the remote hosts. Capture taps go on every backend NIC
  // (the Wireshark observation point, once per server), so the aggregate
  // SIP/RTP census is populated exactly like run_testbed's.
  for (Backend& b : backends) {
    pbx::AsteriskPbx& pbx = *b.pbx;
    net::Network* pbx_net = &network;
    if (BackendShard* s = b.shard.get()) {
      s->net.attach(s->to_switch);
      s->net.attach(s->caller_stub);
      s->net.attach(s->receiver_stub);
      s->net.attach(s->dispatcher_stub);
      s->resolver.add(caller.sip_host(), s->caller_stub.id());
      s->resolver.add(receiver.sip_host(), s->receiver_stub.id());
      if (dispatcher) s->resolver.add(dispatcher->sip_host(), s->dispatcher_stub.id());
      s->net.attach(pbx);
      s->uplink = &s->net.connect(pbx, s->to_switch, uplink_cfg);
      pbx.bind();
      pbx_net = &s->net;
    }
    pbx.dialplan().add("recv-", receiver.sip_host());
    pbx.dialplan().add("queue-", receiver.sip_host());
    b.sip_capture.emplace(pbx.id());
    b.rtp_capture.emplace(pbx.id());
    b.sip_capture->attach(*pbx_net);
    b.rtp_capture->attach(*pbx_net);
  }

  if (tel_on) {
    caller.set_telemetry(tel);
    receiver.set_telemetry(tel);
    for (std::size_t i = 0; i < backends.size(); ++i) {
      pbx::AsteriskPbx* pbx = backends[i].pbx.get();
      telemetry::Telemetry& sink = backends[i].shard ? backends[i].shard->telemetry : *tel;
      pbx->set_telemetry(&sink);
      sink.sampler().add_gauge(util::format("active_channels_pbx%u", static_cast<unsigned>(i)),
                               [pbx] { return static_cast<double>(pbx->channels().in_use()); });
    }
    if (dispatcher) {
      auto& sampler = tel->sampler();
      dispatch::Dispatcher* d = &*dispatcher;
      for (std::size_t i = 0; i < backends.size(); ++i) {
        sampler.add_gauge(util::format("dispatcher_occupancy_pbx%u", static_cast<unsigned>(i)),
                          [d, i] { return static_cast<double>(d->occupancy(i)); });
      }
      // Routing-tier health per second: pick throughput, breaker state, and
      // how much of the fleet is benched on 503 backoff.
      sampler.add_rate("dispatch_picks_per_s",
                       [d] { return static_cast<double>(d->picks_total()); });
      sampler.add_gauge("dispatch_open_circuits",
                        [d] { return static_cast<double>(d->open_circuits()); });
      sampler.add_gauge("dispatch_benched_backends", [d, &simulator] {
        return static_cast<double>(d->benched_backends(simulator.now()));
      });
    }
    // The profiler's counter-track series ticks on the simulator; sharded
    // runs never had it, and its events would change their event counts.
    start_telemetry(*tel, simulator, active_fluid, /*profile_series=*/!sharded);
    for (Backend& b : backends) {
      if (b.shard) {
        start_telemetry(b.shard->telemetry, b.shard->sim, nullptr, /*profile_series=*/false);
      }
    }
  }

  // One injector per simulator that owns a target: link events on a
  // sharded pbx uplink apply to both halves (each carries one direction),
  // client/server link and pbx host events apply where those objects live.
  std::optional<fault::FaultInjector> injector;
  if (config.faults != nullptr && !config.faults->empty()) {
    Backend& fb = backends[config.fault_backend];
    arm_faults(injector, simulator, *config.faults,
               fault::FaultTargets{&client_link, &server_link, fb.hub_link,
                                   fb.shard ? nullptr : fb.pbx.get()},
               active_fluid, tel_on ? tel->tracer() : nullptr);
    if (BackendShard* s = fb.shard.get()) {
      arm_faults(s->injector, s->sim, *config.faults,
                 fault::FaultTargets{nullptr, nullptr, s->uplink, fb.pbx.get()}, nullptr,
                 s->telemetry.tracer());
    }
  }

  std::optional<ShardExecutor> exec;
  if (sharded) {
    std::vector<sim::Simulator*> sims{&simulator};
    for (Backend& b : backends) sims.push_back(&b.shard->sim);
    exec.emplace(sims, ShardExecConfig{config.shard.threads, config.shard.lookahead});
    for (std::size_t i = 0; i < backends.size(); ++i) {
      BackendShard& s = *backends[i].shard;
      ShardIdMap map;
      map.hub_caller = caller.id();
      map.hub_receiver = receiver.id();
      map.hub_dispatcher = dispatcher ? dispatcher->id() : net::kInvalidNode;
      map.hub_switch = lan_switch.id();
      map.hub_portal = backends[i].portal->id();
      map.be_caller = s.caller_stub.id();
      map.be_receiver = s.receiver_stub.id();
      map.be_dispatcher = s.dispatcher_stub.id();
      map.be_portal = s.to_switch.id();
      map.be_pbx = backends[i].pbx->id();
      join_shard(*exec, i + 1, map, network, s.net);
    }
  }

  if (dispatcher) dispatcher->start();
  fluid.start();
  caller.start();
  const TimePoint horizon = TimePoint::at(run_horizon(config.scenario, config.drain));
  if (exec) {
    exec->run(horizon);
  } else {
    simulator.run_until(horizon);
  }
  caller.finalize_remaining();
  if (tel_on) {
    stop_telemetry(*tel);
    for (Backend& b : backends) {
      if (b.shard) stop_telemetry(b.shard->telemetry);
    }
  }

  merge_callee_quality(caller, receiver);
  ClusterResult result;
  std::vector<BackendSources> sources;
  std::vector<const net::Link*> links{&client_link, &server_link};
  for (const Backend& b : backends) {
    sources.push_back({b.pbx.get(), &*b.sip_capture, &*b.rtp_capture});
    for (const net::Link* link : b.uplinks()) {
      links.push_back(link);
      if (link == nullptr) continue;
      // Each uplink half transmits one direction; summing both endpoints of
      // every link counts each direction exactly once.
      for (const net::NodeId end : {link->endpoint_a(), link->endpoint_b()}) {
        result.uplink_bytes += link->stats_from(end).bytes_sent;
        result.uplink_packets += link->stats_from(end).packets_sent;
      }
    }
  }
  result.report = build_report(config.scenario, config.seed, caller, receiver, sources, links,
                               exec ? exec->total_events() : simulator.events_processed());

  const SteadyWindow cpu = steady_cpu_window(config.scenario);
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const pbx::AsteriskPbx& pbx = *backends[i].pbx;
    BackendObservation obs;
    obs.host = pbx_hosts[i];
    obs.channels = pbx.channels().capacity();
    obs.peak_channels = pbx.channels().peak();
    obs.congestion = pbx.cdrs().count(pbx::Disposition::kCongestion);
    obs.rtp_relayed = pbx.rtp_relayed();
    obs.crashes = pbx.crashes();
    obs.cpu_utilization = pbx.cpu().utilization(cpu.from, cpu.to);
    if (dispatcher) {
      const dispatch::BackendStats ds = dispatcher->backend_stats(i);
      obs.calls_routed = ds.calls_routed;
      obs.probe_failures = ds.probe_failures;
      obs.circuit_opens = ds.circuit_opens;
      obs.final_circuit = ds.circuit;
    }
    result.backends.push_back(obs);
    result.peak_channels_per_server.push_back(obs.peak_channels);
    result.congestion_per_server.push_back(obs.congestion);
  }
  if (dispatcher) {
    result.failovers = caller.failovers();
    result.dispatch_rejected = dispatcher->picks_rejected();
    result.probes_sent = dispatcher->probes_sent();
    result.probe_failures = dispatcher->probe_failures();
    result.circuit_opens = dispatcher->circuit_opens();
  }

  if (tel_on) {
    // Fold the backend shards' private registries and samplers into the
    // caller's sink in shard order, so the export is deterministic for any
    // worker count; then mirror the per-backend routing/health picture into
    // the registry so one Prometheus snapshot carries the whole cluster.
    auto& reg = tel->registry();
    for (const Backend& b : backends) {
      if (!b.shard) continue;
      reg.absorb(b.shard->telemetry.registry());
      tel->sampler().merge_columns(b.shard->telemetry.sampler());
    }
    for (const BackendObservation& obs : result.backends) {
      reg.counter("pbxcap_cluster_calls_routed_total", {{"backend", obs.host}},
                  "Calls the routing tier dispatched to each backend")
          .add(obs.calls_routed);
      reg.counter("pbxcap_cluster_congestion_total", {{"backend", obs.host}},
                  "Channel-exhaustion rejections per backend")
          .add(obs.congestion);
      reg.counter("pbxcap_cluster_circuit_opens_total", {{"backend", obs.host}},
                  "Circuit-breaker ejections per backend")
          .add(obs.circuit_opens);
      reg.gauge("pbxcap_cluster_peak_channels", {{"backend", obs.host}},
                "Peak concurrent channels per backend")
          .set(static_cast<double>(obs.peak_channels));
    }
    reg.counter("pbxcap_cluster_failovers_total", {},
                "Timed-out INVITEs rescued onto a surviving backend")
        .add(result.failovers);
    reg.counter("pbxcap_cluster_dispatch_rejected_total", {},
                "Calls with no eligible backend at pick time")
        .add(result.dispatch_rejected);
    reg.counter("pbxcap_cluster_probes_total", {}, "Health probes sent").add(result.probes_sent);
    reg.counter("pbxcap_cluster_probe_failures_total", {}, "Health probes failed")
        .add(result.probe_failures);
    if (dispatcher) {
      reg.counter("pbxcap_dispatch_picks_total", {},
                  "Successful backend picks (initial routes, retries, failovers)")
          .add(dispatcher->picks_total());
      reg.gauge("pbxcap_dispatch_benched_backends", {},
                "Backends on 503 Retry-After backoff at run end")
          .set(static_cast<double>(dispatcher->benched_backends(simulator.now())));
      for (std::size_t i = 0; i < backends.size(); ++i) {
        reg.gauge("pbxcap_dispatch_circuit_state", {{"backend", pbx_hosts[i]}},
                  "Circuit-breaker state (0 closed, 1 open, 2 half-open)")
            .set(static_cast<double>(dispatcher->circuit(i)));
      }
    }

    // Per-shard event attribution, and one Perfetto trace for the whole
    // cluster (process 1 = hub, 2 + i = backend i, so a failed-over call
    // reads left to right across the hub's journey track and both backends'
    // transaction tracks) — hub first, then backends in shard order.
    if (sharded && tel->profiler() != nullptr) {
      result.shard_profiles.push_back({"hub", tel->profiler()->snapshot()});
      for (std::size_t i = 0; i < backends.size(); ++i) {
        result.shard_profiles.push_back(
            {pbx_hosts[i], backends[i].shard->telemetry.profiler()->snapshot()});
      }
    }
    if (sharded && tel->tracer() != nullptr) {
      std::vector<telemetry::TraceProcess> processes{{"hub", tel->tracer()}};
      for (std::size_t i = 0; i < backends.size(); ++i) {
        processes.push_back({pbx_hosts[i], backends[i].shard->telemetry.tracer()});
      }
      result.merged_trace = telemetry::to_chrome_trace_merged(processes);
    }
  }

  if (exec) {
    result.shard_threads = exec->workers();
    result.shard_rounds = exec->rounds();
    result.shard_clamped = exec->messages_clamped();
    for (const ShardExecutor::ShardStats& s : exec->stats()) {
      result.shards.push_back({s.events, s.messages_in, s.messages_out, s.wall_s});
    }
  }
  return result;
}

}  // namespace pbxcap::exp

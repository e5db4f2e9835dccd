#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "alloc_count.hpp"
#include "loadgen/caller.hpp"
#include "loadgen/receiver.hpp"
#include "loadgen/scenario.hpp"
#include "monitor/capture.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "pbx/cpu_model.hpp"
#include "pbx/dialplan.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/packet.hpp"
#include "rtp/stream.hpp"
#include "sim/simulator.hpp"
#include "sip/message.hpp"
#include "sip/parse.hpp"

namespace perfbench {

namespace {

using pbxcap::Duration;
using pbxcap::TimePoint;
namespace loadgen = pbxcap::loadgen;
namespace monitor = pbxcap::monitor;
namespace net = pbxcap::net;
namespace pbx = pbxcap::pbx;
namespace rtp = pbxcap::rtp;
namespace sim = pbxcap::sim;
namespace sip = pbxcap::sip;
using Clock = std::chrono::steady_clock;

// Keeps a value observable so the compiler cannot drop the work producing it.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct OpCost {
  double ns{0.0};
  double allocs{0.0};
};

// Times `op(i)` for a running index i: a warm-up, then kBatches batches sized
// to ~20 ms each. ns/op is the median batch; allocs/op is exact over all.
template <typename Op>
OpCost measure(Op&& op) {
  constexpr int kBatches = 9;
  std::uint64_t i = 0;
  std::uint64_t per_batch = 1;
  for (;;) {  // warm-up doubles as calibration
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < per_batch; ++k) op(i++);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s >= 0.02) break;
    per_batch *= 2;
  }
  std::vector<double> ns;
  const AllocCount a0 = alloc_count();
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < per_batch; ++k) op(i++);
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                 static_cast<double>(per_batch));
  }
  const AllocCount used = alloc_count() - a0;
  std::nth_element(ns.begin(), ns.begin() + kBatches / 2, ns.end());
  return {ns[kBatches / 2],
          static_cast<double>(used.calls) / static_cast<double>(per_batch * kBatches)};
}

// A host that swallows whatever is delivered to it.
class SinkNode final : public net::Node {
 public:
  using net::Node::Node;
  void on_receive(const net::Packet&) override {}
};

struct Captured {
  std::optional<net::Packet> invite;  // first INVITE delivered to the PBX
  std::optional<net::Packet> rtp;     // first RTP packet delivered to the PBX
  std::size_t queue_depth{0};         // kernel pending events at the end
};

// The testbed's wiring (caller, receiver and PBX behind one switch, exact
// per-packet media) with a tap that keeps the PBX's first INVITE and RTP
// packet, run up to `until`.
Captured capture(const loadgen::CallScenario& scenario, const std::string& pbx_host,
                 std::uint32_t channels, std::uint64_t seed, Duration until) {
  sim::Simulator simulator;
  sim::Random master{seed};
  sim::Random impairment_rng = master.fork();
  sim::Random arrival_rng = master.fork();
  net::Network network{simulator, impairment_rng};
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;

  pbx::PbxConfig pbx_config;
  pbx_config.host = pbx_host;
  pbx_config.max_channels = channels;
  net::SwitchNode lan_switch{"switch"};
  pbx::AsteriskPbx pbx_node{pbx_config, simulator, resolver};
  loadgen::SipCaller caller{"sipp-client.unb.br", pbx_host, simulator, resolver, ssrcs,
                            scenario, arrival_rng};
  loadgen::SipReceiver receiver{"sipp-server.unb.br", simulator, resolver, ssrcs, scenario};
  network.attach(lan_switch);
  network.attach(pbx_node);
  network.attach(caller);
  network.attach(receiver);
  network.connect(caller, lan_switch, {});
  network.connect(receiver, lan_switch, {});
  network.connect(pbx_node, lan_switch, {});
  pbx_node.bind();
  caller.bind();
  receiver.bind();
  pbx_node.dialplan().add("recv-", receiver.sip_host());
  pbx_node.dialplan().add("queue-", receiver.sip_host());
  pbx_node.directory().allow_prefix("caller-");

  Captured out;
  const net::NodeId pbx_id = pbx_node.id();
  network.add_tap([&out, pbx_id](const net::Packet& pkt, net::NodeId, net::NodeId to) {
    if (to != pbx_id || pkt.dst != pbx_id) return;
    if (pkt.kind == net::PacketKind::kRtp && !out.rtp) out.rtp = pkt;
    if (pkt.kind == net::PacketKind::kSip && !out.invite) {
      const auto* p = pkt.payload_as<sip::SipPayload>();
      if (p != nullptr && p->msg.is_request() && p->msg.method() == sip::Method::kInvite) {
        out.invite = pkt;
      }
    }
  });
  caller.start();
  simulator.run_until(TimePoint::at(until));
  out.queue_depth = simulator.pending();
  caller.finalize_remaining();
  return out;
}

// A periodic no-op: each fire schedules its successor one ptime later, the
// shape of the media ticks that dominate table1_packet's queue.
struct Tick {
  sim::Simulator* simulator;
  void operator()() const { simulator->schedule_in(Duration::millis(20), Tick{simulator}); }
};

OpCost probe_kernel(std::size_t depth) {
  sim::Simulator simulator;
  const std::int64_t step = 20'000'000 / static_cast<std::int64_t>(depth);
  for (std::size_t k = 0; k < depth; ++k) {
    simulator.schedule_in(Duration::nanos(static_cast<std::int64_t>(k) * step), Tick{&simulator});
  }
  // One op = advance the clock by one event spacing (20 ms / depth), which
  // fires and reschedules exactly one event.
  std::int64_t horizon = 0;
  return measure([&](std::uint64_t) {
    horizon += step;
    simulator.run_until(TimePoint::at(Duration::nanos(horizon)));
  });
}

OpCost probe_deliver(const net::Packet& rtp_packet, std::size_t backends) {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{1}};
  SinkNode lan_switch{"switch"};
  SinkNode caller{"sipp-client.unb.br"};
  network.attach(lan_switch);
  network.attach(caller);
  std::vector<std::unique_ptr<SinkNode>> pbxs;
  std::vector<std::unique_ptr<monitor::SipCapture>> sip_caps;
  std::vector<std::unique_ptr<monitor::RtpCapture>> rtp_caps;
  for (std::size_t b = 0; b < backends; ++b) {
    pbxs.push_back(std::make_unique<SinkNode>("pbx" + std::to_string(b) + ".unb.br"));
    network.attach(*pbxs.back());
    sip_caps.push_back(std::make_unique<monitor::SipCapture>(pbxs.back()->id()));
    rtp_caps.push_back(std::make_unique<monitor::RtpCapture>(pbxs.back()->id()));
    sip_caps.back()->attach(network);
    rtp_caps.back()->attach(network);
  }
  net::Packet pkt = rtp_packet;
  pkt.src = caller.id();
  pkt.dst = pbxs.front()->id();
  const net::NodeId from = lan_switch.id();
  const net::NodeId to = pkt.dst;
  const OpCost cost = measure([&](std::uint64_t) {
    pkt.sent_at = pkt.sent_at + Duration::millis(20);
    network.deliver(pkt, from, to);
  });
  if (rtp_caps.front()->packets_in() == 0) {
    throw std::runtime_error{"deliver probe: the PBX capture saw no packet"};
  }
  return cost;
}

// Message::wire_bytes() caches its result until the next mutation, and a
// copy inherits the cache; every message the SIP stack builds pays it once.
// Each batch therefore sizes fresh copies whose cache a set_body() cleared.
double wire_bytes_ns(const sip::Message& invite) {
  constexpr std::size_t kPerBatch = 2048;
  constexpr int kBatches = 9;
  std::vector<double> ns;
  for (int b = 0; b < kBatches + 1; ++b) {  // batch 0 is the warm-up
    std::vector<sip::Message> fresh(kPerBatch, invite);
    for (sip::Message& m : fresh) m.set_body(invite.body(), invite.content_type());
    const auto t0 = Clock::now();
    for (const sip::Message& m : fresh) keep(m.wire_bytes());
    const double batch_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (b > 0) ns.push_back(batch_ns / kPerBatch);
  }
  std::nth_element(ns.begin(), ns.begin() + kBatches / 2, ns.end());
  return ns[kBatches / 2];
}

}  // namespace

ProbeResults run_layer_probes(std::uint64_t seed) {
  // table1_packet's scenario up to 90 s: 2 calls/s saturate N = 165 at
  // ~83 s, so the queue holds the full-load population.
  const Captured media =
      capture(loadgen::CallScenario::for_offered_load(240.0), "pbx.unb.br", 165, seed,
              Duration::seconds(90));
  // fleet_signalling's scenario (550 E of 30 s calls) against its first
  // backend's host name; the first INVITE arrives within a second.
  const Captured signalling =
      capture(loadgen::CallScenario::for_offered_load(550.0, Duration::seconds(30)),
              "pbx0.unb.br", 26, seed, Duration::seconds(2));
  if (!media.rtp || !signalling.invite) {
    throw std::runtime_error{"layer probes: capture rig saw no RTP packet or INVITE"};
  }
  const auto* rtp_payload = media.rtp->payload_as<rtp::RtpPayload>();
  const auto* sip_payload = signalling.invite->payload_as<sip::SipPayload>();
  if (rtp_payload == nullptr || sip_payload == nullptr) {
    throw std::runtime_error{"layer probes: captured packets carry unexpected payloads"};
  }
  const sip::Message& invite = sip_payload->msg;
  const rtp::RtpHeader header = rtp_payload->header;

  ProbeResults out;
  const auto add = [&out](const char* name, double v) { out.emplace_back(name, v); };

  const OpCost kernel = probe_kernel(std::max<std::size_t>(media.queue_depth, 1));
  add("sim.queue_depth", static_cast<double>(media.queue_depth));
  add("sim.event_ns", kernel.ns);
  add("sim.event_allocs", kernel.allocs);

  const OpCost deliver2 = probe_deliver(*media.rtp, 1);
  const OpCost deliver64 = probe_deliver(*media.rtp, 32);
  add("net.deliver_ns.2taps", deliver2.ns);
  add("net.deliver_allocs", deliver2.allocs);
  add("net.deliver_ns.64taps", deliver64.ns);

  const OpCost copy = measure([&](std::uint64_t) {
    sip::Message m = invite;
    keep(m);
  });
  add("sip.msg_copy_ns", copy.ns);
  add("sip.msg_copy_allocs", copy.allocs);
  add("sip.wire_bytes_ns", wire_bytes_ns(invite));
  const std::string text = sip::serialize(invite);
  if (!sip::parse_message(text).ok()) {
    throw std::runtime_error{"layer probes: captured INVITE does not parse back"};
  }
  add("sip.parse_ns", measure([&](std::uint64_t) {
                        const sip::ParseResult parsed = sip::parse_message(text);
                        keep(parsed);
                      }).ns);

  const rtp::Codec codec = rtp::g711_ulaw();
  const TimePoint t0 = media.rtp->sent_at;
  const auto nth = [&](std::uint64_t i) {
    rtp::RtpHeader h = header;
    h.sequence = static_cast<std::uint16_t>(header.sequence + i);
    h.timestamp = header.timestamp + static_cast<std::uint32_t>(i) * 160u;
    h.marker = false;
    return h;
  };
  const auto arrival = [&](std::uint64_t i) {
    return t0 + Duration::millis(20) * static_cast<std::int64_t>(i);
  };
  rtp::JitterBuffer jitter{codec};
  add("rtp.jitter_ns",
      measure([&](std::uint64_t i) { keep(jitter.on_packet(nth(i), arrival(i))); }).ns);
  rtp::RtpReceiverStats rx{codec.sample_rate_hz};
  add("rtp.rx_stats_ns", measure([&](std::uint64_t i) {
                           rx.on_packet(nth(i), arrival(i));
                           keep(rx);
                         }).ns);

  // One relayed packet every 60 us of simulated time: 165 bridged calls'
  // two directions at 50 packets/s each.
  pbx::CpuModel cpu;
  add("pbx.cpu_charge_ns", measure([&](std::uint64_t i) {
                             cpu.on_rtp_packet(t0 + Duration::micros(60) *
                                                        static_cast<std::int64_t>(i));
                           }).ns);
  pbx::Dialplan dialplan;
  dialplan.add("recv-", "sipp-server.unb.br");
  dialplan.add("queue-", "sipp-server.unb.br");
  const std::string& user = invite.request_uri().user();
  if (!dialplan.route(user)) throw std::runtime_error{"layer probes: INVITE user has no route"};
  add("pbx.dialplan_route_ns", measure([&](std::uint64_t) { keep(dialplan.route(user)); }).ns);
  return out;
}

}  // namespace perfbench

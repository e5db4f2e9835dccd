// Unit tests for the network fabric: links, queues, switch forwarding,
// cached host uplinks and per-node capture taps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/portal.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pbxcap;
using net::LinkConfig;
using net::Packet;

/// Test endpoint: records deliveries, can echo.
class SinkNode final : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node{std::move(name)} {}

  void on_receive(const Packet& pkt) override {
    received.push_back(pkt);
    arrival_times.push_back(network()->simulator().now());
  }

  void transmit_to(net::NodeId dst, std::uint32_t bytes,
                   net::PacketKind kind = net::PacketKind::kOther) {
    Packet pkt;
    pkt.dst = dst;
    pkt.kind = kind;
    pkt.size_bytes = bytes;
    send(std::move(pkt));
  }

  std::vector<Packet> received;
  std::vector<TimePoint> arrival_times;
};

/// One observed hop.
struct Hop {
  net::PacketKind kind;
  net::NodeId from;
  net::NodeId to;
};

net::PacketTap record_into(std::vector<Hop>& hops) {
  return [&hops](const Packet& pkt, net::NodeId from, net::NodeId to) {
    hops.push_back({pkt.kind, from, to});
  };
}

struct NetFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{7}};
};

TEST_F(NetFixture, DirectLinkDelivers) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  network.connect(a, b, {});
  a.transmit_to(b.id(), 1000);
  simulator.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].size_bytes, 1000u);
  EXPECT_EQ(b.received[0].src, a.id());
}

TEST_F(NetFixture, SerializationPlusPropagationDelay) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;  // 1 byte per microsecond
  cfg.propagation = Duration::micros(100);
  network.connect(a, b, cfg);
  a.transmit_to(b.id(), 1000);  // 1000 us serialization
  simulator.run();
  ASSERT_EQ(b.arrival_times.size(), 1u);
  EXPECT_EQ(b.arrival_times[0], TimePoint::origin() + Duration::micros(1100));
}

TEST_F(NetFixture, BackToBackPacketsQueue) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;
  cfg.propagation = Duration::zero();
  network.connect(a, b, cfg);
  a.transmit_to(b.id(), 1000);
  a.transmit_to(b.id(), 1000);  // must wait for the first to serialize
  simulator.run();
  ASSERT_EQ(b.arrival_times.size(), 2u);
  EXPECT_EQ(b.arrival_times[0], TimePoint::origin() + Duration::millis(1));
  EXPECT_EQ(b.arrival_times[1], TimePoint::origin() + Duration::millis(2));
}

TEST_F(NetFixture, DropTailWhenQueueFull) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000.0;  // very slow: 1 byte per ms
  cfg.queue_limit_packets = 2;
  net::Link& link = network.connect(a, b, cfg);
  for (int i = 0; i < 5; ++i) a.transmit_to(b.id(), 100);
  simulator.run();
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(link.stats_from(a.id()).dropped_queue_full, 3u);
  EXPECT_EQ(link.stats_from(a.id()).packets_sent, 2u);
}

TEST_F(NetFixture, RandomLossDropsRoughlyTheConfiguredFraction) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.loss_probability = 0.2;
  cfg.queue_limit_packets = 100000;
  net::Link& link = network.connect(a, b, cfg);
  constexpr int kPackets = 20'000;
  for (int i = 0; i < kPackets; ++i) a.transmit_to(b.id(), 100);
  simulator.run();
  const double loss_rate =
      static_cast<double>(link.stats_from(a.id()).dropped_random_loss) / kPackets;
  EXPECT_NEAR(loss_rate, 0.2, 0.02);
  EXPECT_EQ(b.received.size() + link.stats_from(a.id()).dropped_random_loss,
            static_cast<std::size_t>(kPackets));
}

TEST_F(NetFixture, JitterDelaysButDelivers) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.jitter_mean = Duration::millis(2);
  cfg.jitter_stddev = Duration::millis(1);
  network.connect(a, b, cfg);
  for (int i = 0; i < 100; ++i) a.transmit_to(b.id(), 100);
  simulator.run();
  EXPECT_EQ(b.received.size(), 100u);
}

TEST_F(NetFixture, SwitchForwardsBetweenHosts) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  net::SwitchNode sw{"sw"};
  network.attach(a);
  network.attach(b);
  network.attach(sw);
  network.connect(a, sw, {});
  network.connect(b, sw, {});
  a.transmit_to(b.id(), 500);
  simulator.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sw.forwarded(), 1u);
  EXPECT_EQ(b.received[0].src, a.id());
  EXPECT_EQ(b.received[0].dst, b.id());
}

TEST_F(NetFixture, SwitchDropsUnroutable) {
  SinkNode a{"a"};
  SinkNode b{"b"};  // attached to network but NOT to the switch
  net::SwitchNode sw{"sw"};
  network.attach(a);
  network.attach(b);
  network.attach(sw);
  network.connect(a, sw, {});
  a.transmit_to(b.id(), 500);
  simulator.run();
  EXPECT_EQ(b.received.size(), 0u);
  EXPECT_EQ(sw.dropped_no_route(), 1u);
}

TEST_F(NetFixture, HostsMayHaveOnlyOneLink) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  network.attach(a);
  network.attach(b);
  network.attach(c);
  network.connect(a, b, {});
  // The already-linked host as either argument of the new link.
  for (const auto& [first, second, linked] :
       {std::tuple{&c, &a, &a}, std::tuple{&b, &c, &b}}) {
    try {
      (void)network.connect(*first, *second, {});
      FAIL() << "a second link on host '" << linked->name() << "' was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + linked->name() + "' is already linked"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(network.links().size(), 1u);
}

TEST_F(NetFixture, TapsObserveDeliveries) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  network.connect(a, b, {});
  int taps = 0;
  network.add_tap([&](const Packet&, net::NodeId, net::NodeId) { ++taps; });
  a.transmit_to(b.id(), 100);
  a.transmit_to(b.id(), 100);
  simulator.run();
  EXPECT_EQ(taps, 2);
  EXPECT_EQ(network.packets_delivered(), 2u);
}

TEST_F(NetFixture, HostSendsThroughItsCachedUplink) {
  // Many links in the table: the host's packet still leaves on its own.
  SinkNode host{"host"};
  net::SwitchNode sw{"sw"};
  network.attach(host);
  network.attach(sw);
  std::vector<std::unique_ptr<SinkNode>> others;
  for (int i = 0; i < 8; ++i) {
    others.push_back(std::make_unique<SinkNode>("other" + std::to_string(i)));
    network.attach(*others.back());
    network.connect(*others.back(), sw, {});
  }
  net::Link& uplink = network.connect(host, sw, {});
  for (int i = 0; i < 3; ++i) host.transmit_to(others[5]->id(), 200);
  simulator.run();
  EXPECT_EQ(uplink.stats_from(host.id()).packets_sent, 3u);
  EXPECT_EQ(others[5]->received.size(), 3u);
  for (std::size_t i = 0; i < others.size(); ++i) {
    const net::Link& link = *network.links()[i];  // others[i] <-> sw
    EXPECT_EQ(link.stats_from(others[i]->id()).packets_sent, 0u);
    EXPECT_EQ(link.stats_from(sw.id()).packets_sent, i == 5 ? 3u : 0u);
  }
}

TEST_F(NetFixture, MultihomedNodeMustSendOnAChosenLink) {
  // A switch has no cached uplink: a send that names no link is refused.
  net::SwitchNode sw{"sw"};
  SinkNode a{"a"};
  network.attach(sw);
  network.attach(a);
  network.connect(sw, a, {});
  Packet pkt;
  pkt.dst = a.id();
  pkt.size_bytes = 300;
  EXPECT_THROW(network.send_from(sw.id(), pkt), std::logic_error);
  simulator.run();
  EXPECT_TRUE(a.received.empty());
}

TEST_F(NetFixture, DetachedSendWarnsAndDrops) {
  SinkNode lonely{"lonely"};  // attached, but no link
  SinkNode b{"b"};
  network.attach(lonely);
  network.attach(b);
  ::testing::internal::CaptureStderr();
  lonely.transmit_to(b.id(), 100);
  const std::string linkless = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(linkless.find("sent a packet while detached"), std::string::npos) << linkless;

  SinkNode unattached{"unattached"};  // not even on a network
  ::testing::internal::CaptureStderr();
  unattached.transmit_to(b.id(), 100);
  const std::string off_network = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(off_network.find("send on detached node 'unattached'"), std::string::npos)
      << off_network;

  simulator.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.packets_delivered(), 0u);
}

TEST_F(NetFixture, GlobalTapFiresOnEveryHop) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  net::SwitchNode sw{"sw"};
  network.attach(a);
  network.attach(b);
  network.attach(sw);
  network.connect(a, sw, {});
  network.connect(b, sw, {});
  std::vector<Hop> hops;
  network.add_tap(record_into(hops));
  a.transmit_to(b.id(), 100);
  b.transmit_to(a.id(), 100);
  simulator.run();
  ASSERT_EQ(hops.size(), 4u);  // two hops per packet through the switch
  EXPECT_EQ(hops[0].from, a.id());
  EXPECT_EQ(hops[0].to, sw.id());
  EXPECT_EQ(hops[1].from, b.id());
  EXPECT_EQ(hops[1].to, sw.id());
  EXPECT_EQ(hops[2].from, sw.id());
  EXPECT_EQ(hops[2].to, b.id());
  EXPECT_EQ(hops[3].from, sw.id());
  EXPECT_EQ(hops[3].to, a.id());
}

TEST_F(NetFixture, NodeTapSeesOnlyHopsAtItsNode) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  net::SwitchNode sw{"sw"};
  for (net::Node* n : std::initializer_list<net::Node*>{&a, &b, &c, &sw}) network.attach(*n);
  network.connect(a, sw, {});
  network.connect(b, sw, {});
  network.connect(c, sw, {});
  std::vector<Hop> at_b;
  std::vector<Hop> at_sw;
  std::vector<Hop> all;
  network.add_node_tap(b.id(), record_into(at_b));
  network.add_node_tap(sw.id(), record_into(at_sw));
  network.add_tap(record_into(all));

  a.transmit_to(b.id(), 100);  // a->sw, sw->b
  c.transmit_to(a.id(), 100);  // c->sw, sw->a: never touches b
  b.transmit_to(c.id(), 100);  // b->sw, sw->c
  simulator.run();

  EXPECT_EQ(all.size(), 6u);
  // b's own packet leaves before a's arrives through the switch.
  ASSERT_EQ(at_b.size(), 2u);
  EXPECT_EQ(at_b[0].from, b.id());  // egress of b's packet
  EXPECT_EQ(at_b[0].to, sw.id());
  EXPECT_EQ(at_b[1].from, sw.id());  // ingress of a's packet
  EXPECT_EQ(at_b[1].to, b.id());
  EXPECT_EQ(at_sw.size(), 6u);      // every hop enters or leaves the switch
}

TEST_F(NetFixture, NodeTapSeesTrunkShellsAndTheirFrames) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode bystander{"bystander"};
  network.attach(a);
  network.attach(b);
  network.attach(bystander);
  LinkConfig cfg;
  cfg.trunk_window = Duration::millis(20);
  network.connect(a, b, cfg);
  std::vector<Hop> at_a;
  std::vector<Hop> at_b;
  std::vector<Hop> at_bystander;
  network.add_node_tap(a.id(), record_into(at_a));
  network.add_node_tap(b.id(), record_into(at_b));
  network.add_node_tap(bystander.id(), record_into(at_bystander));
  for (int i = 0; i < 3; ++i) a.transmit_to(b.id(), 200, net::PacketKind::kRtp);
  simulator.run();

  ASSERT_EQ(b.received.size(), 3u);
  // One shell hop, then the three re-delivered frames, seen from both ends.
  for (const auto* hops : {&at_a, &at_b}) {
    ASSERT_EQ(hops->size(), 4u);
    EXPECT_EQ((*hops)[0].kind, net::PacketKind::kTrunk);
    for (std::size_t i = 1; i < hops->size(); ++i) {
      EXPECT_EQ((*hops)[i].kind, net::PacketKind::kRtp);
    }
    for (const Hop& hop : *hops) {
      EXPECT_EQ(hop.from, a.id());
      EXPECT_EQ(hop.to, b.id());
    }
  }
  EXPECT_TRUE(at_bystander.empty());
}

TEST_F(NetFixture, NodeTapSeesRemoteHandOffs) {
  SinkNode a{"a"};
  net::PortalNode portal{"remote-host"};
  SinkNode bystander{"bystander"};
  network.attach(a);
  network.attach(portal);
  network.attach(bystander);
  network.connect(a, portal, {});
  std::vector<Packet> handed_off;
  network.set_remote_sink(portal.id(), [&](Packet&& pkt, net::NodeId, TimePoint) {
    handed_off.push_back(std::move(pkt));
  });
  std::vector<Hop> at_a;
  std::vector<Hop> at_portal;
  std::vector<Hop> at_bystander;
  network.add_node_tap(a.id(), record_into(at_a));
  network.add_node_tap(portal.id(), record_into(at_portal));
  network.add_node_tap(bystander.id(), record_into(at_bystander));
  a.transmit_to(portal.id(), 100);
  a.transmit_to(portal.id(), 100);

  // The hand-off happens at transmit time, with no local delivery event.
  EXPECT_EQ(handed_off.size(), 2u);
  EXPECT_EQ(at_a.size(), 2u);
  ASSERT_EQ(at_portal.size(), 2u);
  EXPECT_EQ(at_portal[0].from, a.id());
  EXPECT_EQ(at_portal[0].to, portal.id());
  EXPECT_TRUE(at_bystander.empty());
  simulator.run();
  EXPECT_EQ(portal.swallowed(), 0u);
}

TEST_F(NetFixture, UtilizationReflectsBusyTime) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;  // 1000-byte packet = 1 ms
  net::Link& link = network.connect(a, b, cfg);
  for (int i = 0; i < 100; ++i) a.transmit_to(b.id(), 1000);
  simulator.run();
  // 100 ms busy over ~100 ms elapsed => utilization near 1.
  EXPECT_GT(link.utilization_from(a.id(), simulator.now()), 0.9);
  EXPECT_LE(link.utilization_from(a.id(), simulator.now()), 1.0);
}

// ---- lazy serialization backlog vs an eager-drain reference -----------------
//
// A link direction's backlog used to shrink through one scheduled
// "serialization done" event per packet. EagerDrainLink keeps that model: a
// counter, one drain event per packet put on the wire, and the link's
// impairment RNG draws in the same order. The randomized driver offers the
// same traffic to it and to a real Link and requires identical per-packet
// outcomes, delivery times, statistics and backlog readings.

/// What became of one offered packet, read from the direction's stats.
enum class Outcome : std::int64_t { kSent, kQueueFull, kRandomLoss, kImpairment, kNone };

Outcome outcome_of(const net::LinkDirectionStats& before, const net::LinkDirectionStats& after) {
  if (after.packets_sent != before.packets_sent) return Outcome::kSent;
  if (after.dropped_queue_full != before.dropped_queue_full) return Outcome::kQueueFull;
  if (after.dropped_random_loss != before.dropped_random_loss) return Outcome::kRandomLoss;
  if (after.dropped_impairment != before.dropped_impairment) return Outcome::kImpairment;
  return Outcome::kNone;
}

using Delivery = std::pair<std::uint64_t, std::int64_t>;  // packet id, arrival ns

class EagerDrainLink {
 public:
  EagerDrainLink(sim::Simulator& simulator, sim::Random rng, const LinkConfig& config)
      : sim_{simulator}, rng_{rng}, config_{config} {}

  void offer(std::uint64_t id, std::uint32_t bytes) {
    if (blackout_) {
      ++stats_.dropped_impairment;
      return;
    }
    if (backlog_ >= config_.queue_limit_packets) {
      ++stats_.dropped_queue_full;
      return;
    }
    const Duration tx_time =
        Duration::from_seconds(static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps);
    const TimePoint serialized = std::max(sim_.now(), busy_until_) + tx_time;
    busy_until_ = serialized;
    ++backlog_;
    stats_.busy_time += tx_time;
    const bool lost = config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability);
    Duration extra = Duration::zero();
    if (config_.jitter_stddev > Duration::zero() || config_.jitter_mean > Duration::zero()) {
      const double jitter_s =
          rng_.normal(config_.jitter_mean.to_seconds(), config_.jitter_stddev.to_seconds());
      extra = Duration::from_seconds(std::max(0.0, jitter_s));
    }
    sim_.schedule_at(serialized, [this] { --backlog_; });
    if (lost) {
      ++stats_.dropped_random_loss;
      return;
    }
    ++stats_.packets_sent;
    stats_.bytes_sent += bytes;
    sim_.schedule_at(serialized + config_.propagation + extra,
                     [this, id] { delivered_.emplace_back(id, sim_.now().ns()); });
  }

  void impair(const net::LinkImpairment& imp) {
    if (imp.loss_probability) config_.loss_probability = *imp.loss_probability;
    if (imp.bandwidth_bps) config_.bandwidth_bps = *imp.bandwidth_bps;
    if (imp.jitter_mean) config_.jitter_mean = *imp.jitter_mean;
    if (imp.jitter_stddev) config_.jitter_stddev = *imp.jitter_stddev;
    if (imp.queue_limit_packets) config_.queue_limit_packets = *imp.queue_limit_packets;
    if (imp.blackout) blackout_ = *imp.blackout;
  }

  [[nodiscard]] std::uint32_t backlog() const { return backlog_; }
  [[nodiscard]] const net::LinkDirectionStats& stats() const { return stats_; }
  [[nodiscard]] std::vector<Delivery> delivered() const { return delivered_; }

 private:
  sim::Simulator& sim_;
  sim::Random rng_;
  LinkConfig config_;
  bool blackout_{false};
  TimePoint busy_until_{};
  std::uint32_t backlog_{0};
  net::LinkDirectionStats stats_;
  std::vector<Delivery> delivered_;
};

/// The real Link between two sinks, behind EagerDrainLink's interface.
class LazyLink {
 public:
  LazyLink(sim::Simulator& simulator, sim::Random rng, const LinkConfig& config)
      : network_{simulator, rng} {
    network_.attach(a_);
    network_.attach(b_);
    link_ = &network_.connect(a_, b_, config);
  }

  void offer(std::uint64_t id, std::uint32_t bytes) {
    Packet pkt;
    pkt.id = id;
    pkt.src = a_.id();
    pkt.dst = b_.id();
    pkt.size_bytes = bytes;
    link_->transmit(a_.id(), std::move(pkt));
  }
  void impair(const net::LinkImpairment& imp) { link_->apply_impairment(imp); }
  [[nodiscard]] std::uint32_t backlog() const { return link_->backlog_from(a_.id()); }
  [[nodiscard]] const net::LinkDirectionStats& stats() const { return link_->stats_from(a_.id()); }
  [[nodiscard]] std::vector<Delivery> delivered() const {
    std::vector<Delivery> out;
    for (std::size_t i = 0; i < b_.received.size(); ++i) {
      out.emplace_back(b_.received[i].id, b_.arrival_times[i].ns());
    }
    return out;
  }

 private:
  net::Network network_;
  SinkNode a_{"a"};
  SinkNode b_{"b"};
  net::Link* link_{nullptr};
};

struct TrafficRun {
  std::vector<std::int64_t> log;  // (tag, now ns, value) triples
  std::vector<Delivery> delivered;
  net::LinkDirectionStats stats;
  // Coverage of the cases the lazy backlog must get right.
  std::uint64_t ties_before{0};  // events at a completion instant, scheduled before its offer
  std::uint64_t ties_after{0};   // ... scheduled after it
  std::uint64_t zero_length{0};
  std::uint64_t impairments{0};
  std::array<std::uint64_t, 5> outcomes{};
};

/// Randomized traffic on one link direction: bursts at shared instants,
/// offers and probes at exactly a packet's completion instant (scheduled
/// before and after the packet's offer, from inside the loop and from
/// outside it between run_until() chunks), zero-length packets, queue limits
/// of 1..4, random loss, jitter, blackouts, and bandwidth and queue-limit
/// changes mid-run.
template <typename Target>
TrafficRun drive_link(std::uint64_t seed) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth_bps = 2e6;
  config.propagation = Duration::micros(50);
  config.queue_limit_packets = 3;
  config.loss_probability = 0.1;
  Target link{simulator, sim::Random{seed}, config};
  sim::Random rng{seed ^ 0x5a5a5a5aULL};  // the driver's own choices
  TrafficRun run;
  double bandwidth = config.bandwidth_bps;
  std::int64_t busy_until = 0;  // the driver's shadow of the link's busy_until
  std::uint64_t next_id = 0;
  constexpr std::uint64_t kBudget = 2500;
  constexpr std::int64_t kSpan = 2'000'000'000;

  const auto record = [&](std::int64_t tag, std::int64_t value) {
    run.log.insert(run.log.end(), {tag, simulator.now().ns(), value});
  };
  const auto probe = [&] { record(0, link.backlog()); };

  // `offer` sends one packet now; `at_completion` puts an offer or a probe
  // at a completion instant.
  std::function<void()> offer;
  const auto at_completion = [&](std::int64_t done) {
    const TimePoint t = TimePoint::at(Duration::nanos(done));
    if (next_id < kBudget && rng.chance(0.5)) {
      simulator.schedule_at(t, [&] { offer(); });
    } else {
      simulator.schedule_at(t, probe);
    }
  };
  offer = [&] {
    const std::int64_t now = simulator.now().ns();
    const std::uint32_t bytes =
        rng.chance(0.15) ? 0u : 40u + static_cast<std::uint32_t>(rng.uniform_int(1461));
    run.zero_length += bytes == 0 ? 1 : 0;
    const std::int64_t done =
        std::max(now, busy_until) +
        Duration::from_seconds(static_cast<double>(bytes) * 8.0 / bandwidth).ns();
    if (rng.chance(0.4)) {
      at_completion(done);
      ++run.ties_before;
    }
    const net::LinkDirectionStats before = link.stats();
    link.offer(next_id++, bytes);
    const Outcome outcome = outcome_of(before, link.stats());
    ++run.outcomes[static_cast<std::size_t>(outcome)];
    record(1, static_cast<std::int64_t>(outcome));
    probe();
    if (outcome == Outcome::kSent || outcome == Outcome::kRandomLoss) busy_until = done;
    if (rng.chance(0.4)) {
      at_completion(done);
      ++run.ties_after;
    }
    if (next_id < kBudget && rng.chance(0.25)) simulator.schedule_at(simulator.now(), offer);
    if (rng.chance(0.2) && busy_until >= now) {
      simulator.schedule_at(TimePoint::at(Duration::nanos(busy_until)), probe);
    }
  };

  for (int i = 0; i < 500; ++i) {
    const auto at = static_cast<std::int64_t>(rng.uniform_int(kSpan));
    simulator.schedule_at(TimePoint::at(Duration::nanos(at)), [&] { offer(); });
  }
  for (int i = 0; i < 40; ++i) {
    net::LinkImpairment imp;
    const std::uint64_t pick = rng.uniform_int(6);
    if (pick == 0) imp.blackout = true;
    if (pick == 1) imp.blackout = false;
    if (pick == 2) imp.jitter_mean = Duration::micros(rng.chance(0.5) ? 0 : 300);
    if (pick >= 3) {
      constexpr double kRates[] = {64e3, 512e3, 2e6, 10e6};
      imp.bandwidth_bps = kRates[rng.uniform_int(4)];
      imp.queue_limit_packets = 1 + static_cast<std::uint32_t>(rng.uniform_int(4));
      imp.loss_probability = rng.chance(0.5) ? 0.0 : 0.2;
    }
    const auto at = static_cast<std::int64_t>(rng.uniform_int(kSpan));
    simulator.schedule_at(TimePoint::at(Duration::nanos(at)), [&, imp] {
      link.impair(imp);
      if (imp.bandwidth_bps) bandwidth = *imp.bandwidth_bps;
      ++run.impairments;
      record(2, link.backlog());
    });
  }

  // Run in chunks; between them read the backlog and sometimes offer from
  // outside the loop, or stop exactly at the latest completion instant.
  std::int64_t horizon = 0;
  while (horizon < kSpan + 1'000'000'000) {
    horizon = rng.chance(0.3) && busy_until > horizon
                  ? busy_until
                  : horizon + 1 + static_cast<std::int64_t>(rng.uniform_int(40'000'000));
    simulator.run_until(TimePoint::at(Duration::nanos(horizon)));
    probe();
    if (next_id < kBudget && rng.chance(0.3)) offer();
  }
  simulator.run_until(TimePoint::at(Duration::nanos(horizon + 60'000'000'000)));
  probe();
  run.delivered = link.delivered();
  run.stats = link.stats();
  return run;
}

TEST(LinkBacklog, LazyBacklogMatchesEagerDrainReference) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 4242ULL, 0xfeedULL}) {
    SCOPED_TRACE(seed);
    const TrafficRun eager = drive_link<EagerDrainLink>(seed);
    const TrafficRun lazy = drive_link<LazyLink>(seed);
    ASSERT_EQ(eager.log.size(), lazy.log.size());
    for (std::size_t i = 0; i < eager.log.size(); i += 3) {
      const std::array<std::int64_t, 3> want{eager.log[i], eager.log[i + 1], eager.log[i + 2]};
      const std::array<std::int64_t, 3> got{lazy.log[i], lazy.log[i + 1], lazy.log[i + 2]};
      ASSERT_EQ(want, got) << "entry " << i / 3 << " (tag, now ns, value)";
    }
    EXPECT_EQ(eager.delivered, lazy.delivered);
    EXPECT_EQ(eager.stats.packets_sent, lazy.stats.packets_sent);
    EXPECT_EQ(eager.stats.bytes_sent, lazy.stats.bytes_sent);
    EXPECT_EQ(eager.stats.dropped_queue_full, lazy.stats.dropped_queue_full);
    EXPECT_EQ(eager.stats.dropped_random_loss, lazy.stats.dropped_random_loss);
    EXPECT_EQ(eager.stats.dropped_impairment, lazy.stats.dropped_impairment);
    EXPECT_EQ(eager.stats.busy_time, lazy.stats.busy_time);
    // The workload reaches every case it is meant to cover.
    EXPECT_GT(lazy.ties_before, 50u);
    EXPECT_GT(lazy.ties_after, 50u);
    EXPECT_GT(lazy.zero_length, 50u);
    EXPECT_GT(lazy.impairments, 0u);
    EXPECT_GT(lazy.outcomes[static_cast<std::size_t>(Outcome::kSent)], 100u);
    EXPECT_GT(lazy.outcomes[static_cast<std::size_t>(Outcome::kQueueFull)], 10u);
    EXPECT_GT(lazy.outcomes[static_cast<std::size_t>(Outcome::kRandomLoss)], 10u);
    EXPECT_GT(lazy.outcomes[static_cast<std::size_t>(Outcome::kImpairment)], 0u);
    EXPECT_EQ(lazy.outcomes[static_cast<std::size_t>(Outcome::kNone)], 0u);
  }
}

TEST(LinkValidation, RejectsBadConfigs) {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{1}};
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig bad_bw;
  bad_bw.bandwidth_bps = 0.0;
  EXPECT_THROW((void)network.connect(a, b, bad_bw), std::invalid_argument);
  LinkConfig bad_q;
  bad_q.queue_limit_packets = 0;
  EXPECT_THROW((void)network.connect(a, b, bad_q), std::invalid_argument);
}

TEST(WireSize, IncludesAllOverheads) {
  // G.711 20ms payload of 160 bytes + 12 RTP + 8 UDP + 20 IP + 18 Eth = 218.
  EXPECT_EQ(net::wire_size(172), 218u);
  EXPECT_EQ(net::kWireOverheadBytes, 46u);
}

}  // namespace

// Network fabric: owns nodes, links, and the packet-level event plumbing.
//
// One Network per simulation run. It wires Node::send to the attached Link,
// delivers packets through the Simulator, and exposes a tap interface so the
// monitor module can observe deliveries (the Wireshark substitute).
//
// Both per-hop paths cost the same whatever the topology's size:
//   - a host's send goes straight to the uplink cached on its Node by
//     connect(); multihomed devices transmit on explicit links;
//   - a delivery fires the global taps plus the taps of the hop's two
//     endpoints (add_node_tap), not every capture in the network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace pbxcap::net {

/// Cross-shard egress hook. A node with a remote sink is a *portal*: it
/// stands in for a host simulated by another shard. Packets a Link would
/// deliver to it are handed to the sink at transmit time together with the
/// computed delivery timestamp, and become timestamped messages for the
/// destination shard (see sim/shard.hpp) instead of local simulator events.
using RemoteSink = std::function<void(Packet&& pkt, NodeId from, TimePoint deliver_at)>;

class Network {
 public:
  Network(sim::Simulator& simulator, sim::Random impairment_rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; the Network does not own it. Returns its id.
  NodeId attach(Node& node);

  /// Creates a link between two attached nodes. Non-switch nodes may have at
  /// most one link (hosts in Fig. 4 are single-homed); that link becomes the
  /// host's cached uplink.
  Link& connect(Node& a, Node& b, const LinkConfig& config = {});

  /// Sends from `src_node` over its attached link (host side) — called by
  /// Node::send. A host uses its cached uplink and drops the packet with a
  /// warning if it has none. A multihomed node (switch, Wi-Fi cell) has no
  /// uplink and must transmit on an explicit link: this throws for one.
  void send_from(NodeId src_node, Packet pkt);

  /// Delivery: invoked by Link when a packet reaches a node.
  void deliver(const Packet& pkt, NodeId from, NodeId to);

  /// Global tap: fires on every hop of the network (traces, tests).
  void add_tap(PacketTap tap) { taps_.push_back(std::move(tap)); }
  /// Node tap: fires only on hops leaving or entering `node` — the capture
  /// point of one NIC. Stored on the node, so a delivery pays for the taps
  /// of its two endpoints, not for every capture in the network.
  void add_node_tap(NodeId node, PacketTap tap);

  /// Marks `node` as a cross-shard portal: deliveries addressed to it leave
  /// this shard through `sink` instead of the local event loop. The node
  /// must already be attached.
  void set_remote_sink(NodeId node, RemoteSink sink);
  [[nodiscard]] bool is_remote(NodeId node) const noexcept {
    return node < remote_.size() && remote_[node] != nullptr;
  }
  /// Cross-shard hand-off: fires the taps (so egress captures at `from` see
  /// the hop exactly as a local delivery would show it) and invokes the
  /// portal's sink. Called by Link in place of scheduling a local delivery.
  void deliver_remote(Packet&& pkt, NodeId from, NodeId to, TimePoint deliver_at);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] sim::Random& impairment_rng() noexcept { return rng_; }

  [[nodiscard]] Node& node(NodeId id) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const noexcept { return links_; }
  /// Links attached to `node_id` (a scan of every link: set-up and route
  /// learning only, never per packet).
  [[nodiscard]] std::vector<Link*> links_of(NodeId node_id) const;

  [[nodiscard]] std::uint64_t next_packet_id() noexcept { return next_packet_id_++; }
  [[nodiscard]] std::uint64_t packets_delivered() const noexcept { return delivered_; }

 private:
  /// Global taps, then the taps of `from`, then those of `to`.
  void fire_taps(const Packet& pkt, NodeId from, NodeId to) const;

  sim::Simulator& simulator_;
  sim::Random rng_;
  std::vector<Node*> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<PacketTap> taps_;
  std::vector<RemoteSink> remote_;  // indexed by NodeId; empty when unsharded
  std::uint64_t next_packet_id_{1};
  std::uint64_t delivered_{0};
};

}  // namespace pbxcap::net

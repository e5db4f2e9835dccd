// Attachment point for anything that sends/receives packets.
//
// A node carries two pieces of per-node network state that the Network
// fills in and reads on every hop, so the hot paths never search the link
// table or fan a delivery out to taps watching other nodes:
//   - the cached uplink of a single-homed host (set by Network::connect);
//   - the capture taps watching this node (Network::add_node_tap).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace pbxcap::net {

class Link;
class Network;

/// Observation hook fired on link deliveries (post-impairment).
/// `from`/`to` are the link endpoints of the hop, not the end-to-end pair.
using PacketTap = std::function<void(const Packet& pkt, NodeId from, NodeId to)>;

/// A device on the network (host, PBX, switch). Subclasses implement
/// on_receive; sending goes through the owning Network.
class Node {
 public:
  explicit Node(std::string name) : name_{std::move(name)} {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Network* network() const noexcept { return network_; }

  /// Delivery upcall; `pkt.dst` is this node (or broadcast via a switch).
  virtual void on_receive(const Packet& pkt) = 0;

  /// Forwarding devices (switches, access points) may hold several links;
  /// plain hosts are single-homed.
  [[nodiscard]] virtual bool multihomed() const noexcept { return false; }

 protected:
  /// Hands the packet to the attached link. No-op with a warning if the
  /// node is detached.
  void send(Packet pkt);

 private:
  friend class Network;
  std::string name_;
  NodeId id_{kInvalidNode};
  Network* network_{nullptr};
  Link* uplink_{nullptr};        // the only link of a single-homed host
  std::vector<PacketTap> taps_;  // fired on hops leaving or entering this node
};

}  // namespace pbxcap::net

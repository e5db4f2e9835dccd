#include "monitor/capture.hpp"

#include "rtp/packet.hpp"
#include "util/strings.hpp"

namespace pbxcap::monitor {

void SipCapture::attach(net::Network& network) {
  network.add_node_tap(node_, [this](const net::Packet& pkt, net::NodeId from, net::NodeId to) {
    on_packet(pkt, from, to);
  });
}

void SipCapture::on_packet(const net::Packet& pkt, net::NodeId from, net::NodeId to) {
  if (pkt.kind != net::PacketKind::kSip) return;
  // Ingress: delivery whose final hop lands on the watched node.
  // Egress: first hop, leaving the watched node.
  const bool ingress = pkt.dst == node_ && to == node_;
  const bool egress = pkt.src == node_ && from == node_;
  if (!ingress && !egress) return;

  const auto* payload = pkt.payload_as<sip::SipPayload>();
  if (payload == nullptr) return;
  const sip::Message& msg = payload->msg;
  ++total_;
  if (msg.is_request()) {
    counters_.increment(to_string(msg.method()));
  } else {
    counters_.increment(util::format("%d", msg.status_code()));
    if (sip::is_error(msg.status_code())) ++errors_;
  }
}

void RtpCapture::attach(net::Network& network) {
  network.add_node_tap(node_, [this](const net::Packet& pkt, net::NodeId from, net::NodeId to) {
    if (pkt.kind != net::PacketKind::kRtp) return;
    if (pkt.dst == node_ && to == node_) {
      packets_in_ += pkt.batch;
      bytes_in_ += static_cast<std::uint64_t>(pkt.size_bytes) * pkt.batch;
      if (pkt.fluid) {
        // Fluid batch: the RateMeter keys on departure stamps (sent_at in
        // per-packet mode); feed it the batch's last nominal departure so
        // first/last spans match per-packet runs. The stream's first packet
        // is always emitted per-packet, so `first_` is already anchored.
        if (const auto* b = pkt.payload_as<rtp::RtpBatchPayload>()) {
          ingress_rate_.record(b->first_departure + b->spacing * (pkt.batch - 1), pkt.batch);
        } else {
          ingress_rate_.record(pkt.sent_at, pkt.batch);
        }
      } else {
        ingress_rate_.record(pkt.sent_at);
      }
    } else if (pkt.src == node_ && from == node_) {
      packets_out_ += pkt.batch;
    }
  });
}

}  // namespace pbxcap::monitor

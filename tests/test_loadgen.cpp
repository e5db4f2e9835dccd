// Unit tests for the load generator: scenario math, user naming, and small
// end-to-end generator runs against the PBX.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "exp/testbed.hpp"
#include "loadgen/receiver.hpp"
#include "loadgen/scenario.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "rtp/packet.hpp"
#include "sim/simulator.hpp"
#include "sip/sdp.hpp"

namespace {

using namespace pbxcap;

TEST(Scenario, OfferedErlangsIsLambdaTimesHold) {
  loadgen::CallScenario s;
  s.arrival_rate_per_s = 2.0;
  s.hold_time = Duration::seconds(120);
  EXPECT_DOUBLE_EQ(s.offered_erlangs(), 240.0);  // Table I's heaviest column
}

TEST(Scenario, ForOfferedLoadInverts) {
  const auto s = loadgen::CallScenario::for_offered_load(160.0);
  EXPECT_NEAR(s.offered_erlangs(), 160.0, 1e-9);
  EXPECT_NEAR(s.arrival_rate_per_s, 160.0 / 120.0, 1e-9);
  const auto s2 = loadgen::CallScenario::for_offered_load(150.0, Duration::minutes(3));
  EXPECT_NEAR(s2.arrival_rate_per_s, 150.0 / 180.0, 1e-9);
}

TEST(Scenario, CallIndexParsing) {
  EXPECT_EQ(loadgen::call_index_of_user("recv-17"), 17u);
  EXPECT_EQ(loadgen::call_index_of_user("caller-0"), 0u);
  EXPECT_FALSE(loadgen::call_index_of_user("noindex").has_value());
  EXPECT_FALSE(loadgen::call_index_of_user("recv-x").has_value());
}

TEST(Generator, OffersApproximatelyLambdaTimesWindow) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 0.5;
  config.scenario.placement_window = Duration::seconds(60);
  config.scenario.hold_time = Duration::seconds(5);
  config.seed = 3;
  const auto report = exp::run_testbed(config);
  // Poisson(30): nearly always within [12, 48].
  EXPECT_GT(report.calls_attempted, 12u);
  EXPECT_LT(report.calls_attempted, 48u);
  EXPECT_EQ(report.calls_attempted, report.calls_completed + report.calls_blocked +
                                        report.calls_failed);
}

TEST(Generator, CompletedCallsCarryBothDirectionsQuality) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 0.2;
  config.scenario.placement_window = Duration::seconds(20);
  config.scenario.hold_time = Duration::seconds(5);
  config.seed = 11;
  const auto report = exp::run_testbed(config);
  ASSERT_GT(report.calls_completed, 0u);
  // MOS pooled over both directions: two samples per completed call.
  EXPECT_EQ(report.mos.count(), 2 * report.calls_completed);
  EXPECT_GT(report.mos.min(), 4.0);  // clean LAN: the paper's "above 4"
}

TEST(Generator, MaxCallsCapsAttempts) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 10.0;
  config.scenario.placement_window = Duration::seconds(30);
  config.scenario.hold_time = Duration::seconds(2);
  config.scenario.max_calls = 5;
  config.seed = 4;
  const auto report = exp::run_testbed(config);
  EXPECT_EQ(report.calls_attempted, 5u);
}

TEST(Generator, FinitePopulationLimitsConcurrency) {
  exp::TestbedConfig config;
  config.scenario.finite_population = 3;
  config.scenario.per_user_rate_per_s = 0.5;
  config.scenario.placement_window = Duration::seconds(60);
  config.scenario.hold_time = Duration::seconds(10);
  config.seed = 5;
  const auto report = exp::run_testbed(config);
  EXPECT_GT(report.calls_attempted, 0u);
  // Only 3 users exist: never more than 3 concurrent channels.
  EXPECT_LE(report.channels_peak, 3u);
  EXPECT_EQ(report.calls_blocked, 0u);
}

TEST(Generator, StochasticHoldTimesComplete) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 0.3;
  config.scenario.placement_window = Duration::seconds(30);
  config.scenario.hold_time = Duration::seconds(5);
  config.scenario.hold_model = sim::HoldTimeModel::kExponential;
  config.seed = 6;
  const auto report = exp::run_testbed(config);
  EXPECT_GT(report.calls_completed, 0u);
  EXPECT_EQ(report.calls_failed, 0u);
}

// Stands in for a PBX leg towards the receiver: INVITEs, RTP and BYE.
class PbxLeg final : public sip::SipEndpoint {
 public:
  PbxLeg(sim::Simulator& simulator, sip::HostResolver& resolver)
      : sip::SipEndpoint{"pbx", "pbx.unb.br", simulator, resolver} {}

  void invite(const std::string& call_id, std::uint32_t ssrc) {
    sip::Message msg = request(sip::Method::kInvite, call_id);
    sip::Sdp offer;
    offer.connection_host = sip_host();
    offer.audio.rtp_port = 4000;
    offer.audio.payload_types = {0};
    offer.audio.ssrc = ssrc;
    msg.set_body(offer.to_string(), "application/sdp");
    send_request_to(msg, kReceiver, [](const sip::Message&) {});
  }

  void bye(const std::string& call_id) {
    send_request_to(request(sip::Method::kBye, call_id), kReceiver, [](const sip::Message&) {});
  }

  void rtp(net::NodeId dst, std::uint32_t ssrc, std::uint16_t sequence) {
    net::Packet pkt;
    pkt.dst = dst;
    pkt.kind = net::PacketKind::kRtp;
    pkt.size_bytes = 214;
    const TimePoint now = network()->simulator().now();
    pkt.payload = std::make_shared<rtp::RtpPayload>(
        rtp::RtpHeader{.payload_type = 0,
                       .sequence = sequence,
                       .timestamp = 160u * sequence,
                       .ssrc = ssrc},
        now);
    send(std::move(pkt));
  }

 private:
  static constexpr const char* kReceiver = "sipp-server.unb.br";

  sip::Message request(sip::Method method, const std::string& call_id) {
    sip::Message msg = sip::Message::request(method, sip::Uri{"recv-0", kReceiver});
    msg.from() = {sip::Uri{"caller-0", sip_host()}, "leg"};
    msg.to() = {sip::Uri{"recv-0", kReceiver}, ""};
    msg.set_call_id(call_id);
    msg.set_cseq({method == sip::Method::kBye ? 2u : 1u, method});
    return msg;
  }
};

TEST(Receiver, ResentInviteKeepsTheFirstSessionReceiving) {
  // A PBX that crashed and restarted can send a call's INVITE again with the
  // same Call-ID. The receiver must keep routing the call's media to the
  // session it answered first, not to the dropped duplicate.
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{3}};
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;
  net::SwitchNode sw{"sw"};
  loadgen::CallScenario scenario;
  loadgen::SipReceiver receiver{"sipp-server.unb.br", simulator, resolver, ssrcs, scenario};
  PbxLeg pbx{simulator, resolver};
  network.attach(sw);
  network.attach(receiver);
  network.attach(pbx);
  network.connect(receiver, sw, {});
  network.connect(pbx, sw, {});
  receiver.bind();
  pbx.bind();

  constexpr std::uint32_t kSsrc = 77;
  pbx.invite("call-1", kSsrc);
  simulator.run_until(TimePoint::at(Duration::millis(500)));
  pbx.invite("call-1", kSsrc);
  simulator.run_until(TimePoint::at(Duration::seconds(1)));
  EXPECT_EQ(receiver.active_sessions(), 1u);
  for (std::uint16_t seq = 1; seq <= 10; ++seq) pbx.rtp(receiver.id(), kSsrc, seq);
  simulator.run_until(TimePoint::at(Duration::seconds(2)));
  pbx.bye("call-1");
  simulator.run_until(TimePoint::at(Duration::seconds(3)));

  const loadgen::HeardQuality* heard = receiver.finished(0);
  ASSERT_NE(heard, nullptr);
  EXPECT_EQ(heard->rtp_received, 10u);
  EXPECT_EQ(receiver.active_sessions(), 0u);
}

}  // namespace

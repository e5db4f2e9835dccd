// Unit tests for SIP message model, URI, SDP, and the wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>

#include "loadgen/caller.hpp"
#include "loadgen/receiver.hpp"
#include "loadgen/scenario.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "rtp/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sip/message.hpp"
#include "sip/parse.hpp"
#include "sip/sdp.hpp"
#include "sip/types.hpp"
#include "sip/uri.hpp"

namespace {

using namespace pbxcap;
using sip::Message;
using sip::Method;

TEST(Uri, ParseBasicForms) {
  const auto full = sip::Uri::parse("sip:alice@unb.br:5070");
  ASSERT_TRUE(full);
  EXPECT_EQ(full->user(), "alice");
  EXPECT_EQ(full->host(), "unb.br");
  EXPECT_EQ(full->port(), 5070);

  const auto no_port = sip::Uri::parse("sip:bob@pbx.unb.br");
  ASSERT_TRUE(no_port);
  EXPECT_EQ(no_port->port(), 5060);

  const auto no_user = sip::Uri::parse("sip:pbx.unb.br");
  ASSERT_TRUE(no_user);
  EXPECT_TRUE(no_user->user().empty());
}

TEST(Uri, RejectsMalformed) {
  EXPECT_FALSE(sip::Uri::parse(""));
  EXPECT_FALSE(sip::Uri::parse("http://x"));
  EXPECT_FALSE(sip::Uri::parse("sip:"));
  EXPECT_FALSE(sip::Uri::parse("sip:@host"));
  EXPECT_FALSE(sip::Uri::parse("sip:u@host:0"));
  EXPECT_FALSE(sip::Uri::parse("sip:u@host:99999"));
}

TEST(Uri, RoundTrips) {
  for (const char* text : {"sip:alice@unb.br", "sip:bob@pbx.unb.br:5080", "sip:gw.unb.br"}) {
    const auto uri = sip::Uri::parse(text);
    ASSERT_TRUE(uri) << text;
    EXPECT_EQ(uri->to_string(), text);
  }
}

TEST(MethodStrings, RoundTrip) {
  for (const Method m : {Method::kInvite, Method::kAck, Method::kBye, Method::kCancel,
                         Method::kRegister, Method::kOptions, Method::kInfo}) {
    EXPECT_EQ(sip::method_from_string(sip::to_string(m)), m);
  }
  EXPECT_EQ(sip::method_from_string("invite"), Method::kInvite);  // case-insensitive
  EXPECT_EQ(sip::method_from_string("BOGUS"), Method::kUnknown);
}

TEST(StatusClasses, Predicates) {
  EXPECT_TRUE(sip::is_provisional(100));
  EXPECT_TRUE(sip::is_provisional(180));
  EXPECT_FALSE(sip::is_provisional(200));
  EXPECT_TRUE(sip::is_final(200));
  EXPECT_TRUE(sip::is_success(200));
  EXPECT_FALSE(sip::is_success(503));
  EXPECT_TRUE(sip::is_error(503));
  EXPECT_EQ(sip::reason_phrase(503), "Service Unavailable");
  EXPECT_EQ(sip::reason_phrase(486), "Busy Here");
}

Message make_invite() {
  Message invite = Message::request(Method::kInvite, *sip::Uri::parse("sip:recv-1@pbx.unb.br"));
  invite.vias().push_back({"client.unb.br", "z9hG4bK-test-1"});
  invite.from() = {*sip::Uri::parse("sip:caller-1@client.unb.br"), "tag-a"};
  invite.to() = {*sip::Uri::parse("sip:recv-1@pbx.unb.br"), ""};
  invite.set_call_id("call-1@client.unb.br");
  invite.set_cseq({1, Method::kInvite});
  invite.set_contact(*sip::Uri::parse("sip:caller-1@client.unb.br"));
  invite.set_body("v=0\r\n", "application/sdp");
  return invite;
}

TEST(MessageCodecTest, RequestRoundTrip) {
  const Message invite = make_invite();
  const std::string wire = sip::serialize(invite);
  const auto parsed = sip::parse_message(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Message& msg = *parsed.message;
  EXPECT_TRUE(msg.is_request());
  EXPECT_EQ(msg.method(), Method::kInvite);
  EXPECT_EQ(msg.request_uri().user(), "recv-1");
  ASSERT_EQ(msg.vias().size(), 1u);
  EXPECT_EQ(msg.vias()[0].branch, "z9hG4bK-test-1");
  EXPECT_EQ(msg.from().tag, "tag-a");
  EXPECT_EQ(msg.to().tag, "");
  EXPECT_EQ(msg.call_id(), "call-1@client.unb.br");
  EXPECT_EQ(msg.cseq().number, 1u);
  EXPECT_EQ(msg.cseq().method, Method::kInvite);
  ASSERT_TRUE(msg.contact());
  EXPECT_EQ(msg.contact()->user(), "caller-1");
  EXPECT_EQ(msg.body(), "v=0\r\n");
  EXPECT_EQ(msg.content_type(), "application/sdp");
}

TEST(MessageCodecTest, ResponseRoundTrip) {
  const Message invite = make_invite();
  Message ok = Message::response_to(invite, 200);
  ok.to().tag = "tag-b";
  const auto parsed = sip::parse_message(sip::serialize(ok));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.message->is_response());
  EXPECT_EQ(parsed.message->status_code(), 200);
  EXPECT_EQ(parsed.message->reason(), "OK");
  EXPECT_EQ(parsed.message->to().tag, "tag-b");
  EXPECT_EQ(parsed.message->from().tag, "tag-a");
  // Response copies the request's Via (RFC 3261 §8.2.6).
  ASSERT_EQ(parsed.message->vias().size(), 1u);
  EXPECT_EQ(parsed.message->vias()[0].branch, "z9hG4bK-test-1");
}

TEST(MessageCodecTest, ExtensionHeadersPreserved) {
  Message invite = make_invite();
  invite.add_header("User-Agent", "pbxcap/1.0");
  invite.add_header("X-Custom", "a,b");
  const auto parsed = sip::parse_message(sip::serialize(invite));
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed.message->header("user-agent"), nullptr);
  EXPECT_EQ(*parsed.message->header("User-Agent"), "pbxcap/1.0");
  EXPECT_EQ(*parsed.message->header("X-Custom"), "a,b");
  EXPECT_EQ(parsed.message->header("Missing"), nullptr);
}

TEST(MessageCodecTest, ParserRejectsMalformed) {
  EXPECT_FALSE(sip::parse_message("").ok());
  EXPECT_FALSE(sip::parse_message("NOT A SIP LINE\r\n\r\n").ok());
  EXPECT_FALSE(sip::parse_message("SIP/2.0 9999 Bad\r\n\r\n").ok());
  // Missing mandatory headers.
  EXPECT_FALSE(
      sip::parse_message("INVITE sip:a@b SIP/2.0\r\nCall-ID: x\r\nCSeq: 1 INVITE\r\n\r\n").ok());
  // Truncated body vs Content-Length.
  const std::string truncated =
      "INVITE sip:a@b SIP/2.0\r\nFrom: <sip:c@d>;tag=1\r\nTo: <sip:a@b>\r\n"
      "Call-ID: x\r\nCSeq: 1 INVITE\r\nContent-Length: 100\r\n\r\nshort";
  EXPECT_FALSE(sip::parse_message(truncated).ok());
}

TEST(MessageCodecTest, ParserAcceptsCompactAndBareLf) {
  const std::string wire =
      "BYE sip:a@b SIP/2.0\n"
      "v: SIP/2.0/UDP h;branch=z9hG4bK-1\n"
      "f: <sip:c@d>;tag=t1\n"
      "t: <sip:a@b>;tag=t2\n"
      "i: cid-9\n"
      "CSeq: 2 BYE\n\n";
  const auto parsed = sip::parse_message(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.message->method(), Method::kBye);
  EXPECT_EQ(parsed.message->call_id(), "cid-9");
  EXPECT_EQ(parsed.message->to().tag, "t2");
}

TEST(MessageCodecTest, WireBytesMatchesSerializedSize) {
  const Message invite = make_invite();
  EXPECT_EQ(invite.wire_bytes(), sip::serialize(invite).size());
  EXPECT_GT(invite.wire_bytes(), 200u);  // realistic SIP INVITE size
}

TEST(MessageCodecTest, SerializeWritesTheExactText) {
  const Message invite = make_invite();
  EXPECT_EQ(sip::serialize(invite),
            "INVITE sip:recv-1@pbx.unb.br SIP/2.0\r\n"
            "Via: SIP/2.0/UDP client.unb.br;branch=z9hG4bK-test-1\r\n"
            "Max-Forwards: 70\r\n"
            "From: <sip:caller-1@client.unb.br>;tag=tag-a\r\n"
            "To: <sip:recv-1@pbx.unb.br>\r\n"
            "Call-ID: call-1@client.unb.br\r\n"
            "CSeq: 1 INVITE\r\n"
            "Contact: <sip:caller-1@client.unb.br>\r\n"
            "Content-Type: application/sdp\r\n"
            "Content-Length: 5\r\n"
            "\r\n"
            "v=0\r\n");

  Message busy = Message::response_to(invite, 486);
  busy.to().tag = "t9";
  busy.to().uri = sip::Uri{"recv-1", "10.0.0.2", 5070};
  busy.add_header("Retry-After", "30");
  EXPECT_EQ(sip::serialize(busy),
            "SIP/2.0 486 Busy Here\r\n"
            "Via: SIP/2.0/UDP client.unb.br;branch=z9hG4bK-test-1\r\n"
            "From: <sip:caller-1@client.unb.br>;tag=tag-a\r\n"
            "To: <sip:recv-1@10.0.0.2:5070>;tag=t9\r\n"
            "Call-ID: call-1@client.unb.br\r\n"
            "CSeq: 1 INVITE\r\n"
            "Retry-After: 30\r\n"
            "Content-Length: 0\r\n"
            "\r\n");
}

TEST(MessageCodecTest, WireBytesFollowsEveryMutation) {
  // Sizing keeps no state: a field edited after a first call is counted.
  Message invite = make_invite();
  const std::uint32_t before = invite.wire_bytes();
  invite.vias().push_back({"proxy.unb.br", ""});
  invite.to().tag = "late";
  invite.set_cseq({1000, Method::kInvite});
  EXPECT_EQ(invite.wire_bytes(), sip::serialize(invite).size());
  EXPECT_EQ(invite.wire_bytes(), before + (5 + 12 + 12 + 2) + (5 + 4) + 3);
}

// Random text over the characters SIP fields hold; empty about one time in
// four, so every optional field is seen both absent and present.
std::string random_token(sim::Random& rng, std::uint64_t max_len = 24) {
  static constexpr std::string_view kChars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~!%*+'";
  if (rng.uniform_int(4) == 0) return {};
  std::string out;
  const auto len = 1 + rng.uniform_int(max_len);
  for (std::uint64_t i = 0; i < len; ++i) out.push_back(kChars[rng.uniform_int(kChars.size())]);
  return out;
}

sip::Uri random_uri(sim::Random& rng) {
  std::string host = random_token(rng);
  if (host.empty()) host = "h";
  // Half the URIs keep the default port, which serialize() leaves out.
  const auto port = rng.chance(0.5) ? std::uint16_t{5060}
                                    : static_cast<std::uint16_t>(rng.uniform_int(65536));
  return {random_token(rng), std::move(host), port};
}

TEST(MessageCodecTest, WireBytesMatchesSerializedSizeOnRandomMessages) {
  constexpr Method kMethods[] = {Method::kInvite,   Method::kAck,     Method::kBye,
                                 Method::kCancel,   Method::kRegister, Method::kOptions,
                                 Method::kInfo,     Method::kUnknown};
  constexpr int kMaxForwards[] = {0, 1, 9, 10, 69, 70, 99, 100, 255, 1000, 65535, -1};
  constexpr std::uint32_t kCseqs[] = {0, 1, 9, 10, 101, 65536, 4294967295u};
  sim::Random rng{0x5121};
  std::set<int> codes_seen;
  for (int i = 0; i < 4000; ++i) {
    const Method method = kMethods[(i / 2) % 8];
    Message request = Message::request(method, random_uri(rng));
    request.set_max_forwards(rng.chance(0.5) ? kMaxForwards[rng.uniform_int(12)]
                                             : static_cast<int>(rng.uniform_int(100000)));
    request.set_cseq({rng.chance(0.5) ? kCseqs[rng.uniform_int(7)]
                                      : static_cast<std::uint32_t>(rng.uniform_int(1ULL << 32)),
                      kMethods[rng.uniform_int(8)]});
    for (auto vias = rng.uniform_int(4); vias > 0; --vias) {
      std::string host = random_token(rng);
      if (host.empty()) host = "v";
      request.vias().push_back({std::move(host), random_token(rng)});
    }
    request.from() = {random_uri(rng), random_token(rng)};
    request.to() = {random_uri(rng), random_token(rng)};
    request.set_call_id(random_token(rng, 40));
    if (rng.chance(0.5)) request.set_contact(random_uri(rng));
    // Even i: the request itself. Odd i: a response to it, cycling through
    // every status code 100..699 (response_to copies Via/From/To/Call-ID/CSeq).
    Message msg = request;
    if (i % 2 == 1) {
      const int code = 100 + (i / 2) % 600;
      codes_seen.insert(code);
      msg = Message::response_to(request, code);
      if (rng.chance(0.5)) msg.to().tag = random_token(rng);
    }
    for (auto extra = rng.uniform_int(4); extra > 0; --extra) {
      std::string name = random_token(rng, 12);
      msg.add_header(name.empty() ? "X-Empty" : std::move(name), random_token(rng, 60));
    }
    // Bodies: none, a typed one, and a content type with no body (which
    // serialize() leaves out), up to a four-digit Content-Length.
    switch (rng.uniform_int(3)) {
      case 0: break;
      case 1: {
        std::string body(rng.uniform_int(3000), 'b');
        msg.set_body(std::move(body), random_token(rng));
        break;
      }
      default: msg.set_body("", "application/sdp"); break;
    }
    const std::string text = sip::serialize(msg);
    ASSERT_EQ(msg.wire_bytes(), text.size()) << "message " << i << ":\n" << text;
  }
  EXPECT_EQ(codes_seen.size(), 600u);
}

TEST(MessageCodecTest, WireBytesMatchesEdgeValues) {
  Message msg = Message::request(Method::kRegister, sip::Uri{"", "a", 1});
  msg.set_max_forwards(std::numeric_limits<int>::min());
  msg.set_cseq({std::numeric_limits<std::uint32_t>::max(), Method::kRegister});
  EXPECT_EQ(msg.wire_bytes(), sip::serialize(msg).size());

  Message response = Message::response_to(msg, 999);  // unnamed code, empty reason
  response.set_body(std::string(10000, 'x'), "");
  EXPECT_EQ(response.wire_bytes(), sip::serialize(response).size());
}

// The testbed's wiring (caller, receiver and PBX behind one switch) under a
// short run with blocking: every SIP packet any hop carries is sized exactly
// as its serialized text plus the UDP/IP/Ethernet encapsulation.
TEST(MessageCodecTest, EverySipPacketOfATestbedRunHasItsSerializedSize) {
  sim::Simulator simulator;
  sim::Random master{42};
  net::Network network{simulator, master.fork()};
  sim::Random arrival_rng = master.fork();
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;
  loadgen::CallScenario scenario =
      loadgen::CallScenario::for_offered_load(6.0, Duration::seconds(4));
  scenario.placement_window = Duration::seconds(10);

  pbx::PbxConfig pbx_config;
  pbx_config.host = "pbx.unb.br";
  pbx_config.max_channels = 3;  // some calls are refused: error responses too
  net::SwitchNode lan_switch{"switch"};
  pbx::AsteriskPbx pbx_node{pbx_config, simulator, resolver};
  loadgen::SipCaller caller{"sipp-client.unb.br", pbx_config.host, simulator, resolver, ssrcs,
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
  pbx_node.directory().allow_prefix("caller-");

  std::uint64_t sip_packets = 0;
  std::set<int> statuses;
  std::set<Method> methods;
  network.add_tap([&](const net::Packet& pkt, net::NodeId, net::NodeId) {
    if (pkt.kind != net::PacketKind::kSip) return;
    const auto* payload = pkt.payload_as<sip::SipPayload>();
    ASSERT_NE(payload, nullptr);
    ++sip_packets;
    if (payload->msg.is_request()) {
      methods.insert(payload->msg.method());
    } else {
      statuses.insert(payload->msg.status_code());
    }
    EXPECT_EQ(pkt.size_bytes, net::wire_size(
                                  static_cast<std::uint32_t>(sip::serialize(payload->msg).size())));
  });
  caller.start();
  simulator.run_until(TimePoint::at(Duration::seconds(20)));
  caller.finalize_remaining();

  EXPECT_GT(sip_packets, 100u);
  EXPECT_TRUE(methods.count(Method::kInvite) && methods.count(Method::kAck) &&
              methods.count(Method::kBye));
  EXPECT_TRUE(statuses.count(sip::status::kOk) && statuses.count(sip::status::kRinging));
  EXPECT_TRUE(std::any_of(statuses.begin(), statuses.end(), sip::is_error));
}

TEST(MessageCodecTest, RandomGarbageNeverCrashes) {
  sim::Random rng{0xFACE};
  for (int i = 0; i < 2000; ++i) {
    std::string junk;
    const auto len = rng.uniform_int(200);
    for (std::uint64_t j = 0; j < len; ++j) {
      junk.push_back(static_cast<char>(rng.uniform_int(256)));
    }
    const auto result = sip::parse_message(junk);  // must not crash or UB
    if (!result.ok()) {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(MessageCodecTest, TruncationsNeverCrash) {
  const std::string wire = sip::serialize(make_invite());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const auto result = sip::parse_message(std::string_view{wire}.substr(0, cut));
    (void)result;  // any outcome is fine; absence of crash is the property
  }
  // The full message parses.
  EXPECT_TRUE(sip::parse_message(wire).ok());
}

TEST(MessageCodecTest, MutatedBytesNeverCrash) {
  const std::string wire = sip::serialize(make_invite());
  sim::Random rng{7777};
  for (int i = 0; i < 500; ++i) {
    std::string mutated = wire;
    const auto pos = rng.uniform_int(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(256));
    const auto result = sip::parse_message(mutated);
    (void)result;
  }
}

TEST(ViaHeader, ParseAndPrint) {
  const auto via = sip::Via::parse("SIP/2.0/UDP pbx.unb.br;branch=z9hG4bK-42");
  ASSERT_TRUE(via);
  EXPECT_EQ(via->host, "pbx.unb.br");
  EXPECT_EQ(via->branch, "z9hG4bK-42");
  EXPECT_EQ(via->to_string(), "SIP/2.0/UDP pbx.unb.br;branch=z9hG4bK-42");
  EXPECT_FALSE(sip::Via::parse("TCP host"));
}

TEST(CSeqHeader, ParseAndPrint) {
  const auto cseq = sip::CSeq::parse("314 ACK");
  ASSERT_TRUE(cseq);
  EXPECT_EQ(cseq->number, 314u);
  EXPECT_EQ(cseq->method, Method::kAck);
  EXPECT_FALSE(sip::CSeq::parse("notanumber INVITE"));
  EXPECT_FALSE(sip::CSeq::parse("1"));
}

TEST(NameAddrHeader, ParseForms) {
  const auto tagged = sip::NameAddr::parse("<sip:alice@unb.br>;tag=abc");
  ASSERT_TRUE(tagged);
  EXPECT_EQ(tagged->uri.user(), "alice");
  EXPECT_EQ(tagged->tag, "abc");
  const auto bare = sip::NameAddr::parse("sip:bob@unb.br;tag=z");
  ASSERT_TRUE(bare);
  EXPECT_EQ(bare->tag, "z");
  EXPECT_FALSE(sip::NameAddr::parse("<sip:unclosed@x"));
}

TEST(SdpTest, RoundTripWithSsrc) {
  sip::Sdp sdp;
  sdp.connection_host = "client.unb.br";
  sdp.audio.rtp_port = 30'000;
  sdp.audio.payload_types = {0, 8};
  sdp.audio.ssrc = 1234;
  const auto parsed = sip::Sdp::parse(sdp.to_string());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->connection_host, "client.unb.br");
  EXPECT_EQ(parsed->audio.rtp_port, 30'000);
  EXPECT_EQ(parsed->audio.payload_types, (std::vector<std::uint8_t>{0, 8}));
  EXPECT_EQ(parsed->audio.ssrc, 1234u);
}

TEST(SdpTest, RejectsMissingMedia) {
  EXPECT_FALSE(sip::Sdp::parse("v=0\r\nc=IN IP4 host\r\n"));
  EXPECT_FALSE(sip::Sdp::parse(""));
}

TEST(SdpTest, RejectsEmptyFormatList) {
  // RFC 4566 §5.14: an m-line carries at least one format. The parser used
  // to accept the bare "m=audio N RTP/AVP" form, producing an Sdp whose
  // to_string() round-trip then failed — reject it at the boundary instead.
  EXPECT_FALSE(sip::Sdp::parse(
      "v=0\r\no=x 0 0 IN IP4 a\r\ns=s\r\nc=IN IP4 a\r\nt=0 0\r\n"
      "m=audio 30000 RTP/AVP\r\n"));
}

TEST(SdpTest, RoundTripPropertyRandomized) {
  // parse(to_string(x)) == x for any well-formed Sdp: random hosts, ports,
  // non-empty payload-type lists drawn from the catalog range, and optional
  // SSRC lines must all survive the round trip field-for-field.
  sim::Random rng{0xC0DEC};
  for (int i = 0; i < 500; ++i) {
    sip::Sdp sdp;
    sdp.connection_host = "host" + std::to_string(rng.uniform_int(1000)) + ".unb.br";
    sdp.audio.rtp_port = static_cast<std::uint16_t>(1024 + rng.uniform_int(60'000));
    const auto n_pts = 1 + rng.uniform_int(5);
    for (std::uint64_t p = 0; p < n_pts; ++p) {
      sdp.audio.payload_types.push_back(static_cast<std::uint8_t>(rng.uniform_int(128)));
    }
    if (rng.uniform_int(2) == 1) {
      sdp.audio.ssrc = static_cast<std::uint32_t>(1 + rng.uniform_int(0xFFFF'FFFE));
    }
    const auto parsed = sip::Sdp::parse(sdp.to_string());
    ASSERT_TRUE(parsed) << sdp.to_string();
    EXPECT_EQ(parsed->connection_host, sdp.connection_host);
    EXPECT_EQ(parsed->audio.rtp_port, sdp.audio.rtp_port);
    EXPECT_EQ(parsed->audio.payload_types, sdp.audio.payload_types);
    EXPECT_EQ(parsed->audio.ssrc, sdp.audio.ssrc);
  }
}

TEST(SdpTest, NegotiationTable) {
  // RFC 3264 answer selection over the codec tier's interesting cases:
  // offerer preference wins, answer order is irrelevant, disjoint sets fail.
  struct Case {
    std::vector<std::uint8_t> offer;
    std::vector<std::uint8_t> answer;
    std::optional<std::uint8_t> expect;
  };
  const std::vector<Case> cases = {
      {{0}, {0}, 0},                // single common codec
      {{0, 8, 18}, {18, 8}, 8},     // first offered pt the answerer supports
      {{18, 0}, {0, 8}, 0},         // G.729 preferred but unsupported
      {{3, 18, 0}, {0}, 0},         // fallback to the last offered pt
      {{97, 3}, {3, 97}, 97},       // offer order beats answer order
      {{0, 8}, {18}, std::nullopt}, // disjoint: 488 territory
      {{18}, {}, std::nullopt},     // empty answer can accept nothing
  };
  for (const Case& c : cases) {
    sip::Sdp offer;
    offer.connection_host = "a";
    offer.audio.payload_types = c.offer;
    sip::Sdp answer;
    answer.connection_host = "b";
    answer.audio.payload_types = c.answer;
    EXPECT_EQ(sip::Sdp::negotiate(offer, answer), c.expect);
  }
}

TEST(SdpTest, NegotiatePrefersOfferOrder) {
  sip::Sdp offer;
  offer.connection_host = "a";
  offer.audio.payload_types = {8, 0};
  sip::Sdp answer;
  answer.connection_host = "b";
  answer.audio.payload_types = {0, 8};
  const auto pt = sip::Sdp::negotiate(offer, answer);
  ASSERT_TRUE(pt);
  EXPECT_EQ(*pt, 8);  // offerer listed PCMA first

  answer.audio.payload_types = {18};
  EXPECT_FALSE(sip::Sdp::negotiate(offer, answer));
}

}  // namespace

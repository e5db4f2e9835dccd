// SIP wire-format serializer and parser.
//
// Implements enough of the RFC 3261 grammar to round-trip every message the
// testbed generates: request/status lines, the structured headers the stack
// uses (Via, From, To, Call-ID, CSeq, Max-Forwards, Contact, Content-Type,
// Content-Length), arbitrary extension headers, and a body.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "sip/message.hpp"

namespace pbxcap::sip {

struct ParseResult {
  std::optional<Message> message;
  std::string error;  // non-empty iff message is nullopt

  [[nodiscard]] bool ok() const noexcept { return message.has_value(); }
};

/// Renders the message in SIP/2.0 textual form (CRLF line endings,
/// Content-Length always emitted).
[[nodiscard]] std::string serialize(const Message& msg);

/// serialize(msg).size(), counted without building the text.
[[nodiscard]] std::size_t serialized_size(const Message& msg) noexcept;

/// Parses a full SIP message. Strict on structure (start line, mandatory
/// headers present and well-formed), lenient on unknown headers.
[[nodiscard]] ParseResult parse_message(std::string_view text);

}  // namespace pbxcap::sip

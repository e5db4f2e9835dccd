// Output sinks for the SIP wire-format writers.
//
// The wire format is written once, by templated `write_to(Sink&)` members
// (Uri, Via, CSeq, NameAddr) and the message writer behind serialize(). A
// writer runs over either sink: StringSink builds the text, LengthSink only
// counts its bytes. Message::wire_bytes() therefore sizes a message without
// building it, and the size cannot drift from the text.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pbxcap::sip {

/// Appends the written text to `text`.
struct StringSink {
  std::string text;

  void put(std::string_view s) { text.append(s); }
  void put(char c) { text.push_back(c); }
  void put_number(std::int64_t n) {
    char digits[20];  // "-9223372036854775808"
    const auto result = std::to_chars(digits, digits + sizeof digits, n);
    text.append(digits, result.ptr);
  }
};

/// Counts the bytes a StringSink would append.
struct LengthSink {
  std::size_t length{0};

  void put(std::string_view s) noexcept { length += s.size(); }
  void put(char /*c*/) noexcept { ++length; }
  void put_number(std::int64_t n) noexcept {
    std::uint64_t magnitude =
        n < 0 ? 0 - static_cast<std::uint64_t>(n) : static_cast<std::uint64_t>(n);
    length += n < 0 ? 2 : 1;
    while (magnitude >= 10) {
      magnitude /= 10;
      ++length;
    }
  }
};

}  // namespace pbxcap::sip

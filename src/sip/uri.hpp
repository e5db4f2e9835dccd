// SIP URI: the subset "sip:user@host[:port]" the testbed exchanges.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace pbxcap::sip {

class Uri {
 public:
  Uri() = default;
  Uri(std::string user, std::string host, std::uint16_t port = 5060)
      : user_{std::move(user)}, host_{std::move(host)}, port_{port} {}

  [[nodiscard]] const std::string& user() const noexcept { return user_; }
  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] std::string to_string() const;
  /// Writes "sip:" [user "@"] host [":" port] to a wire sink (wire_sink.hpp).
  template <class Sink>
  void write_to(Sink& out) const {
    out.put("sip:");
    if (!user_.empty()) {
      out.put(user_);
      out.put('@');
    }
    out.put(host_);
    if (port_ != 5060) {
      out.put(':');
      out.put_number(port_);
    }
  }

  /// Parses "sip:user@host[:port]"; nullopt on malformed input.
  [[nodiscard]] static std::optional<Uri> parse(std::string_view text);

  [[nodiscard]] bool operator==(const Uri&) const = default;

 private:
  std::string user_;
  std::string host_;
  std::uint16_t port_{5060};
};

}  // namespace pbxcap::sip

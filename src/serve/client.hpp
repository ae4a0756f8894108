#pragma once

// Small blocking client for the eus_served framing: connect to a loopback
// port, write one framed JSON request, read one framed JSON response.
// Shared by eus_client, the router's pooled backend connections, the
// loopback integration tests and the serve_loadgen bench scenario so all
// of them speak the exact same protocol code path.
//
// A connection reads through one receive buffer, allocated without
// zero-fill at its first receive(), reused by every later receive() and
// moved with the connection.  The decoded payload is still a new string
// per frame.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"

namespace eus::serve {

/// Could not reach the server (distinct from a server-sent error payload;
/// eus_client maps it to its own exit code).
class ConnectError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ClientConnection {
 public:
  ClientConnection() = default;
  ~ClientConnection();

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;
  ClientConnection(ClientConnection&& other) noexcept;
  ClientConnection& operator=(ClientConnection&& other) noexcept;

  /// Connects to 127.0.0.1:`port`; throws ConnectError on failure.
  void connect(std::uint16_t port);
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// Caps every subsequent send()/receive() at `ms` milliseconds
  /// (SO_SNDTIMEO/SO_RCVTIMEO); an expired wait surfaces as ConnectError.
  /// 0 restores blocking forever.  The fleet health checker probes with a
  /// short timeout so one wedged backend cannot stall the probe loop.
  void set_timeout_ms(long ms) noexcept;

  /// Writes one framed request payload; throws ConnectError when the
  /// connection drops mid-write.
  void send(std::string_view payload);

  /// Blocks for the next framed response payload; throws ConnectError on
  /// EOF / connection loss (also mid-frame), ProtocolError on a malformed
  /// frame.  A frame larger than the receive buffer arrives over several
  /// reads.
  [[nodiscard]] std::string receive();

  /// send() + receive() in one round trip.
  [[nodiscard]] std::string call(std::string_view payload);

 private:
  static constexpr std::size_t kReceiveBufferBytes = 64 * 1024;

  int fd_ = -1;
  FrameDecoder decoder_;
  std::unique_ptr<char[]> buffer_;  ///< kReceiveBufferBytes, uninitialized
};

}  // namespace eus::serve

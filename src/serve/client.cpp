#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

namespace eus::serve {

ClientConnection::~ClientConnection() { close(); }

ClientConnection::ClientConnection(ClientConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      buffer_(std::move(other.buffer_)) {}

ClientConnection& ClientConnection::operator=(
    ClientConnection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

void ClientConnection::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ConnectError(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    close();
    throw ConnectError("cannot connect to 127.0.0.1:" +
                       std::to_string(port) + ": " + reason);
  }
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

void ClientConnection::set_timeout_ms(long ms) noexcept {
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void ClientConnection::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ClientConnection::send(std::string_view payload) {
  if (fd_ < 0) throw ConnectError("not connected");
  const std::string frame = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ConnectError(std::string("send(): ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string ClientConnection::receive() {
  if (fd_ < 0) throw ConnectError("not connected");
  while (true) {
    if (std::optional<std::string> payload = decoder_.next()) {
      return std::move(*payload);
    }
    if (buffer_ == nullptr) {
      buffer_ = std::make_unique_for_overwrite<char[]>(kReceiveBufferBytes);
    }
    const ssize_t n = ::recv(fd_, buffer_.get(), kReceiveBufferBytes, 0);
    if (n == 0) throw ConnectError("connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ConnectError(std::string("recv(): ") + std::strerror(errno));
    }
    decoder_.feed(buffer_.get(), static_cast<std::size_t>(n));
  }
}

std::string ClientConnection::call(std::string_view payload) {
  send(payload);
  return receive();
}

}  // namespace eus::serve

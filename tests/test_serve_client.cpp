// Loopback tests of ClientConnection's framing against a scripted peer: two
// frames in one send, a frame written one byte at a time, a frame larger
// than the receive buffer, a peer closing mid-frame, and a connection moved
// between owners (as the router's pool moves them) while part of a frame is
// buffered.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace eus::serve {
namespace {

void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Reads and drops one frame the client sent.
void read_one_frame(int fd) {
  FrameDecoder decoder;
  char buffer[256];
  while (!decoder.next().has_value()) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    ASSERT_GT(n, 0);
    decoder.feed(buffer, static_cast<std::size_t>(n));
  }
}

/// A loopback listener whose one accepted connection runs `script`, then
/// closes.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::function<void(int)> script) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener_, 1) != 0 ||
        ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      ADD_FAILURE() << "cannot listen on loopback";
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      const int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
      script(fd);
      ::close(fd);
    });
  }

  ~ScriptedPeer() {
    if (thread_.joinable()) thread_.join();
    ::close(listener_);
  }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int listener_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ServeClient, ReadsTwoFramesFromOneSend) {
  ScriptedPeer peer([](int fd) {
    send_all(fd, encode_frame(R"({"n":1})") + encode_frame(R"({"n":2})"));
  });
  ClientConnection connection;
  connection.connect(peer.port());
  EXPECT_EQ(connection.receive(), R"({"n":1})");
  EXPECT_EQ(connection.receive(), R"({"n":2})");
}

TEST(ServeClient, ReadsAFrameWrittenOneByteAtATime) {
  const std::string payload = R"({"type":"response","code":200})";
  ScriptedPeer peer([&](int fd) {
    for (const char byte : encode_frame(payload)) {
      send_all(fd, std::string_view(&byte, 1));
    }
  });
  ClientConnection connection;
  connection.connect(peer.port());
  EXPECT_EQ(connection.receive(), payload);
}

TEST(ServeClient, ReadsAFrameLargerThanItsBuffer) {
  std::string payload(200 * 1024, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 997) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  ScriptedPeer peer([&](int fd) {
    send_all(fd, encode_frame(payload) + encode_frame("tail"));
  });
  ClientConnection connection;
  connection.connect(peer.port());
  EXPECT_EQ(connection.receive(), payload);
  EXPECT_EQ(connection.receive(), "tail");
}

TEST(ServeClient, PeerClosingMidFrameIsAConnectError) {
  ScriptedPeer peer([](int fd) {
    const std::string frame = encode_frame(R"({"type":"response"})");
    send_all(fd, std::string_view(frame).substr(0, frame.size() / 2));
  });
  ClientConnection connection;
  connection.connect(peer.port());
  EXPECT_THROW((void)connection.receive(), ConnectError);
}

TEST(ServeClient, MovedConnectionKeepsReceiving) {
  const std::string second = R"({"n":2,"pad":")" + std::string(300, 'p') +
                             R"("})";
  const std::string second_frame = encode_frame(second);
  ScriptedPeer peer([&](int fd) {
    // The first frame and half the second arrive together; the rest only
    // after the client, by then moved twice, writes a frame of its own.
    send_all(fd, encode_frame(R"({"n":1})") +
                     second_frame.substr(0, second_frame.size() / 2));
    read_one_frame(fd);
    send_all(fd,
             std::string_view(second_frame).substr(second_frame.size() / 2));
    read_one_frame(fd);
    send_all(fd, encode_frame(R"({"n":3})"));
  });
  ClientConnection first;
  first.connect(peer.port());
  EXPECT_EQ(first.receive(), R"({"n":1})");

  ClientConnection moved(std::move(first));
  EXPECT_FALSE(first.connected());
  ClientConnection assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(moved.connected());
  ASSERT_TRUE(assigned.connected());
  assigned.send(R"({"type":"healthz"})");
  EXPECT_EQ(assigned.receive(), second);
  EXPECT_EQ(assigned.call(R"({"type":"healthz"})"), R"({"n":3})");
}

}  // namespace
}  // namespace eus::serve

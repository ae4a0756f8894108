#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/handlers.hpp"

namespace eus::serve {

// ---------------------------------------------------------------- RequestLog

struct RequestLog::Impl {
  std::mutex mutex;
  std::ofstream out;
};

RequestLog::RequestLog(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::binary | std::ios::app);
  if (!impl_->out) throw std::runtime_error("cannot open run log " + path);
}

RequestLog::~RequestLog() = default;

void RequestLog::write(const std::string& json_line) {
  const std::lock_guard lock(impl_->mutex);
  impl_->out << json_line << '\n';
  impl_->out.flush();  // the daemon may be SIGKILLed; keep lines durable
  lines_.fetch_add(1, std::memory_order_relaxed);
}

JsonObject request_record(std::string_view type, double t_s,
                          const ServeRequest& request, int code) {
  JsonObject o;
  o.field("type", type);
  o.field("t_s", t_s);
  if (!request.id.empty()) o.field("id", request.id);
  o.field("mode", mode_label(request));
  o.field("kind", to_string(request.kind));
  o.field("scenario", request.kind == RequestKind::kDelta
                          ? request.delta.base.name
                          : request.scenario.name);
  if (!request.tenant.empty()) o.field("tenant", request.tenant);
  o.field("code", static_cast<std::int64_t>(code));
  return o;
}

std::string admin_applied(const ServeRequest& request, std::string_view key,
                          std::uint64_t value) {
  JsonObject o = response_envelope(request.id, "ok", kCodeOk);
  o.field("action", to_string(request.admin.action));
  o.field(key, value);
  return o.str();
}

// --------------------------------------------------------------------- Reply

void Reply::send(std::string_view payload) const {
  const std::string frame = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; nothing sensible left to do
    }
    sent += static_cast<std::size_t>(n);
  }
}

// ------------------------------------------------------------------ Endpoint

Endpoint::Endpoint(EndpointHandler& handler, EndpointConfig config)
    : handler_(handler), config_(std::move(config)) {
  const std::string& prefix = config_.metric_prefix;
  metric_connections_ = &config_.metrics->counter(prefix + ".connections");
  metric_requests_ = &config_.metrics->counter(prefix + ".requests");
  metric_errors_ = &config_.metrics->counter(prefix + ".errors");
  metric_admin_actions_ = &config_.metrics->counter(prefix + ".admin.actions");
}

void Endpoint::start(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot listen on port " + std::to_string(port) +
                             ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  uptime_.reset();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Endpoint::drain() noexcept {
  draining_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Endpoint::stop_accepting() {
  drain();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Endpoint::join_connections() {
  stop_accepting();  // no accept may adopt a reader while they are joined
  {
    const std::lock_guard lock(connections_mutex_);
    for (const Connection& connection : connections_) {
      if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RD);
    }
  }
  // Join outside the lock: exiting readers take it to close their socket.
  for (Connection& connection : connections_) {
    if (connection.thread.joinable()) connection.thread.join();
  }
  const std::lock_guard lock(connections_mutex_);
  connections_.clear();
}

void Endpoint::accept_loop() {
  while (!draining()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or fatal): stop accepting
    }
    if (draining()) {
      ::close(fd);
      break;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    metric_connections_->add();
    const std::lock_guard lock(connections_mutex_);
    // Reap finished readers so idle closes do not accumulate threads.  A
    // done reader holds no lock anymore, so joining under ours is safe.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        if (it->thread.joinable()) it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.thread = std::thread([this, &connection] {
      read_loop(&connection);
    });
  }
}

void Endpoint::read_loop(Connection* connection) {
  const Reply reply(connection->fd);
  try {
    read_frames(reply, connection->fd);
  } catch (const std::exception& e) {
    // Handlers answer their own failures; whatever still escapes ends this
    // connection with a 500 instead of ending the process.
    metric_errors_->add();
    reply.send(error_payload("", kCodeInternal, "error", e.what()));
  }
  {
    const std::lock_guard lock(connections_mutex_);
    ::close(connection->fd);
    connection->fd = -1;
  }
  connection->done.store(true, std::memory_order_release);
}

void Endpoint::read_frames(const Reply& reply, int fd) {
  FrameDecoder decoder(config_.max_frame_bytes);
  std::vector<char> buffer(64 * 1024);
  for (;;) {
    while (const std::optional<std::string> payload = decoder.next()) {
      dispatch(reply, *payload);
    }
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n == 0) return;  // peer closed, or join_connections shut the read side
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    try {
      decoder.feed(buffer.data(), static_cast<std::size_t>(n));
    } catch (const ProtocolError& e) {
      // A hostile length prefix poisons the whole stream: answer once,
      // then close (there is no way to resynchronize framing).
      metric_errors_->add();
      reply.send(error_payload("", kCodeBadRequest, "error", e.what()));
      return;
    }
  }
}

void Endpoint::dispatch(const Reply& reply, const std::string& payload) {
  const Stopwatch total;
  ServeRequest request;
  try {
    request = parse_request_text(payload);
  } catch (const ProtocolError& e) {
    // Framing is intact, the document is not: answer and keep the
    // connection.
    metric_errors_->add();
    reply.send(error_payload("", kCodeBadRequest, "error", e.what()));
    return;
  }
  metric_requests_->add();

  switch (request.kind) {
    case RequestKind::kHealthz:
      reply.send(healthz(request.id));
      return;
    case RequestKind::kMetricsz:
      reply.send(metricsz(request.id));
      return;
    case RequestKind::kAdminz:
      metric_admin_actions_->add();
      if (request.admin.action == AdminAction::kGetConfig) {
        reply.send(get_config(request.id));
      } else if (request.admin.action == AdminAction::kCatalogReload) {
        reply.send(catalog_reload(request));
      } else {
        reply.send(handler_.admin(request));
      }
      return;
    case RequestKind::kAllocate:
    case RequestKind::kDelta:
      handler_.serve(reply, std::move(request), payload, total);
      return;
  }
}

void Endpoint::catalog_fields(JsonObject& out) const {
  if (config_.catalog == nullptr) return;
  out.field("catalog_generation",
            static_cast<std::uint64_t>(config_.catalog->generation()));
  out.field("catalog_size",
            static_cast<std::uint64_t>(config_.catalog->snapshot()->size()));
}

std::string Endpoint::healthz(const std::string& id) const {
  JsonObject o = response_envelope(id, "ok", kCodeOk);
  o.field("service", config_.service);
  o.field("uptime_s", uptime_s());
  handler_.healthz_fields(o);
  catalog_fields(o);
  o.field("draining", draining());
  return o.str();
}

std::string Endpoint::metricsz(const std::string& id) const {
  const MetricsSnapshot snap = config_.metrics->snapshot();
  JsonObject o = response_envelope(id, "ok", kCodeOk);
  o.field("service", config_.service);
  o.field("uptime_s", uptime_s());
  append_snapshot(o, snap);
  return o.str();
}

std::string Endpoint::get_config(const std::string& id) const {
  JsonObject o = response_envelope(id, "ok", kCodeOk);
  o.field("action", "get-config");
  o.field("port", static_cast<std::uint64_t>(port_));
  handler_.config_fields(o);
  o.field("max_frame_bytes",
          static_cast<std::uint64_t>(config_.max_frame_bytes));
  catalog_fields(o);
  o.field("draining", draining());
  return o.str();
}

std::string Endpoint::catalog_reload(const ServeRequest& request) {
  if (config_.catalog == nullptr) {
    return error_payload(request.id, kCodeBadRequest, "error",
                         "no scenario catalog configured; catalog-reload "
                         "has no target");
  }
  std::shared_ptr<const ScenarioCatalog> next;
  try {
    next = std::make_shared<const ScenarioCatalog>(request.admin.catalog);
  } catch (const std::invalid_argument& e) {
    return error_payload(request.id, kCodeBadRequest, "error",
                         std::string("catalog rejected: ") + e.what());
  }
  const std::size_t scenarios = next->size();
  const std::uint64_t generation = config_.catalog->swap(std::move(next));
  JsonObject o = response_envelope(request.id, "ok", kCodeOk);
  o.field("action", "catalog-reload");
  o.field("catalog_generation", generation);
  o.field("catalog_size", static_cast<std::uint64_t>(scenarios));
  return o.str();
}

}  // namespace eus::serve

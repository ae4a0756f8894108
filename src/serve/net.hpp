#pragma once

// The network front door both daemons share.  eus_served (server.hpp) and
// eus_router (fleet/router.hpp) each own one Endpoint and plug their
// request path into it through the small EndpointHandler interface, so the
// socket handling, framing rules and shared verbs exist once.
//
// An Endpoint owns:
//  - the loopback listen socket and its accept thread (TCP_NODELAY on
//    every accepted socket; finished readers are reaped on each accept);
//  - one reader thread per connection, each with its own FrameDecoder;
//  - the hostile-prefix rule: a length prefix above max_frame_bytes gets
//    one 400 and the connection closes, because framing cannot be
//    resynchronized.  A well-framed document that does not parse gets a
//    400 and the connection stays open;
//  - the send loop (Reply);
//  - the verbs both daemons answer alike, on the reader thread: healthz
//    and adminz get-config (the endpoint writes the shared fields — uptime,
//    catalog generation and size, draining — and the handler adds its
//    own), metricsz, and adminz catalog-reload.
// The handler answers its own admin verbs and the allocate/delta path.
//
// Teardown is two calls, because readers may block on a daemon's own
// work: stop_accepting() closes the listener (a daemon's halt_acceptor),
// then join_connections() shuts every read side down and joins every
// reader once it has answered the request it is serving (halt_workers).
// eus_served drains its workers in between; eus_router's readers finish
// their proxied calls (docs/runtime.md).
//
// Still one thread per connection, with no connection cap and no read
// deadline (ROADMAP item 3); both belong here when they come.
//
// The file also holds the thread-safe JSONL request log both daemons
// write.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "core/scenario_catalog.hpp"
#include "serve/protocol.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "util/stopwatch.hpp"

namespace eus::serve {

/// Thread-safe JSONL request log (one line per served request, plus a
/// config line at startup and periodic diagnostics snapshots).
/// EXPERIMENTS.md documents the schema.
class RequestLog {
 public:
  /// Appends to `path` (creating it when missing; existing lines are
  /// preserved so restarts extend one history).  Throws
  /// std::runtime_error when the file cannot be opened.
  explicit RequestLog(const std::string& path);
  ~RequestLog();

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  void write(const std::string& json_line);
  /// Lines written through this instance (not pre-existing file lines).
  [[nodiscard]] std::size_t lines_written() const noexcept {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<std::size_t> lines_{0};
};

/// Starts a request-log record with the fields eus_served's serve_request
/// and eus_router's fleet_request lines share: type, t_s, id, mode, kind,
/// scenario, tenant and code.  The caller appends its own fields, then
/// total_ms.
[[nodiscard]] JsonObject request_record(std::string_view type, double t_s,
                                        const ServeRequest& request,
                                        int code);

/// The answer to an admin verb that set one value: the response envelope,
/// the action, and `key`: `value`.
[[nodiscard]] std::string admin_applied(const ServeRequest& request,
                                        std::string_view key,
                                        std::uint64_t value);

/// The write side of one accepted connection, as a handler sees it.
class Reply {
 public:
  explicit Reply(int fd) noexcept : fd_(fd) {}

  /// Frames `payload` and writes all of it; a vanished peer is ignored.
  void send(std::string_view payload) const;

 private:
  int fd_;
};

/// What a daemon plugs into its Endpoint.  Every call arrives on a
/// connection's reader thread, so implementations must be thread-safe.
class EndpointHandler {
 public:
  /// The daemon's own healthz fields, written after uptime_s.
  virtual void healthz_fields(JsonObject& out) const = 0;
  /// The daemon's own adminz get-config fields, written after port.
  virtual void config_fields(JsonObject& out) const = 0;
  /// Answers every admin verb but get-config and catalog-reload.
  [[nodiscard]] virtual std::string admin(const ServeRequest& request) = 0;
  /// One parsed allocate or delta request.  `payload` is the document as
  /// received; `total` started when its frame was decoded.  Answers it
  /// through `reply`, exactly once.
  virtual void serve(const Reply& reply, ServeRequest request,
                     const std::string& payload, const Stopwatch& total) = 0;
};

struct EndpointConfig {
  std::string service;  ///< healthz/metricsz "service": eus_served|eus_router
  /// Counter namespace: <prefix>.connections counts accepts,
  /// <prefix>.requests parsed requests, <prefix>.errors framing and parse
  /// failures, <prefix>.admin.actions adminz requests.
  std::string metric_prefix;
  std::size_t max_frame_bytes = kMaxFrameBytes;
  MetricsRegistry* metrics = nullptr;  ///< required; must outlive the endpoint
  /// Optional alias catalog: healthz and get-config report it, and
  /// catalog-reload swaps it.
  SharedCatalog* catalog = nullptr;
};

class Endpoint {
 public:
  Endpoint(EndpointHandler& handler, EndpointConfig config);
  ~Endpoint() { join_connections(); }

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Binds loopback:`port` (0 = ephemeral), listens and spawns the accept
  /// thread; uptime starts here.  Throws std::runtime_error when the port
  /// cannot be bound.
  void start(std::uint16_t port);

  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] double uptime_s() const noexcept { return uptime_.seconds(); }

  /// True once drain() (or a teardown step) has run; healthz and
  /// get-config report it.
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Reports draining from now on and wakes the accept loop so it exits.
  /// Safe from any thread; does not block.
  void drain() noexcept;

  /// drain() + join the accept thread + close the listen socket.
  /// Idempotent.
  void stop_accepting();

  /// stop_accepting(), then shuts every read side down and joins every
  /// reader.  Idempotent.  A reader finishes the request it is serving
  /// first, so the caller must make sure that request can finish:
  /// eus_served drains its workers before calling this.
  void join_connections();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void read_loop(Connection* connection);
  void read_frames(const Reply& reply, int fd);
  void dispatch(const Reply& reply, const std::string& payload);
  [[nodiscard]] std::string healthz(const std::string& id) const;
  [[nodiscard]] std::string metricsz(const std::string& id) const;
  [[nodiscard]] std::string get_config(const std::string& id) const;
  [[nodiscard]] std::string catalog_reload(const ServeRequest& request);
  void catalog_fields(JsonObject& out) const;

  EndpointHandler& handler_;
  EndpointConfig config_;
  Counter* metric_connections_ = nullptr;
  Counter* metric_requests_ = nullptr;
  Counter* metric_errors_ = nullptr;
  Counter* metric_admin_actions_ = nullptr;

  Stopwatch uptime_;
  std::atomic<bool> draining_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex connections_mutex_;
  std::list<Connection> connections_;  ///< guarded by connections_mutex_
  std::thread accept_thread_;          ///< last: it uses everything above
};

}  // namespace eus::serve

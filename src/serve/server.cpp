#include "serve/server.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "telemetry/json.hpp"

namespace eus::serve {

// ---------------------------------------------------------------- WorkerCrew

WorkerCrew::WorkerCrew(BoundedQueue<RequestJob>& queue,
                       std::function<void(RequestJob&)> execute)
    : queue_(queue), execute_(std::move(execute)) {}

void WorkerCrew::spawn_locked() {
  members_.emplace_back();
  Member* member = &members_.back();
  ++active_;
  member->thread = std::thread([this, member] { worker_loop(member); });
}

void WorkerCrew::reap_locked() {
  for (auto it = members_.begin(); it != members_.end();) {
    // A done member holds no locks anymore, so joining under the mutex is
    // safe (and keeps the list mutation race-free).
    if (it->done.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = members_.erase(it);
    } else {
      ++it;
    }
  }
}

void WorkerCrew::resize(std::size_t target) {
  if (target < 1) target = 1;
  std::size_t poisons = 0;
  {
    const std::lock_guard lock(mutex_);
    if (halted_) return;
    reap_locked();
    target_ = target;
    while (active_ < target_) spawn_locked();
    if (active_ > target_) poisons = active_ - target_;
  }
  for (std::size_t i = 0; i < poisons; ++i) {
    RequestJob token;
    token.poison = true;
    queue_.push_control(std::move(token));
  }
}

void WorkerCrew::halt() {
  {
    const std::lock_guard lock(mutex_);
    if (halted_) return;
    halted_ = true;
  }
  queue_.close();
  // members_ is stable now: resize() refuses after halted_, and workers
  // only mark themselves done.  Join outside the lock — exiting workers
  // take it to decrement active_.
  for (Member& member : members_) {
    if (member.thread.joinable()) member.thread.join();
  }
  const std::lock_guard lock(mutex_);
  members_.clear();
}

std::size_t WorkerCrew::target() const {
  const std::lock_guard lock(mutex_);
  return target_;
}

std::size_t WorkerCrew::active() const {
  const std::lock_guard lock(mutex_);
  return active_;
}

void WorkerCrew::worker_loop(Member* self) {
  for (;;) {
    std::optional<RequestJob> job = queue_.pop();
    if (!job) break;  // queue closed and drained
    if (job->poison) {
      const std::lock_guard lock(mutex_);
      if (active_ > target_) break;  // shrink: this worker retires
      continue;  // stale token — a grow landed since the shrink; discard
    }
    execute_(*job);
  }
  {
    const std::lock_guard lock(mutex_);
    --active_;
  }
  self->done.store(true, std::memory_order_release);
}

// -------------------------------------------------------------------- Server

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      owned_metrics_(config_.metrics == nullptr
                         ? std::make_unique<MetricsRegistry>()
                         : nullptr),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      endpoint_(*this, {.service = "eus_served",
                        .metric_prefix = "serve",
                        .max_frame_bytes = config_.max_frame_bytes,
                        .metrics = metrics_,
                        .catalog = config_.catalog}) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.cache_entries > 0) {
    cache_ = std::make_unique<FrontCache>(config_.cache_entries, metrics_);
  }
  if (config_.archive.max_tenants > 0) {
    archive_ =
        std::make_unique<tenant::ArchiveStore>(config_.archive, metrics_);
  }
  if (config_.eval_threads != 1) {
    eval_pool_ = std::make_unique<ThreadPool>(config_.eval_threads);
  }
  queue_ = std::make_unique<BoundedQueue<RequestJob>>(config_.queue_depth);
  crew_ = std::make_unique<WorkerCrew>(
      *queue_, [this](RequestJob& job) { execute_job(job); });
  handler_context_.metrics = metrics_;
  handler_context_.cache = cache_.get();
  handler_context_.pool = eval_pool_.get();
  handler_context_.archive = archive_.get();
}

Server::~Server() {
  leave_runtime();
  stop();
}

std::size_t Server::queue_size() const { return queue_->size(); }
std::size_t Server::queue_capacity() const { return queue_->capacity(); }
std::size_t Server::worker_target() const { return crew_->target(); }
std::size_t Server::worker_active() const { return crew_->active(); }
std::size_t Server::eval_threads() const {
  return eval_pool_ ? eval_pool_->size() : 1;
}

void Server::set_queue_capacity(std::size_t depth) {
  queue_->set_capacity(depth);
  metric_queue_depth_->set(static_cast<double>(queue_->size()));
}

void Server::set_cache_capacity(std::size_t entries) {
  if (cache_ != nullptr) cache_->set_capacity(entries);
}

void Server::set_workers(std::size_t count) {
  crew_->resize(count);
  if (metric_workers_ != nullptr) {
    metric_workers_->set(static_cast<double>(crew_->target()));
  }
}

void Server::start() {
  if (started_.exchange(true)) {
    throw std::logic_error("server already started");
  }

  metric_responses_ok_ = &metrics_->counter("serve.responses_ok");
  metric_errors_ = &metrics_->counter("serve.errors");
  metric_dropped_ = &metrics_->counter("serve.dropped");
  metric_deadline_expired_ = &metrics_->counter("serve.deadline_expired");
  metric_queue_depth_ = &metrics_->gauge("serve.queue_depth");
  metric_in_flight_ = &metrics_->gauge("serve.in_flight");
  metric_workers_ = &metrics_->gauge("serve.workers");
  metric_service_ = &metrics_->timer("serve.service_s");
  metric_queue_wait_ = &metrics_->timer("serve.queue_wait_s");
  metric_latency_ = &metrics_->histogram("serve.latency");

  // Reload the warm-start archive before the listener is up, so the first
  // accepted request already sees the previous run's fronts.  A corrupt
  // checkpoint cold-starts (archive.checkpoint.corrupt); it never aborts
  // the start.
  if (archive_ != nullptr && !config_.archive_path.empty()) {
    const tenant::ArchiveStore::LoadResult result =
        archive_->load(config_.archive_path);
    checkpoint_due_.store(true, std::memory_order_release);
    if (config_.log != nullptr) {
      JsonObject o;
      o.field("type", "archive_load");
      o.field("path", config_.archive_path);
      o.field("result",
              result == tenant::ArchiveStore::LoadResult::kLoaded ? "loaded"
              : result == tenant::ArchiveStore::LoadResult::kMissing
                  ? "missing"
                  : "corrupt");
      o.field("tenants", static_cast<std::uint64_t>(archive_->tenants()));
      o.field("entries", static_cast<std::uint64_t>(archive_->entries()));
      config_.log->write(o.str());
    }
  }

  crew_->start(config_.workers);
  metric_workers_->set(static_cast<double>(crew_->target()));
  endpoint_.start(config_.port);

  if (config_.log != nullptr) {
    JsonObject o;
    o.field("type", "config");
    o.field("service", "eus_served");
    o.field("port", static_cast<std::uint64_t>(port()));
    o.field("queue_depth", static_cast<std::uint64_t>(config_.queue_depth));
    o.field("workers", static_cast<std::uint64_t>(config_.workers));
    o.field("eval_threads", static_cast<std::uint64_t>(eval_threads()));
    o.field("cache_entries",
            static_cast<std::uint64_t>(cache_ ? cache_->capacity() : 0));
    config_.log->write(o.str());
  }
}

void Server::halt_acceptor() { endpoint_.stop_accepting(); }

void Server::halt_queue() {
  endpoint_.drain();
  queue_->close();
}

void Server::halt_workers() {
  // Workers drain the closed queue and resolve every pending promise;
  // only then can the connection readers (blocked on those futures) be
  // unblocked and joined.
  crew_->halt();
  endpoint_.join_connections();
  // Checkpoint after the drain: every request answered before the halt is
  // in the archive by now, and no worker or admin verb can change it
  // anymore.
  if (!checkpoint_due_.exchange(false, std::memory_order_acq_rel)) return;
  const bool saved = archive_->save(config_.archive_path);
  if (config_.log != nullptr) {
    JsonObject o;
    o.field("type", "archive_save");
    o.field("path", config_.archive_path);
    o.field("saved", saved);
    o.field("tenants", static_cast<std::uint64_t>(archive_->tenants()));
    o.field("entries", static_cast<std::uint64_t>(archive_->entries()));
    config_.log->write(o.str());
  }
}

void Server::execute_job(RequestJob& job) {
  metric_queue_depth_->set(static_cast<double>(queue_->size()));
  const double queue_ms = job.waited.milliseconds();
  metric_queue_wait_->add(
      std::chrono::nanoseconds(static_cast<std::int64_t>(queue_ms * 1e6)));
  metric_in_flight_->set(static_cast<double>(
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1));

  std::optional<double> remaining_ms;
  if (job.request.deadline_ms > 0.0) {
    remaining_ms = job.request.deadline_ms - queue_ms;
  }
  HandleResult result;
  {
    const ScopedTimer timed(metric_service_);
    result = job.request.kind == RequestKind::kDelta
                 ? handle_delta(job.request, handler_context_, remaining_ms,
                                queue_ms)
                 : handle_allocate(job.request, handler_context_, remaining_ms,
                                   queue_ms);
  }
  if (result.code == kCodePartial) metric_deadline_expired_->add();
  // Leave the in-flight count before the answer is released, so a client
  // holding its answer never still sees this computation as running.
  metric_in_flight_->set(static_cast<double>(
      in_flight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  job.promise.set_value(std::move(result));
}

void Server::serve(const Reply& reply, ServeRequest request,
                   const std::string& /*payload*/, const Stopwatch& total) {
  // Resolve catalog aliases to concrete specs *before* fingerprinting, so
  // cached fronts key on what actually runs — in-flight requests finish
  // against the catalog snapshot they arrived under, and a reload can
  // never make a cached entry answer for a different scenario.
  try {
    resolve_request_scenario(request, config_.catalog);
  } catch (const ProtocolError& e) {
    metric_errors_->add();
    reply.send(error_payload(request.id, kCodeBadRequest, "error", e.what()));
    log_request(request, kCodeBadRequest, total.milliseconds(), false, false);
    return;
  }

  if (request.kind == RequestKind::kAllocate) {
    // Only computation queues.  A resident front is a lookup and a render,
    // answered here like healthz, so it never waits behind NSGA-II work;
    // once the queue is closed it is refused like a miss.
    if (queue_->closed()) {
      refuse(reply, request, total);
      return;
    }
    if (const std::optional<HandleResult> hit =
            answer_from_cache(request, handler_context_)) {
      answer(reply, request, *hit, total);
      return;
    }
  }

  RequestJob job;
  job.request = request;
  std::future<HandleResult> future = job.promise.get_future();
  if (!queue_->try_push(std::move(job))) {
    refuse(reply, request, total);
    return;
  }
  metric_queue_depth_->set(static_cast<double>(queue_->size()));
  answer(reply, request, future.get(), total);
}

void Server::answer(const Reply& reply, const ServeRequest& request,
                    const HandleResult& result, const Stopwatch& total) {
  // Counted before it leaves, so a client holding the answer sees it
  // counted; the latency still includes the send.
  if (result.code == kCodeOk || result.code == kCodePartial) {
    metric_responses_ok_->add();
  } else {
    metric_errors_->add();
  }
  reply.send(result.payload);
  metric_latency_->observe_seconds(total.seconds());
  log_request(request, result.code, total.milliseconds(), false,
              result.cache_hit);
}

void Server::refuse(const Reply& reply, const ServeRequest& request,
                    const Stopwatch& total) {
  metric_dropped_->add();
  const char* reason = endpoint_.draining()
                           ? "server is draining; no new work accepted"
                           : "request queue is full; retry with backoff";
  reply.send(
      error_payload(request.id, kCodeOverloaded, "overloaded", reason));
  log_request(request, kCodeOverloaded, total.milliseconds(), true, false);
}

void Server::healthz_fields(JsonObject& out) const {
  if (config_.state != nullptr) {
    out.field("phase", to_string(config_.state->phase()));
  }
  out.field("queue_depth", static_cast<std::uint64_t>(queue_->size()));
  out.field("queue_capacity", static_cast<std::uint64_t>(queue_->capacity()));
  out.field("in_flight", static_cast<std::uint64_t>(in_flight()));
  out.field("workers", static_cast<std::uint64_t>(crew_->target()));
  out.field("eval_threads", static_cast<std::uint64_t>(eval_threads()));
  out.field("cache_size",
            static_cast<std::uint64_t>(cache_ ? cache_->size() : 0));
  if (archive_ != nullptr) {
    out.field("archive_tenants",
              static_cast<std::uint64_t>(archive_->tenants()));
    out.field("archive_entries",
              static_cast<std::uint64_t>(archive_->entries()));
  }
}

void Server::config_fields(JsonObject& out) const {
  if (config_.state != nullptr) {
    out.field("phase", to_string(config_.state->phase()));
  }
  out.field("queue_depth", static_cast<std::uint64_t>(queue_->capacity()));
  out.field("queue_size", static_cast<std::uint64_t>(queue_->size()));
  out.field("workers", static_cast<std::uint64_t>(crew_->target()));
  out.field("workers_active", static_cast<std::uint64_t>(crew_->active()));
  out.field("eval_threads", static_cast<std::uint64_t>(eval_threads()));
  out.field("cache_entries",
            static_cast<std::uint64_t>(cache_ ? cache_->capacity() : 0));
  out.field("cache_size",
            static_cast<std::uint64_t>(cache_ ? cache_->size() : 0));
  if (archive_ != nullptr) {
    const tenant::ArchiveConfig& a = archive_->config();
    out.field("archive_tenants",
              static_cast<std::uint64_t>(archive_->tenants()));
    out.field("archive_max_tenants",
              static_cast<std::uint64_t>(a.max_tenants));
    out.field("archive_entries_per_tenant",
              static_cast<std::uint64_t>(a.entries_per_tenant));
    out.field("archive_genomes_per_entry",
              static_cast<std::uint64_t>(a.genomes_per_entry));
  }
}

std::string Server::admin(const ServeRequest& request) {
  const AdminRequest& admin = request.admin;
  const auto no_archive = [&] {
    return error_payload(request.id, kCodeBadRequest, "error",
                         "no warm-start archive configured "
                         "(--archive-tenants=0); archive verbs have no "
                         "target");
  };
  switch (admin.action) {
    case AdminAction::kSetQueueDepth:
      set_queue_capacity(admin.value);
      return admin_applied(request, "queue_depth", queue_->capacity());
    case AdminAction::kSetCacheEntries:
      if (cache_ == nullptr) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "front cache is disabled (cache_entries=0); "
                             "set-cache-entries has no target");
      }
      set_cache_capacity(admin.value);
      return admin_applied(request, "cache_entries", cache_->capacity());
    case AdminAction::kSetWorkers:
      set_workers(admin.value);
      return admin_applied(request, "workers", crew_->target());
    case AdminAction::kEnableBackend:
    case AdminAction::kDisableBackend:
    case AdminAction::kFleetReload:
      return error_payload(request.id, kCodeBadRequest, "error",
                           "this is a single eus_served daemon, not an "
                           "eus_router; fleet verbs have no target here");
    case AdminAction::kArchiveStats: {
      if (archive_ == nullptr) return no_archive();
      JsonObject o = response_envelope(request.id, "ok", kCodeOk);
      o.field("action", "archive-stats");
      o.field("tenants",
              static_cast<std::uint64_t>(archive_->tenants()));
      o.field("entries",
              static_cast<std::uint64_t>(archive_->entries()));
      o.field("genomes",
              static_cast<std::uint64_t>(archive_->genomes()));
      std::string per_tenant = "[";
      bool first = true;
      for (const tenant::TenantStats& s : archive_->stats()) {
        if (!first) per_tenant += ',';
        first = false;
        JsonObject t;
        t.field("tenant", s.tenant);
        t.field("entries", static_cast<std::uint64_t>(s.entries));
        t.field("genomes", static_cast<std::uint64_t>(s.genomes));
        t.field("cap", static_cast<std::uint64_t>(s.cap));
        t.field("warm_hits", s.warm_hits);
        t.field("misses", s.misses);
        per_tenant += t.str();
      }
      per_tenant += ']';
      o.raw("per_tenant", per_tenant);
      return o.str();
    }
    case AdminAction::kArchiveFlush: {
      if (archive_ == nullptr) return no_archive();
      const std::size_t flushed = archive_->flush(admin.name);
      return admin_applied(request, "flushed",
                           static_cast<std::uint64_t>(flushed));
    }
    case AdminAction::kArchiveCap: {
      if (archive_ == nullptr) return no_archive();
      if (!archive_->set_tenant_cap(admin.name, admin.value)) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "archive-cap value must be >= 1");
      }
      return admin_applied(request, "cap",
                           static_cast<std::uint64_t>(admin.value));
    }
    case AdminAction::kGetConfig:
    case AdminAction::kCatalogReload:
      break;  // the endpoint answers these
  }
  return error_payload(request.id, kCodeInternal, "error",
                       "unhandled admin action");
}

void Server::log_request(const ServeRequest& request, int code,
                         double total_ms, bool dropped, bool cache_hit) {
  if (config_.log == nullptr) return;
  JsonObject o = request_record("serve_request", endpoint_.uptime_s(),
                                request, code);
  if (request.kind == RequestKind::kAllocate) {
    o.field("cache", cache_hit ? "hit" : "miss");
  }
  o.field("dropped", dropped);
  o.field("total_ms", total_ms);
  config_.log->write(o.str());
}

}  // namespace eus::serve

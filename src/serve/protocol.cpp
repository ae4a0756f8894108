#include "serve/protocol.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "data/types.hpp"
#include "telemetry/json.hpp"
#include "tenant/archive_store.hpp"

namespace eus::serve {

namespace {

using util::JsonValue;
using util::to_size;

// Each enum's wire names, in enum order: the one place a name is written.
// to_string, the slugs, the parse lookups and every "(want a|b|c)" list
// read from these tables.
constexpr std::array<const char*, 5> kRequestKinds = {
    "allocate", "delta", "healthz", "metricsz", "adminz"};
constexpr std::array<const char*, 3> kModes = {"heuristic", "nsga2",
                                               "pareto-query"};
constexpr std::array<const char*, 11> kAdminActions = {
    "get-config",     "set-queue-depth", "set-cache-entries", "set-workers",
    "catalog-reload", "enable-backend",  "disable-backend",   "fleet-reload",
    "archive-stats",  "archive-flush",   "archive-cap"};
constexpr std::array<const char*, 4> kMutationOps = {
    "add-tasks", "remove-tasks", "set-window", "drop-machine"};
constexpr std::array<const char*, 4> kHeuristicSlugs = {
    "min-energy", "max-utility", "max-utility-per-energy", "min-min"};

constexpr std::string_view kTenantPattern = "[A-Za-z0-9._-]{1,64}";

template <typename Enum, std::size_t N>
std::optional<Enum> from_wire(const std::array<const char*, N>& names,
                              std::string_view name) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) return static_cast<Enum>(i);
  }
  return std::nullopt;
}

/// "a|b|c", for a refusal's "(want ...)" list.
template <std::size_t N>
std::string want_list(const std::array<const char*, N>& names) {
  std::string out;
  for (const char* name : names) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

[[noreturn]] void fail(std::string_view reason) {
  throw ProtocolError(std::string(reason));
}

[[noreturn]] void fail_mutation(ScenarioMutation::Op op,
                                std::string_view why) {
  fail("mutation " + std::string(kMutationOps[static_cast<std::size_t>(op)]) +
       ' ' + std::string(why));
}

[[noreturn]] void fail_admin(AdminAction action, std::string_view why) {
  fail("admin." + std::string(to_string(action)) + ' ' + std::string(why));
}

/// Refuses `value` (nullptr when absent) as naming no entry of an enum.
[[noreturn]] void fail_unknown(std::string_view what, const JsonValue* value,
                               const std::string& want) {
  const std::string name = value == nullptr      ? ""
                           : value->is_string() ? value->string
                                                : json_text(*value);
  fail("unknown " + std::string(what) + " '" + name + "' (want " + want +
       ")");
}

// The typed member readers.  Each reads member `key` of `obj` and returns
// `fallback` when it is absent.  A present member of the wrong JSON type is
// refused, never read as absent.  Refusal text is composed only on the
// failure path.

/// An enum member, named by its wire name; a null `fallback` refuses an
/// absent member too.
template <typename Enum, std::size_t N>
Enum enum_member(const JsonValue& obj, std::string_view key,
                 std::optional<Enum> fallback,
                 const std::array<const char*, N>& names,
                 std::string_view what) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr && fallback) return *fallback;
  if (v != nullptr && v->is_string()) {
    if (const std::optional<Enum> e = from_wire<Enum>(names, v->string)) {
      return *e;
    }
  }
  fail_unknown(what, v, want_list(names));
}

/// A string member: "<what> must be a string".
std::string_view string_member(const JsonValue& obj, std::string_view key,
                               std::string_view fallback,
                               std::string_view what) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) fail(std::string(what) + " must be a string");
  return v->string;
}

/// A count: an integer in [0, 2^53] (util::to_size).
std::size_t count_member(const JsonValue& obj, std::string_view key,
                         std::size_t fallback) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  const std::optional<std::size_t> n = to_size(v, 0.0);
  if (!n) fail(std::string(key) + " must be a non-negative integer");
  return *n;
}

/// `v`'s number when it is a positive finite number.
double require_positive(const JsonValue& v, std::string_view what) {
  if (!v.is_number() || !(v.number > 0.0) || !std::isfinite(v.number)) {
    fail(std::string(what) + " must be a positive finite number");
  }
  return v.number;
}

/// A positive finite number.
double positive_member(const JsonValue& obj, std::string_view key,
                       double fallback, std::string_view what) {
  const JsonValue* v = obj.get(key);
  return v == nullptr ? fallback : require_positive(*v, what);
}

/// A "seed": any integer in [0, 2^64), nullopt when absent.  Unlike counts,
/// seeds above 2^53 are accepted (clients send them; the nearest double is
/// the seed), but from 2^64 on — infinity included — the cast to
/// std::uint64_t is undefined.
std::optional<std::uint64_t> seed_member(const JsonValue& obj,
                                         std::string_view what) {
  constexpr double kTwoToThe64 = 18446744073709551616.0;
  const JsonValue* v = obj.get("seed");
  if (v == nullptr) return std::nullopt;
  if (!v->is_number() || !(v->number >= 0.0) || !(v->number < kTwoToThe64) ||
      v->number != std::floor(v->number)) {
    fail(std::string(what) + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v->number);
}

/// "deadline_ms": non-negative finite milliseconds; 0 (none) when absent.
double deadline_member(const JsonValue& doc) {
  const JsonValue* d = doc.get("deadline_ms");
  if (d == nullptr) return 0.0;
  if (!d->is_number() || !(d->number >= 0.0) || !std::isfinite(d->number)) {
    fail("deadline_ms must be a non-negative number");
  }
  return d->number;
}

std::vector<std::vector<double>> matrix_field(const JsonValue& obj,
                                              std::string_view key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || !v->is_array()) {
    fail(std::string(key) + " must be an array of rows");
  }
  const std::string entry = std::string(key) + " entry";
  std::vector<std::vector<double>> rows;
  rows.reserve(v->array.size());
  for (const JsonValue& row : v->array) {
    if (!row.is_array()) fail(std::string(key) + " rows must be arrays");
    std::vector<double> out;
    out.reserve(row.array.size());
    for (const JsonValue& cell : row.array) {
      if (cell.kind == JsonValue::Kind::kNull) {
        out.push_back(kIneligible);  // null == task cannot run there
      } else if (cell.is_number()) {
        out.push_back(require_positive(cell, entry));
      } else {
        fail(std::string(key) + " entries must be numbers or null");
      }
    }
    if (!rows.empty() && out.size() != rows.front().size()) {
      fail(std::string(key) + " rows must have equal width");
    }
    rows.push_back(std::move(out));
  }
  if (rows.empty() || rows.front().empty()) {
    fail(std::string(key) + " must be non-empty");
  }
  return rows;
}

ScenarioSpec parse_scenario(const JsonValue& doc, std::string_view key) {
  const JsonValue* s = doc.get(key);
  if (s == nullptr || !s->is_object()) {
    fail("request needs a \"" + std::string(key) + "\" scenario object");
  }
  ScenarioSpec spec;
  spec.name = string_member(*s, "name", "", "scenario.name");
  if (const std::optional<std::uint64_t> seed =
          seed_member(*s, "scenario.seed")) {
    spec.seed = *seed;
    spec.seed_set = true;
  }
  if (spec.name.empty()) spec.name = "inline";
  if (spec.name == "inline") {
    // Inline system: ETC/EPC matrices are mandatory.
    spec.etc = matrix_field(*s, "etc");
    spec.epc = matrix_field(*s, "epc");
    if (spec.epc.size() != spec.etc.size() ||
        spec.epc.front().size() != spec.etc.front().size()) {
      fail("scenario.epc shape must match scenario.etc");
    }
    if (const JsonValue* counts = s->get("machine_counts");
        counts != nullptr) {
      if (!counts->is_array()) fail("scenario.machine_counts must be an array");
      if (counts->array.size() != spec.etc.front().size()) {
        fail("scenario.machine_counts must have one entry per machine type");
      }
      for (const JsonValue& c : counts->array) {
        const std::optional<std::size_t> n = to_size(&c, 1.0);
        if (!n) fail("scenario.machine_counts entries must be integers >= 1");
        spec.machine_counts.push_back(*n);
      }
    }
  } else if (spec.name != "custom") {
    // A named dataset, or a catalog alias: resolution against the server's
    // loaded ScenarioCatalog happens later (resolve_scenario), so parsing
    // stays catalog-independent.  Only the name and an optional seed
    // override travel with either.
    return spec;
  }
  // The custom and inline trace shape.
  spec.tasks = count_member(*s, "tasks", spec.tasks);
  spec.window_s =
      positive_member(*s, "window_s", spec.window_s, "scenario.window_s");
  if (spec.tasks == 0) fail("scenario.tasks must be >= 1");
  return spec;
}

/// set-* and archive-cap's "value", an integer >= 1.
std::size_t admin_value(const JsonValue& doc, AdminAction action) {
  const std::optional<std::size_t> n = to_size(doc.get("value"), 1.0);
  if (!n) fail_admin(action, "needs an integer \"value\" >= 1");
  return *n;
}

std::vector<ScenarioRecipe> parse_catalog(const JsonValue& doc,
                                          AdminAction action) {
  const JsonValue* c = doc.get("catalog");
  if (c == nullptr || !c->is_object()) {
    fail_admin(action, "needs a \"catalog\" object");
  }
  const JsonValue* scenarios = c->get("scenarios");
  if (scenarios == nullptr || !scenarios->is_array()) {
    fail("catalog.scenarios must be an array");
  }
  std::vector<ScenarioRecipe> catalog;
  for (const JsonValue& entry : scenarios->array) {
    if (!entry.is_object()) fail("catalog.scenarios entries must be objects");
    ScenarioRecipe recipe;
    recipe.name = string_member(entry, "name", "", "catalog entry name");
    if (recipe.name.empty()) fail("catalog entry needs a \"name\"");
    recipe.base = string_member(entry, "base", "", "catalog entry base");
    if (recipe.base.empty()) fail("catalog entry needs a \"base\"");
    if (const std::optional<std::uint64_t> seed =
            seed_member(entry, "catalog entry seed")) {
      recipe.seed = *seed;
    }
    recipe.tasks = count_member(entry, "tasks", recipe.tasks);
    recipe.window_s = positive_member(entry, "window_s", recipe.window_s,
                                      "catalog entry window_s");
    catalog.push_back(std::move(recipe));
  }
  return catalog;
}

AdminRequest parse_admin(const JsonValue& doc) {
  AdminRequest admin;
  admin.action = enum_member<AdminAction>(
      doc, "action", AdminAction::kGetConfig, kAdminActions, "admin action");
  switch (admin.action) {
    case AdminAction::kGetConfig:
    case AdminAction::kArchiveStats:
      break;
    case AdminAction::kSetQueueDepth:
    case AdminAction::kSetCacheEntries:
    case AdminAction::kSetWorkers:
      admin.value = admin_value(doc, admin.action);
      break;
    case AdminAction::kCatalogReload:
      admin.catalog = parse_catalog(doc, admin.action);
      break;
    case AdminAction::kEnableBackend:
    case AdminAction::kDisableBackend:
      admin.name = string_member(doc, "name", "", "name");
      if (admin.name.empty()) {
        fail_admin(admin.action, "needs a backend \"name\"");
      }
      break;
    case AdminAction::kFleetReload: {
      const JsonValue* f = doc.get("fleet");
      if (f == nullptr || !f->is_object()) {
        fail_admin(admin.action, "needs a \"fleet\" object");
      }
      admin.fleet = *f;  // validated by the router's fleet-config parser
      break;
    }
    case AdminAction::kArchiveFlush:
      // No name, or "", flushes every tenant.
      admin.name = string_member(doc, "name", "", "name");
      if (!admin.name.empty() && !tenant::valid_tenant_id(admin.name)) {
        fail_admin(admin.action, "tenant name must match " +
                                     std::string(kTenantPattern));
      }
      break;
    case AdminAction::kArchiveCap:
      admin.name = string_member(doc, "name", "", "name");
      if (!tenant::valid_tenant_id(admin.name)) {
        fail_admin(admin.action, "needs a tenant \"name\" matching " +
                                     std::string(kTenantPattern));
      }
      admin.value = admin_value(doc, admin.action);
      break;
  }
  return admin;
}

Nsga2Params parse_nsga2(const JsonValue& doc) {
  Nsga2Params params;
  const JsonValue* n = doc.get("nsga2");
  if (n == nullptr) return params;
  if (!n->is_object()) fail("\"nsga2\" must be an object");
  params.population = count_member(*n, "population", params.population);
  params.generations = count_member(*n, "generations", params.generations);
  if (params.population < 2 || params.population % 2 != 0) {
    fail("nsga2.population must be even and >= 2");
  }
  if (params.generations == 0) fail("nsga2.generations must be >= 1");
  if (const JsonValue* p = n->get("mutation_probability"); p != nullptr) {
    if (!p->is_number() || !(p->number >= 0.0 && p->number <= 1.0)) {
      fail("nsga2.mutation_probability must be in [0, 1]");
    }
    params.mutation_probability = p->number;
  }
  if (const JsonValue* seeds = n->get("seeds"); seeds != nullptr) {
    if (!seeds->is_array()) fail("nsga2.seeds must be an array of names");
    for (const JsonValue& s : seeds->array) {
      if (!s.is_string()) fail("nsga2.seeds entries must be strings");
      const auto h = heuristic_from_slug(s.string);
      if (!h) fail("unknown seed heuristic '" + s.string + "'");
      params.seeds.push_back(*h);
    }
  }
  return params;
}

std::string parse_tenant(const JsonValue& doc, bool required) {
  const JsonValue* t = doc.get("tenant");
  if (t == nullptr) {
    if (required) fail("delta request needs a \"tenant\" id");
    return {};
  }
  if (!t->is_string() || !tenant::valid_tenant_id(t->string)) {
    fail("tenant must be a string matching " + std::string(kTenantPattern));
  }
  return t->string;
}

std::vector<ScenarioMutation> parse_mutations(const JsonValue& doc) {
  const JsonValue* m = doc.get("mutations");
  if (m == nullptr || !m->is_array()) {
    fail("delta request needs a \"mutations\" array");
  }
  if (m->array.empty()) {
    fail("delta.mutations must not be empty (an unchanged scenario is an "
         "allocate request)");
  }
  std::vector<ScenarioMutation> mutations;
  mutations.reserve(m->array.size());
  for (const JsonValue& entry : m->array) {
    if (!entry.is_object()) fail("delta.mutations entries must be objects");
    ScenarioMutation mut;
    mut.op = enum_member<ScenarioMutation::Op>(entry, "op", std::nullopt,
                                               kMutationOps, "mutation op");
    switch (mut.op) {
      case ScenarioMutation::Op::kAddTasks:
      case ScenarioMutation::Op::kRemoveTasks:
        mut.count = count_member(entry, "count", 0);
        if (mut.count == 0) fail_mutation(mut.op, "needs a \"count\" >= 1");
        break;
      case ScenarioMutation::Op::kSetWindow: {
        const JsonValue* w = entry.get("window_s");
        if (w == nullptr || !w->is_number()) {
          fail_mutation(mut.op, "needs a \"window_s\" number");
        }
        mut.window_s = require_positive(*w, "mutation window_s");
        break;
      }
      case ScenarioMutation::Op::kDropMachine: {
        const std::optional<std::size_t> n = to_size(entry.get("machine"), 0.0);
        if (!n) {
          fail_mutation(mut.op, "needs a non-negative integer \"machine\" "
                                "instance index");
        }
        mut.machine = *n;
        break;
      }
    }
    mutations.push_back(mut);
  }
  return mutations;
}

/// An allocate's "mode": "heuristic:<slug>", "nsga2" or "pareto-query".
void parse_mode(const JsonValue& doc, ServeRequest& request) {
  const JsonValue* v = doc.get("mode");
  const std::string_view mode =
      v != nullptr && v->is_string() ? std::string_view(v->string) : "";
  const std::string_view heuristic = to_string(ModeKind::kHeuristic);
  if (mode.starts_with(heuristic) &&
      mode.substr(heuristic.size()).starts_with(':')) {
    const std::string_view slug = mode.substr(heuristic.size() + 1);
    const std::optional<SeedHeuristic> h = heuristic_from_slug(slug);
    if (!h) {
      fail("unknown heuristic '" + std::string(slug) + "' (want " +
           want_list(kHeuristicSlugs) + ")");
    }
    request.mode = ModeKind::kHeuristic;
    request.heuristic = *h;
    return;
  }
  const std::optional<ModeKind> m = from_wire<ModeKind>(kModes, mode);
  if (!m || *m == ModeKind::kHeuristic) {
    fail_unknown("mode", v,
                 std::string(heuristic) + ":<name>|" +
                     to_string(ModeKind::kNsga2) + '|' +
                     to_string(ModeKind::kParetoQuery));
  }
  request.mode = *m;
}

ParetoQuery parse_query(const JsonValue& doc) {
  ParetoQuery query;
  const JsonValue* q = doc.get("query");
  if (q == nullptr) return query;
  if (!q->is_object()) fail("\"query\" must be an object");
  if (const JsonValue* v = q->get("max_energy"); v != nullptr) {
    if (!v->is_number()) fail("query.max_energy must be a number");
    query.max_energy = require_positive(*v, "query.max_energy");
  }
  if (const JsonValue* v = q->get("min_utility"); v != nullptr) {
    if (!v->is_number() || !std::isfinite(v->number)) {
      fail("query.min_utility must be a number");
    }
    query.min_utility = v->number;
  }
  return query;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ProtocolError("frame payload exceeds 32-bit length prefix");
  }
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>((n >> 24U) & 0xFFU));
  frame.push_back(static_cast<char>((n >> 16U) & 0xFFU));
  frame.push_back(static_cast<char>((n >> 8U) & 0xFFU));
  frame.push_back(static_cast<char>(n & 0xFFU));
  frame.append(payload);
  return frame;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
  // Validate the pending length prefix eagerly so a hostile prefix fails
  // before any payload accumulates.
  if (buffer_.size() >= 4) {
    const auto b = [&](std::size_t i) {
      return static_cast<std::uint32_t>(
          static_cast<unsigned char>(buffer_[i]));
    };
    const std::uint32_t n =
        (b(0) << 24U) | (b(1) << 16U) | (b(2) << 8U) | b(3);
    if (n > max_frame_bytes_) {
      throw ProtocolError("frame of " + std::to_string(n) +
                          " bytes exceeds the " +
                          std::to_string(max_frame_bytes_) + "-byte limit");
    }
  }
}

std::optional<std::string> FrameDecoder::next() {
  if (buffer_.size() < 4) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t n = (b(0) << 24U) | (b(1) << 16U) | (b(2) << 8U) | b(3);
  if (buffer_.size() < 4 + static_cast<std::size_t>(n)) return std::nullopt;
  std::string payload = buffer_.substr(4, n);
  buffer_.erase(0, 4 + static_cast<std::size_t>(n));
  // The erase may expose the next frame's prefix; re-validate it.
  feed("", 0);
  return payload;
}

const char* to_string(RequestKind k) noexcept {
  return kRequestKinds[static_cast<std::size_t>(k)];
}

const char* to_string(ModeKind m) noexcept {
  return kModes[static_cast<std::size_t>(m)];
}

const char* to_string(AdminAction a) noexcept {
  return kAdminActions[static_cast<std::size_t>(a)];
}

const char* heuristic_slug(SeedHeuristic h) noexcept {
  return kHeuristicSlugs[static_cast<std::size_t>(h)];
}

std::optional<SeedHeuristic> heuristic_from_slug(
    std::string_view slug) noexcept {
  return from_wire<SeedHeuristic>(kHeuristicSlugs, slug);
}

std::string mode_label(const ServeRequest& request) {
  std::string mode{to_string(request.mode)};
  if (request.mode == ModeKind::kHeuristic) {
    mode += ':';
    mode += heuristic_slug(request.heuristic);
  }
  return mode;
}

ServeRequest parse_request(const util::JsonValue& doc) {
  if (!doc.is_object()) fail("request must be a JSON object");
  ServeRequest request;
  request.id = string_member(doc, "id", "", "id");
  request.kind = enum_member<RequestKind>(
      doc, "type", RequestKind::kAllocate, kRequestKinds, "request type");
  switch (request.kind) {
    case RequestKind::kHealthz:
    case RequestKind::kMetricsz:
      return request;
    case RequestKind::kAdminz:
      request.admin = parse_admin(doc);
      return request;
    case RequestKind::kDelta:
      // A delta is an nsga2-budget request for routing/capability purposes:
      // repairing and polishing a front runs the same machinery.
      request.mode = ModeKind::kNsga2;
      request.tenant = parse_tenant(doc, /*required=*/true);
      request.delta.base = parse_scenario(doc, "base");
      if (request.delta.base.name == "inline") {
        fail("delta.base cannot be an inline scenario (inline systems are "
             "not archivable; name the scenario instead)");
      }
      request.delta.mutations = parse_mutations(doc);
      request.delta.polish_generations =
          count_member(doc, "polish_generations", 0);
      if (const JsonValue* cf = doc.get("cold_fallback"); cf != nullptr) {
        if (cf->kind != JsonValue::Kind::kBool) {
          fail("cold_fallback must be a boolean");
        }
        request.delta.cold_fallback = cf->boolean;
      }
      break;
    case RequestKind::kAllocate:
      request.tenant = parse_tenant(doc, /*required=*/false);
      parse_mode(doc, request);
      request.scenario = parse_scenario(doc, "scenario");
      break;
  }
  request.nsga2 = parse_nsga2(doc);
  if (request.kind == RequestKind::kAllocate) request.query = parse_query(doc);
  request.deadline_ms = deadline_member(doc);
  return request;
}

ServeRequest parse_request_text(std::string_view json) {
  try {
    return parse_request(util::parse_json(json));
  } catch (const util::JsonParseError& e) {
    fail(std::string("malformed JSON: ") + e.what());
  }
}

ScenarioSpec resolve_scenario(const ScenarioSpec& spec,
                              const ScenarioCatalog* catalog) {
  if (ScenarioCatalog::is_builtin_name(spec.name)) return spec;
  const ScenarioRecipe* recipe =
      catalog == nullptr ? nullptr : catalog->find(spec.name);
  if (recipe == nullptr) {
    fail("unknown scenario name '" + spec.name +
         "' (want dataset1|dataset2|dataset3|custom|inline or a catalog "
         "alias)");
  }
  // The resolved spec is exactly what a direct request for the recipe's
  // base would carry, so aliases share cache entries with direct requests
  // and cached fronts stay valid across catalog reloads.
  ScenarioSpec resolved;
  resolved.name = recipe->base;
  resolved.seed = spec.seed_set ? spec.seed : recipe->seed;
  resolved.seed_set = true;
  resolved.tasks = recipe->tasks;
  resolved.window_s = recipe->window_s;
  return resolved;
}

bool resolve_request_scenario(ServeRequest& request,
                              const SharedCatalog* catalog) {
  ScenarioSpec& spec = request.kind == RequestKind::kDelta
                           ? request.delta.base
                           : request.scenario;
  if (ScenarioCatalog::is_builtin_name(spec.name)) return false;
  std::shared_ptr<const ScenarioCatalog> snapshot;
  if (catalog != nullptr) snapshot = catalog->snapshot();
  spec = resolve_scenario(spec, snapshot.get());
  return true;
}

ScenarioSpec apply_mutations(const ScenarioSpec& base,
                             const std::vector<ScenarioMutation>& mutations) {
  ScenarioSpec spec = base;
  for (const ScenarioMutation& m : mutations) {
    if (m.op != ScenarioMutation::Op::kDropMachine && spec.name != "custom") {
      fail_mutation(m.op, m.op == ScenarioMutation::Op::kSetWindow
                              ? "applies only to custom scenarios (the "
                                "datasets' windows are fixed)"
                              : "applies only to custom scenarios (the "
                                "datasets' traces are fixed)");
    }
    switch (m.op) {
      case ScenarioMutation::Op::kAddTasks:
        spec.tasks += m.count;
        break;
      case ScenarioMutation::Op::kRemoveTasks:
        if (m.count >= spec.tasks) {
          fail_mutation(m.op, "would leave the trace empty");
        }
        spec.tasks -= m.count;
        break;
      case ScenarioMutation::Op::kSetWindow:
        spec.window_s = m.window_s;
        break;
      case ScenarioMutation::Op::kDropMachine:
        if (std::find(spec.dropped_machines.begin(),
                      spec.dropped_machines.end(),
                      m.machine) != spec.dropped_machines.end()) {
          fail_mutation(m.op, "lists machine " + std::to_string(m.machine) +
                                  " twice");
        }
        spec.dropped_machines.push_back(m.machine);
        break;
    }
  }
  std::sort(spec.dropped_machines.begin(), spec.dropped_machines.end());
  return spec;
}

std::string with_resolved_scenario(std::string_view payload,
                                   const ServeRequest& request) {
  const bool delta = request.kind == RequestKind::kDelta;
  const ScenarioSpec& spec = delta ? request.delta.base : request.scenario;
  JsonObject scenario;
  scenario.field("name", spec.name);
  if (spec.seed_set) {
    scenario.field("seed", static_cast<std::uint64_t>(spec.seed));
  }
  if (spec.name == "custom") {
    scenario.field("tasks", static_cast<std::uint64_t>(spec.tasks));
    scenario.field("window_s", spec.window_s);
  }
  JsonValue doc = util::parse_json(payload);
  doc.object[delta ? "base" : "scenario"] = util::parse_json(scenario.str());
  return json_text(doc);
}

namespace {

// Fingerprints are archive keys persisted in checkpoints, so their bytes
// never change: integers in decimal, doubles as %.17g (what the ostream
// they were first written with printed at precision 17), the inline
// system's hash in lowercase hex.

void append_integer(std::string& out, std::uint64_t value, int base = 10) {
  std::array<char, 20> buf{};
  out.append(buf.data(),
             std::to_chars(buf.data(), buf.data() + buf.size(), value, base)
                 .ptr);
}

void append_number(std::string& out, double value) {
  std::array<char, 32> buf{};
  out.append(buf.data(),
             std::to_chars(buf.data(), buf.data() + buf.size(), value,
                           std::chars_format::general, 17)
                 .ptr);
}

void append_scenario_fingerprint(std::string& key, const ScenarioSpec& s) {
  key += "scenario=";
  key += s.name;
  key += ";seed=";
  append_integer(key, s.seed);
  if (s.name == "custom" || s.name == "inline") {
    key += ";tasks=";
    append_integer(key, s.tasks);
    key += ";window=";
    append_number(key, s.window_s);
  }
  if (s.name == "inline") {
    // FNV-1a over the matrix entries' bit patterns keeps the key short
    // while remaining a pure function of the inline system.
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFFU;
        h *= 1099511628211ULL;
      }
    };
    for (const auto* m : {&s.etc, &s.epc}) {
      mix(m->size());
      for (const auto& row : *m) {
        for (const double x : row) {
          std::uint64_t bits = 0;
          static_assert(sizeof(bits) == sizeof(x));
          std::memcpy(&bits, &x, sizeof(bits));
          mix(bits);
        }
      }
    }
    for (const std::size_t c : s.machine_counts) mix(c);
    key += ";system=";
    append_integer(key, h, 16);
  }
  if (!s.dropped_machines.empty()) {
    key += ";drop=";
    for (std::size_t i = 0; i < s.dropped_machines.size(); ++i) {
      if (i > 0) key += ',';
      append_integer(key, s.dropped_machines[i]);
    }
  }
}

}  // namespace

std::string scenario_fingerprint(const ScenarioSpec& s) {
  std::string key;
  append_scenario_fingerprint(key, s);
  return key;
}

std::string request_fingerprint(const ServeRequest& request) {
  std::string key;
  if (request.kind == RequestKind::kDelta) {
    // Never a front-cache key (delta results depend on archive state);
    // identifies the request for routing and logs.
    key += "delta;base=";
    append_scenario_fingerprint(key, request.delta.base);
    key += ";mut=";
    for (const ScenarioMutation& m : request.delta.mutations) {
      switch (m.op) {
        case ScenarioMutation::Op::kAddTasks:
          key += "+t";
          append_integer(key, m.count);
          break;
        case ScenarioMutation::Op::kRemoveTasks:
          key += "-t";
          append_integer(key, m.count);
          break;
        case ScenarioMutation::Op::kSetWindow:
          key += 'w';
          append_number(key, m.window_s);
          break;
        case ScenarioMutation::Op::kDropMachine:
          key += "-m";
          append_integer(key, m.machine);
          break;
      }
      key += ',';
    }
  } else {
    append_scenario_fingerprint(key, request.scenario);
  }
  key += "|mode=";
  if (request.mode == ModeKind::kHeuristic) {
    key += mode_label(request);
  } else {
    // pareto-query shares the nsga2 fingerprint on purpose: it reads the
    // front an nsga2 request with the same budget would compute.
    const Nsga2Params& n = request.nsga2;
    key += "nsga2;pop=";
    append_integer(key, n.population);
    key += ";gen=";
    append_integer(key, n.generations);
    key += ";mut=";
    append_number(key, n.mutation_probability);
    key += ";seeds=";
    for (const SeedHeuristic h : n.seeds) {
      key += heuristic_slug(h);
      key += ',';
    }
  }
  if (!request.tenant.empty()) {
    // Tenant-keyed results may be warm-started (strictly better fronts);
    // they never share cache entries with the tenant-less fast path.
    key += ";tenant=";
    key += request.tenant;
  }
  return key;
}

}  // namespace eus::serve

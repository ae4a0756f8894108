#include "served.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/study_engine.hpp"
#include "data/historical.hpp"
#include "heuristics/seeds.hpp"
#include "reference.hpp"
#include "sched/evaluator.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"

extern char** environ;

namespace perfbench {

using namespace eus;
using eus::serve::ScenarioMutation;
using eus::serve::ScenarioSpec;
using eus::util::JsonValue;

namespace {

constexpr std::size_t kSetupRepeats = 7;
constexpr std::size_t kHotSet = 16;
constexpr double kWindowS = 0.5;
/// Pause before each window's reference job, so the fleet's work on the
/// previous window's last responses does not overlap it.
constexpr std::chrono::milliseconds kSettle{20};
constexpr std::size_t kOracleCold = 8;
constexpr std::size_t kOracleHeuristic = 16;
constexpr std::size_t kHistoricalMachines = 9;
constexpr double kChildTimeoutS = 20.0;

std::atomic<std::uint64_t> g_fleet_serial{0};

std::string scenario_json(const ScenarioSpec& s) {
  std::string out = "{\"name\":\"" + s.name + "\",\"seed\":" +
                    std::to_string(s.seed);
  if (s.name == "custom") {
    out += ",\"tasks\":" + std::to_string(s.tasks) +
           ",\"window_s\":" + std::to_string(s.window_s);
  }
  return out + "}";
}

std::string nsga2_json(const Spec& spec) {
  std::string seeds;
  for (const SeedHeuristic h : spec.seeds) {
    if (!seeds.empty()) seeds += ',';
    seeds += std::string("\"") + serve::heuristic_slug(h) + "\"";
  }
  return "{\"population\":" + std::to_string(spec.population) +
         ",\"generations\":" + std::to_string(spec.generations) +
         ",\"seeds\":[" + seeds + "]}";
}

std::string mutation_json(const ScenarioMutation& m) {
  switch (m.op) {
    case ScenarioMutation::Op::kAddTasks:
      return "{\"op\":\"add-tasks\",\"count\":" + std::to_string(m.count) + "}";
    case ScenarioMutation::Op::kRemoveTasks:
      return "{\"op\":\"remove-tasks\",\"count\":" + std::to_string(m.count) +
             "}";
    case ScenarioMutation::Op::kSetWindow:
      return "{\"op\":\"set-window\",\"window_s\":" +
             std::to_string(m.window_s) + "}";
    case ScenarioMutation::Op::kDropMachine:
      return "{\"op\":\"drop-machine\",\"machine\":" +
             std::to_string(m.machine) + "}";
  }
  return "{}";
}

std::string frame_key(const ScenarioSpec& s) {
  std::string key = s.name + "|" + std::to_string(s.seed) + "|" +
                    std::to_string(s.tasks) + "|" + std::to_string(s.window_s);
  for (const std::size_t m : s.dropped_machines) key += "|" + std::to_string(m);
  return key;
}

bool mutually_nondominated(const std::vector<EUPoint>& front) {
  for (const EUPoint& a : front) {
    for (const EUPoint& b : front) {
      if (dominates(a, b)) return false;
    }
  }
  return true;
}

}  // namespace

ScenarioSpec custom_spec(std::uint64_t seed, std::size_t tasks,
                         double window_s) {
  ScenarioSpec s;
  s.name = "custom";
  s.seed = seed;
  s.seed_set = true;
  s.tasks = tasks;
  s.window_s = window_s;
  return s;
}

ScenarioSpec dataset_spec(int dataset, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = "dataset" + std::to_string(dataset);
  s.seed = seed;
  s.seed_set = true;
  return s;
}

/// The offline counterpart of a served scenario, built without the serve
/// layer: the oracle side of the bit-identity checks.
Scenario offline_scenario(const ScenarioSpec& s) {
  if (s.name == "dataset1") return make_dataset1(s.seed);
  if (s.name == "dataset3") return make_dataset3(s.seed);
  return make_custom_scenario("custom", historical_system(), s.tasks,
                              s.window_s, s.seed);
}


// ---------------------------------------------------------------- Fleet

Fleet::Child Fleet::spawn(const std::vector<std::string>& argv,
                          const std::string& log) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    if (log_fd >= 0) ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execve(args[0], args.data(), environ);
    ::_exit(127);
  }
  ::close(fds[1]);
  if (log_fd >= 0) ::close(log_fd);
  Child child{static_cast<int>(pid), fds[0]};
  children_.push_back(child);
  return child;
}

std::uint16_t Fleet::await_port(const Child& child, const std::string& what) {
  static const std::string kMarker = "listening on 127.0.0.1:";
  std::string text;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < kChildTimeoutS) {
    pollfd pfd{child.out_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0) {
      char buf[512];
      const ssize_t n = ::read(child.out_fd, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
      const std::size_t at = text.find(kMarker);
      if (at != std::string::npos) {
        const std::size_t begin = at + kMarker.size();
        const std::size_t end = text.find_first_not_of("0123456789", begin);
        if (end != std::string::npos) {
          return static_cast<std::uint16_t>(
              std::stoul(text.substr(begin, end - begin)));
        }
      }
    }
  }
  throw std::runtime_error(what + " did not report a listening port");
}

Fleet::Fleet(const Options& options, std::size_t backends) {
  const std::string tag = std::to_string(::getpid()) + "_" +
                          std::to_string(g_fleet_serial.fetch_add(1));
  try {
    for (std::size_t b = 0; b < backends; ++b) {
      const Child c = spawn(
          {options.bin_dir + "/eus_served", "--port", "0", "--workers", "1",
           "--threads", "1", "--queue-depth", "64", "--cache-entries", "64",
           "--diagnostics", "0", "--archive-tenants", "64",
           "--archive-entries", "8", "--archive-genomes", "32"},
          options.work_dir + "/backend" + std::to_string(b) + "_" + tag +
              ".log");
      backend_ports_.push_back(await_port(c, "eus_served"));
    }
    const std::string fleet_path =
        options.work_dir + "/fleet_" + tag + ".json";
    {
      std::ofstream out(fleet_path);
      out << "{\"backends\": [";
      for (std::size_t b = 0; b < backend_ports_.size(); ++b) {
        out << (b == 0 ? "" : ", ") << "{\"name\": \"b" << b
            << "\", \"port\": " << backend_ports_[b] << "}";
      }
      out << "]}\n";
    }
    const Child r =
        spawn({options.bin_dir + "/eus_router", "--port", "0", "--fleet",
               fleet_path, "--policy", "min-min", "--health-period", "2"},
              options.work_dir + "/router_" + tag + ".log");
    router_port_ = await_port(r, "eus_router");
    const auto t0 = Clock::now();
    for (;;) {
      try {
        const JsonValue doc = call_json(router_port_, "{\"type\":\"healthz\"}");
        if (doc.number_or("code", 0) == 200) break;
      } catch (const std::exception&) {
      }
      if (seconds_since(t0) > kChildTimeoutS) {
        throw std::runtime_error("router healthz never answered");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } catch (...) {
    stop();
    throw;
  }
}

Fleet::~Fleet() { stop(); }

double Fleet::peak_rss_mb() const {
  double total = 0.0;
  for (const Child& c : children_) total += perfbench::peak_rss_mb(c.pid);
  return total;
}

void Fleet::stop() {
  // Router first (it was spawned last), so no request reaches a backend
  // that is already draining.
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    if (it->pid > 0) ::kill(it->pid, SIGTERM);
    const auto t0 = Clock::now();
    bool reaped = false;
    while (!reaped && it->pid > 0) {
      int status = 0;
      const pid_t r = ::waitpid(it->pid, &status, WNOHANG);
      if (r == it->pid || r < 0) {
        reaped = true;
      } else if (seconds_since(t0) > kChildTimeoutS) {
        ::kill(it->pid, SIGKILL);
        ::waitpid(it->pid, &status, 0);
        reaped = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (it->out_fd >= 0) ::close(it->out_fd);
  }
  children_.clear();
}

JsonValue call_json(std::uint16_t port, const std::string& payload) {
  serve::ClientConnection conn;
  conn.connect(port);
  conn.set_timeout_ms(30000);
  return util::parse_json(conn.call(payload));
}

std::map<std::string, double> scrape_counters(std::uint16_t port) {
  std::map<std::string, double> out;
  const JsonValue doc = call_json(port, "{\"type\":\"metricsz\"}");
  if (const JsonValue* c = doc.get("counters"); c != nullptr) {
    for (const auto& [name, v] : c->object) out[name] = v.number;
  }
  return out;
}

const char* cls_name(Cls c) noexcept {
  switch (c) {
    case Cls::kHit:
      return "hit";
    case Cls::kQuery:
      return "query";
    case Cls::kHeuristic:
      return "heuristic";
    case Cls::kCold:
      return "cold";
    case Cls::kDelta:
      return "delta";
    case Cls::kWarmAlloc:
      return "warm_alloc";
  }
  return "?";
}

std::string render(const Spec& spec) {
  if (spec.cls == Cls::kDelta) {
    std::string muts;
    for (const ScenarioMutation& m : spec.mutations) {
      if (!muts.empty()) muts += ',';
      muts += mutation_json(m);
    }
    return "{\"type\":\"delta\",\"tenant\":\"" + spec.tenant +
           "\",\"base\":" + scenario_json(spec.base) + ",\"mutations\":[" +
           muts + "],\"nsga2\":" + nsga2_json(spec) + "}";
  }
  std::string out = "{\"type\":\"allocate\"";
  if (!spec.tenant.empty()) out += ",\"tenant\":\"" + spec.tenant + "\"";
  if (spec.cls == Cls::kHeuristic) {
    out += std::string(",\"mode\":\"heuristic:") +
           serve::heuristic_slug(spec.heuristic) + "\"";
  } else {
    out += spec.cls == Cls::kQuery ? ",\"mode\":\"pareto-query\""
                                   : ",\"mode\":\"nsga2\"";
    out += ",\"nsga2\":" + nsga2_json(spec);
  }
  return out + ",\"scenario\":" + scenario_json(spec.scenario) + "}";
}

// ------------------------------------------------------------------ Mix

Mix::Mix(std::string workload, std::uint64_t seed)
    : workload_(std::move(workload)), seed_(seed) {
  for (std::size_t h = 0; h < kHotSet; ++h) {
    hot_.push_back(custom_spec(1 + mix_seed(seed, 1000 + h) % 999983, 40,
                               120.0));
  }
  conns_.resize(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns_[c].rng_state = mix_seed(seed, 100 + c);
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t t = 2 * c + k;
      conns_[c].tenants.push_back(
          Tenant{"tenant" + std::to_string(t),
                 custom_spec(1 + mix_seed(seed, 2000 + t) % 999983, 40, 120.0)});
    }
  }
}

ScenarioSpec Mix::representative() const {
  if (workload_ == "serve_mix") return hot_.front();
  if (workload_ == "tenant_delta") return conns_.front().tenants.front().latest;
  return dataset_spec(probe_dataset_, seed_ % 999983 + 1);
}

Mix Mix::probe(int dataset, std::uint64_t seed) {
  Mix mix("probe", seed);
  mix.probe_dataset_ = dataset;
  return mix;
}

double Mix::uniform(Conn& c) {
  c.rng_state = mix_seed(c.rng_state, 7);
  return static_cast<double>(c.rng_state >> 11U) * 0x1.0p-53;
}

std::uint64_t Mix::below(Conn& c, std::uint64_t n) {
  return static_cast<std::uint64_t>(uniform(c) * static_cast<double>(n)) % n;
}

std::vector<Spec> Mix::priming() const {
  std::vector<Spec> out;
  if (workload_ == "serve_mix") {
    for (const ScenarioSpec& s : hot_) {
      Spec spec;
      spec.cls = Cls::kCold;
      spec.scenario = s;
      spec.seeds = {SeedHeuristic::kMinEnergy};
      out.push_back(spec);
    }
  } else if (workload_ == "tenant_delta") {
    for (const Conn& c : conns_) {
      for (const Tenant& t : c.tenants) {
        Spec spec;
        spec.cls = Cls::kCold;
        spec.tenant = t.id;
        spec.scenario = t.latest;
        spec.generations = 32;
        spec.seeds = {SeedHeuristic::kMinEnergy};
        out.push_back(spec);
      }
    }
  } else {
    Spec spec;
    spec.cls = Cls::kCold;
    spec.scenario = dataset_spec(probe_dataset_, seed_ % 999983 + 1);
    spec.population = 8;
    spec.generations = 2;
    spec.seeds = {SeedHeuristic::kMinEnergy};
    out.push_back(spec);
  }
  return out;
}

Spec Mix::next(std::size_t conn) {
  Conn& c = conns_[conn];
  const std::uint64_t n = c.count++;
  const std::uint64_t fresh_seed =
      1 + mix_seed(seed_, (static_cast<std::uint64_t>(conn) << 40U) | n) %
              999983;
  const std::vector<SeedHeuristic> heuristics = all_seed_heuristics();
  Spec spec;
  const double u = uniform(c);

  if (workload_ == "serve_mix") {
    spec.seeds = {SeedHeuristic::kMinEnergy};
    if (u < 0.45) {
      spec.cls = Cls::kHit;
      spec.scenario = hot_[below(c, kHotSet)];
    } else if (u < 0.65) {
      spec.cls = Cls::kQuery;
      spec.scenario = hot_[below(c, kHotSet)];
    } else if (u < 0.88) {
      spec.cls = Cls::kHeuristic;
      spec.scenario = custom_spec(fresh_seed, 40, 120.0);
      spec.heuristic = heuristics[below(c, heuristics.size())];
    } else {
      spec.cls = Cls::kCold;
      spec.scenario = below(c, 2) == 0 ? custom_spec(fresh_seed, 40, 120.0)
                                       : dataset_spec(1, fresh_seed);
    }
    return spec;
  }

  if (workload_ == "tenant_delta") {
    Tenant& t = c.tenants[n % c.tenants.size()];
    spec.tenant = t.id;
    spec.generations = 32;
    spec.seeds = {SeedHeuristic::kMinEnergy};
    spec.expect_warm = true;
    if (u >= 0.7) {
      spec.cls = Cls::kWarmAlloc;
      spec.scenario = t.latest;
      return spec;
    }
    spec.cls = Cls::kDelta;
    spec.base = t.latest;
    ScenarioMutation m;
    ScenarioSpec mutated = t.latest;
    const std::uint64_t op = below(c, 10);
    if (op <= 6) {
      // Trace size walks around its base of 40 tasks, so the per-request
      // cost does not drift with the seed.
      const bool grow = t.latest.tasks < 40;
      m.op = grow ? ScenarioMutation::Op::kAddTasks
                  : ScenarioMutation::Op::kRemoveTasks;
      m.count = 2 + below(c, 5);
      mutated.tasks = grow ? mutated.tasks + m.count : mutated.tasks - m.count;
    } else if (op <= 8) {
      m.op = ScenarioMutation::Op::kSetWindow;
      double w = 60.0 + 10.0 * static_cast<double>(below(c, 12));
      if (w == t.latest.window_s) w += 10.0;
      m.window_s = w;
      mutated.window_s = w;
    } else {
      m.op = ScenarioMutation::Op::kDropMachine;
      m.machine = below(c, kHistoricalMachines);
      mutated.dropped_machines = {m.machine};
    }
    spec.mutations = {m};
    spec.scenario = mutated;
    return spec;
  }

  // The offline workloads' served probe: the study dataset through the
  // fleet, as repeated (cached) and fresh small NSGA-II runs.
  spec.population = 8;
  spec.generations = 2;
  spec.seeds = {SeedHeuristic::kMinEnergy};
  if (u < 0.5) {
    spec.cls = Cls::kHit;
    spec.scenario = dataset_spec(probe_dataset_, seed_ % 999983 + 1);
  } else if (u < 0.75) {
    spec.cls = Cls::kHeuristic;
    spec.scenario = dataset_spec(probe_dataset_, fresh_seed);
    spec.heuristic = SeedHeuristic::kMinEnergy;
  } else {
    spec.cls = Cls::kCold;
    spec.scenario = dataset_spec(probe_dataset_, fresh_seed);
  }
  return spec;
}

void Mix::answered(std::size_t conn, const Spec& spec, bool ok) {
  if (spec.cls != Cls::kDelta || !ok || !spec.scenario.dropped_machines.empty()) {
    return;
  }
  for (Tenant& t : conns_[conn].tenants) {
    if (t.id == spec.tenant) t.latest = spec.scenario;
  }
}

// ------------------------------------------------------------ load loop

namespace {

Sample parse_sample(const std::string& text) {
  Sample s;
  const JsonValue doc = util::parse_json(text);
  s.ok = doc.number_or("code", 0) == 200;
  s.cache_hit = doc.string_or("cache", "") == "hit";
  if (const JsonValue* w = doc.get("warm"); w != nullptr) s.warm = w->boolean;
  if (const JsonValue* t = doc.get("timing"); t != nullptr) {
    s.queue_ms = t->number_or("queue_ms", -1.0);
    s.service_ms = t->number_or("service_ms", -1.0);
  }
  if (const JsonValue* f = doc.get("front"); f != nullptr && f->is_array()) {
    for (const JsonValue& p : f->array) {
      s.front.push_back(
          EUPoint{p.number_or("energy", 0.0), p.number_or("utility", 0.0)});
    }
  }
  if (const JsonValue* o = doc.get("objectives"); o != nullptr) {
    s.objectives =
        EUPoint{o->number_or("energy", 0.0), o->number_or("utility", 0.0)};
  }
  return s;
}

}  // namespace

std::vector<Sample> closed_loop(std::uint16_t port, Mix& mix, double seconds,
                                std::vector<Spec>& specs, double& elapsed_s,
                                std::size_t per_conn_cap) {
  std::vector<std::vector<Spec>> conn_specs(kConnections);
  std::vector<std::vector<Sample>> conn_samples(kConnections);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      serve::ClientConnection conn;
      for (std::size_t n = 0;
           per_conn_cap > 0 ? n < per_conn_cap : seconds_since(t0) < seconds;
           ++n) {
        Spec spec = mix.next(c);
        const std::string payload = render(spec);
        Sample sample;
        auto r0 = Clock::now();
        try {
          if (!conn.connected()) {
            conn.connect(port);
            conn.set_timeout_ms(30000);
            r0 = Clock::now();  // a round trip excludes connecting
          }
          const std::string response = conn.call(payload);
          sample.rtt_ms = seconds_since(r0) * 1e3;
          const double rtt = sample.rtt_ms;
          sample = parse_sample(response);
          sample.rtt_ms = rtt;
        } catch (const std::exception&) {
          sample.rtt_ms = seconds_since(r0) * 1e3;
          sample.ok = false;
          conn.close();
        }
        mix.answered(c, spec, sample.ok);
        sample.spec = conn_specs[c].size();
        conn_specs[c].push_back(std::move(spec));
        conn_samples[c].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  elapsed_s = seconds_since(t0);

  std::vector<Sample> samples;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const std::size_t offset = specs.size();
    for (Spec& s : conn_specs[c]) specs.push_back(std::move(s));
    for (Sample& s : conn_samples[c]) {
      s.spec += offset;
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

// ---------------------------------------------------------------- checks

void check_samples(const std::vector<Spec>& specs,
                   const std::vector<Sample>& samples, Report& report) {
  std::size_t cold_checked = 0;
  std::size_t heuristic_checked = 0;
  for (const Sample& s : samples) {
    const Spec& spec = specs[s.spec];
    if (!report.check(s.ok, std::string(cls_name(spec.cls)) +
                                " request was not answered 200")) {
      continue;
    }
    // A repeated tenant allocate may be answered from the front cache,
    // which reports no warm flag; every computed answer must be warm.
    if (spec.expect_warm && !s.warm && !s.cache_hit) {
      report.check(false, std::string(cls_name(spec.cls)) +
                              " answer for " + spec.tenant + " was not warm");
    }
    if (spec.cls == Cls::kDelta && !mutually_nondominated(s.front)) {
      report.check(false, "a delta front holds a dominated point");
    }
    if (spec.cls == Cls::kCold && spec.tenant.empty() &&
        cold_checked < kOracleCold) {
      ++cold_checked;
      const Scenario scenario = offline_scenario(spec.scenario);
      const UtilityEnergyProblem problem(scenario.system, scenario.trace);
      Nsga2Config config;
      config.population_size = spec.population;
      config.seed = spec.scenario.seed;
      StudyEngine engine(StudyEngineConfig{});
      const StudyResult oracle = engine.run(
          problem, config, {spec.generations},
          {PopulationSpec{"p0", '*', spec.seeds}});
      report.check(oracle.final_front(0) == s.front,
                   "served nsga2 front differs from the offline "
                   "StudyEngine population-0 oracle (" +
                       spec.scenario.name + " seed " +
                       std::to_string(spec.scenario.seed) + ")");
    }
    if (spec.cls == Cls::kHeuristic && heuristic_checked < kOracleHeuristic) {
      ++heuristic_checked;
      const Scenario scenario = offline_scenario(spec.scenario);
      const Evaluator evaluator(scenario.system, scenario.trace);
      const Evaluation e = evaluator.evaluate(
          make_seed(spec.heuristic, scenario.system, scenario.trace));
      report.check(e.energy == s.objectives.energy &&
                       e.utility == s.objectives.utility,
                   "heuristic objectives differ from "
                   "Evaluator::evaluate(make_seed(...))");
    }
  }
}

double mean_front_hv(const std::vector<Spec>& specs,
                     const std::vector<Sample>& samples) {
  std::map<std::string, HvFrame> frames;
  std::vector<double> hv;
  for (const Sample& s : samples) {
    if (!s.ok || s.front.empty()) continue;
    const ScenarioSpec& scenario = specs[s.spec].scenario;
    const std::string key = frame_key(scenario);
    auto it = frames.find(key);
    if (it == frames.end()) {
      it = frames.emplace(key, hv_frame(serve::build_scenario(scenario))).first;
    }
    hv.push_back(normalized_hv(s.front, it->second));
  }
  return mean(hv);
}

// ------------------------------------------------------------ workloads

bool is_served_workload(const std::string& workload) {
  return workload == "serve_mix" || workload == "tenant_delta";
}

FleetSetup set_up_fleet(const Options& options, Mix& mix, Report& report) {
  FleetSetup out;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    out.fleet.reset();  // the previous fleet is stopped outside the timing
    const double ref_ms = reference_ms();
    const auto t0 = Clock::now();
    out.fleet = std::make_unique<Fleet>(options, kBackends);
    bool primed = true;
    for (const Spec& spec : mix.priming()) {
      const JsonValue doc = call_json(out.fleet->port(), render(spec));
      primed = primed && doc.number_or("code", 0) == 200;
    }
    out.setup_s.push_back(at_reference_speed(seconds_since(t0), ref_ms));
    report.check(primed, "a priming request was not answered 200");
  }
  return out;
}

void run_served_workload(const Options& options, Report& report) {
  Mix mix(options.workload, options.seed);
  FleetSetup setup = set_up_fleet(options, mix, report);

  // The load runs in windows; between two windows, once the fleet has
  // been idle for kSettle, the reference job (reference.hpp) times the
  // machine's current speed.
  struct Window {
    double ref_ms = 0.0;
    double elapsed_s = 0.0;
    std::vector<double> rtt_ms;
  };
  std::vector<Window> windows;
  std::vector<Spec> specs;
  std::vector<Sample> samples;
  const auto loop0 = Clock::now();
  while (seconds_since(loop0) < options.seconds) {
    Window w;
    std::this_thread::sleep_for(kSettle);
    w.ref_ms = reference_ms();
    for (Sample& s :
         closed_loop(setup.fleet->port(), mix, kWindowS, specs, w.elapsed_s)) {
      w.rtt_ms.push_back(s.rtt_ms);
      samples.push_back(std::move(s));
    }
    windows.push_back(std::move(w));
  }
  const double elapsed_s = seconds_since(loop0);
  const double rss = setup.fleet->peak_rss_mb();
  const auto stop0 = Clock::now();
  setup.fleet->stop();
  report.note("fleet stop took " + std::to_string(seconds_since(stop0)) +
              " s");

  std::array<std::size_t, kNumCls> per_cls{};
  std::size_t hits = 0;
  std::size_t warm = 0;
  for (const Sample& s : samples) {
    ++per_cls[static_cast<std::size_t>(specs[s.spec].cls)];
    hits += s.cache_hit ? 1 : 0;
    warm += s.warm ? 1 : 0;
  }
  check_samples(specs, samples, report);
  const double hv = mean_front_hv(specs, samples);

  const std::size_t beyond_p95 =
      samples.size() - static_cast<std::size_t>(
                           std::ceil(0.95 * static_cast<double>(samples.size())));
  std::string mix_line = "classes (count, p50/p95 ms):";
  for (std::size_t k = 0; k < kNumCls; ++k) {
    if (per_cls[k] == 0) continue;
    std::vector<double> cls_rtt;
    for (const Sample& s : samples) {
      if (static_cast<std::size_t>(specs[s.spec].cls) == k) {
        cls_rtt.push_back(s.rtt_ms);
      }
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%zu (%.3f/%.3f)",
                  cls_name(static_cast<Cls>(k)), per_cls[k], median(cls_rtt),
                  quantile(cls_rtt, 0.95));
    mix_line += buf;
  }
  report.note("workload " + options.workload + ": eus_router + " +
              std::to_string(kBackends) +
              " single-worker eus_served, closed loop over " +
              std::to_string(kConnections) + " connections");
  report.note("samples: " + std::to_string(samples.size()) + " requests (" +
              std::to_string(beyond_p95) + " beyond p95), " +
              std::to_string(hits) + " front-cache hits, " +
              std::to_string(warm) + " warm answers; " + mix_line);
  // Latency and throughput per window at reference speed, median over
  // the windows.
  std::vector<double> p50;
  std::vector<double> p95;
  std::vector<double> rate;
  std::vector<double> raw_p50;
  std::vector<double> ref;
  std::size_t fewest = samples.size();
  for (const Window& w : windows) {
    p50.push_back(at_reference_speed(median(w.rtt_ms), w.ref_ms));
    p95.push_back(at_reference_speed(quantile(w.rtt_ms, 0.95), w.ref_ms));
    rate.push_back(static_cast<double>(w.rtt_ms.size()) /
                   at_reference_speed(w.elapsed_s, w.ref_ms));
    raw_p50.push_back(median(w.rtt_ms));
    ref.push_back(w.ref_ms);
    fewest = std::min(fewest, w.rtt_ms.size());
  }
  report.note("windows: " + std::to_string(windows.size()) + " x " +
              std::to_string(kWindowS) + " s, fewest samples in a window " +
              std::to_string(fewest) + " (" + std::to_string(fewest / 20) +
              " beyond its p95); loop ran " + std::to_string(elapsed_s) +
              " s");
  report.note("as measured: p50 " + std::to_string(median(raw_p50)) +
              " ms, reference job " + std::to_string(median(ref)) + " ms (" +
              std::to_string(kReferenceNominalMs) + " ms nominal)");
  report.set("setup_s", median(setup.setup_s), "s");
  report.set("latency_p50_ms", median(p50), "ms");
  report.set("latency_p95_ms", median(p95), "ms");
  report.set("req_per_s", median(rate), "1/s");
  report.set("front_hv", hv, "ratio");
  report.set("peak_rss_mb", rss, "MiB");
}

}  // namespace perfbench

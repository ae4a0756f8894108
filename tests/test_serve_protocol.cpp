// Wire-protocol unit tests: framing round trips, eager oversized-frame
// rejection, request-document validation and cache-fingerprint identity,
// the request corpus (tests/corpus/requests.jsonl) that pins every
// document's fingerprints or refusal message, and the status the router
// reads from a response's envelope.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/handlers.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "telemetry/json.hpp"

namespace eus::serve {
namespace {

TEST(Framing, RoundTripsOnePayload) {
  const std::string payload = R"({"type":"healthz"})";
  const std::string frame = encode_frame(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);

  FrameDecoder decoder;
  EXPECT_FALSE(decoder.next().has_value());
  decoder.feed(frame.data(), frame.size());
  const std::optional<std::string> out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0U);
}

TEST(Framing, ReassemblesByteByByte) {
  const std::string frame = encode_frame("hello") + encode_frame("world");
  FrameDecoder decoder;
  std::vector<std::string> seen;
  for (const char byte : frame) {
    decoder.feed(&byte, 1);
    while (const std::optional<std::string> payload = decoder.next()) {
      seen.push_back(*payload);
    }
  }
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], "hello");
  EXPECT_EQ(seen[1], "world");
}

TEST(Framing, EmptyPayloadIsLegal) {
  const std::string frame = encode_frame("");
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  const std::optional<std::string> out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Framing, RejectsOversizedPrefixBeforePayloadArrives) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  const std::string frame = encode_frame(std::string(17, 'x'));
  // Only the 4-byte prefix: the decoder must refuse without seeing payload.
  EXPECT_THROW(decoder.feed(frame.data(), 4), ProtocolError);
}

TEST(Framing, RevalidatesPrefixExposedByPop) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  const std::string good = encode_frame("ok");
  const std::string bad = encode_frame(std::string(17, 'x'));
  const std::string stream = good + bad;
  // Feeding the good frame plus the bad prefix in one call: the pending
  // prefix (the good frame's) is fine, but popping the good frame exposes
  // the oversized one.
  decoder.feed(stream.data(), good.size() + 4);
  EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(ParseRequest, HealthzAndMetricsz) {
  const ServeRequest h = parse_request_text(R"({"type":"healthz","id":"a"})");
  EXPECT_EQ(h.kind, RequestKind::kHealthz);
  EXPECT_EQ(h.id, "a");
  const ServeRequest m = parse_request_text(R"({"type":"metricsz"})");
  EXPECT_EQ(m.kind, RequestKind::kMetricsz);
}

TEST(ParseRequest, HeuristicModeOnNamedDataset) {
  const ServeRequest r = parse_request_text(
      R"({"type":"allocate","mode":"heuristic:min-min",)"
      R"("scenario":{"name":"dataset2","seed":7}})");
  EXPECT_EQ(r.kind, RequestKind::kAllocate);
  EXPECT_EQ(r.mode, ModeKind::kHeuristic);
  EXPECT_EQ(r.heuristic, SeedHeuristic::kMinMinCompletionTime);
  EXPECT_EQ(r.scenario.name, "dataset2");
  EXPECT_EQ(r.scenario.seed, 7U);
  EXPECT_EQ(r.deadline_ms, 0.0);
}

TEST(ParseRequest, Nsga2ParametersAndDeadline) {
  const ServeRequest r = parse_request_text(
      R"({"type":"allocate","mode":"nsga2",)"
      R"("scenario":{"name":"custom","tasks":12,"window_s":30},)"
      R"("nsga2":{"population":8,"generations":5,)"
      R"("mutation_probability":0.5,"seeds":["min-energy","max-utility"]},)"
      R"("deadline_ms":250})");
  EXPECT_EQ(r.mode, ModeKind::kNsga2);
  EXPECT_EQ(r.scenario.tasks, 12U);
  EXPECT_EQ(r.nsga2.population, 8U);
  EXPECT_EQ(r.nsga2.generations, 5U);
  EXPECT_EQ(r.nsga2.mutation_probability, 0.5);
  ASSERT_EQ(r.nsga2.seeds.size(), 2U);
  EXPECT_EQ(r.nsga2.seeds[0], SeedHeuristic::kMinEnergy);
  EXPECT_EQ(r.deadline_ms, 250.0);
}

TEST(ParseRequest, InlineScenarioWithNullIneligibility) {
  const ServeRequest r = parse_request_text(
      R"({"type":"allocate","mode":"heuristic:min-energy",)"
      R"("scenario":{"etc":[[1.0,null],[2.0,3.0]],)"
      R"("epc":[[10.0,20.0],[30.0,40.0]],)"
      R"("machine_counts":[2,1],"tasks":6,"window_s":20}})");
  EXPECT_EQ(r.scenario.name, "inline");
  ASSERT_EQ(r.scenario.etc.size(), 2U);
  EXPECT_GT(r.scenario.etc[0][1], 1e100);  // null arrived as kIneligible
  ASSERT_EQ(r.scenario.machine_counts.size(), 2U);
  EXPECT_EQ(r.scenario.machine_counts[0], 2U);
}

TEST(ParseRequest, RejectsGarbage) {
  EXPECT_THROW(parse_request_text("not json at all"), ProtocolError);
  EXPECT_THROW(parse_request_text("[1,2,3]"), ProtocolError);
  EXPECT_THROW(parse_request_text(R"({"type":"teapot"})"), ProtocolError);
  EXPECT_THROW(parse_request_text(
                   R"({"type":"allocate","mode":"magic",
                       "scenario":{"name":"dataset1"}})"),
               ProtocolError);
  EXPECT_THROW(parse_request_text(
                   R"({"type":"allocate","mode":"heuristic:nope",
                       "scenario":{"name":"dataset1"}})"),
               ProtocolError);
  // Unknown names parse as catalog aliases; without a catalog entry they
  // die at resolution time instead (server-side, before queueing).
  {
    const ServeRequest alias = parse_request_text(
        R"({"type":"allocate","mode":"nsga2",
            "scenario":{"name":"galaxy5"}})");
    EXPECT_EQ(alias.scenario.name, "galaxy5");
    EXPECT_FALSE(alias.scenario.seed_set);
    EXPECT_THROW((void)resolve_scenario(alias.scenario, nullptr),
                 ProtocolError);
    const ScenarioCatalog empty;
    EXPECT_THROW((void)resolve_scenario(alias.scenario, &empty),
                 ProtocolError);
  }
  // Odd population.
  EXPECT_THROW(parse_request_text(
                   R"({"type":"allocate","mode":"nsga2",
                       "scenario":{"name":"dataset1"},
                       "nsga2":{"population":7}})"),
               ProtocolError);
  // ETC/EPC shape mismatch.
  EXPECT_THROW(parse_request_text(
                   R"({"type":"allocate","mode":"nsga2",
                       "scenario":{"etc":[[1.0]],"epc":[[1.0],[2.0]]}})"),
               ProtocolError);
  // Negative deadline.
  EXPECT_THROW(parse_request_text(
                   R"({"type":"allocate","mode":"nsga2",
                       "scenario":{"name":"dataset1"},"deadline_ms":-1})"),
               ProtocolError);
}

TEST(ParseRequest, AdminVerbsParseAndValidate) {
  {
    const ServeRequest r = parse_request_text(R"({"type":"adminz"})");
    EXPECT_EQ(r.kind, RequestKind::kAdminz);
    EXPECT_EQ(r.admin.action, AdminAction::kGetConfig);
  }
  {
    const ServeRequest r = parse_request_text(
        R"({"type":"adminz","action":"set-queue-depth","value":16})");
    EXPECT_EQ(r.admin.action, AdminAction::kSetQueueDepth);
    EXPECT_EQ(r.admin.value, 16U);
  }
  {
    const ServeRequest r = parse_request_text(
        R"({"type":"adminz","action":"catalog-reload","catalog":
            {"scenarios":[{"name":"quick","base":"custom","tasks":10,
                           "window_s":30,"seed":7}]}})");
    EXPECT_EQ(r.admin.action, AdminAction::kCatalogReload);
    ASSERT_EQ(r.admin.catalog.size(), 1U);
    EXPECT_EQ(r.admin.catalog[0].name, "quick");
    EXPECT_EQ(r.admin.catalog[0].base, "custom");
    EXPECT_EQ(r.admin.catalog[0].tasks, 10U);
    EXPECT_EQ(r.admin.catalog[0].seed, 7U);
  }
  // set-* verbs need an integer value >= 1.
  EXPECT_THROW(
      parse_request_text(R"({"type":"adminz","action":"set-workers"})"),
      ProtocolError);
  EXPECT_THROW(parse_request_text(
                   R"({"type":"adminz","action":"set-workers","value":0})"),
               ProtocolError);
  // catalog-reload needs a catalog object with a scenarios array.
  EXPECT_THROW(
      parse_request_text(R"({"type":"adminz","action":"catalog-reload"})"),
      ProtocolError);
  EXPECT_THROW(parse_request_text(R"({"type":"adminz","action":"flush"})"),
               ProtocolError);
}

TEST(ParseRequest, WrongTypedMembersAreRefused) {
  // A present member of the wrong JSON type is refused, never read as
  // absent (which used to mean its default), and a number read as a value
  // must be finite.
  const auto reject = [](const std::string& text, const char* message) {
    try {
      (void)parse_request_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(std::string(e.what()), message) << text;
    }
  };
  const std::string inline_system =
      R"("etc":[[1.0,2.0]],"epc":[[5.0,5.0]])";
  const std::string nsga2 = R"({"type":"allocate","mode":"nsga2",)";
  reject(nsga2 + R"("scenario":{"name":7,)" + inline_system + "}}",
         "scenario.name must be a string");
  reject(nsga2 + R"("scenario":{"name":"custom","window_s":"30"}})",
         "scenario.window_s must be a positive finite number");
  reject(nsga2 + R"("scenario":{)" + inline_system + R"(,"window_s":"30"}})",
         "scenario.window_s must be a positive finite number");
  reject(R"({"type":"adminz","action":"catalog-reload","catalog":)"
         R"({"scenarios":[{"name":"q","base":"custom","window_s":"30"}]}})",
         "catalog entry window_s must be a positive finite number");
  reject(nsga2 + R"("scenario":{"name":"dataset1"},)"
                 R"("nsga2":{"mutation_probability":"0.5"}})",
         "nsga2.mutation_probability must be in [0, 1]");
  reject(R"({"type":5,"mode":"nsga2","scenario":{"name":"dataset1"}})",
         "unknown request type '5' (want "
         "allocate|delta|healthz|metricsz|adminz)");
  reject(R"({"type":"adminz","action":true})",
         "unknown admin action 'true' (want get-config|set-queue-depth|"
         "set-cache-entries|set-workers|catalog-reload|enable-backend|"
         "disable-backend|fleet-reload|archive-stats|archive-flush|"
         "archive-cap)");
  reject(R"({"type":"healthz","id":5})", "id must be a string");
  reject(R"({"type":"adminz","action":"archive-flush","name":7})",
         "name must be a string");
  reject(nsga2 + R"("scenario":{"name":"dataset1"},"deadline_ms":1e400})",
         "deadline_ms must be a non-negative number");
  reject(R"({"type":"allocate","mode":"pareto-query",)"
         R"("scenario":{"name":"dataset1"},"query":{"min_utility":-1e400}})",
         "query.min_utility must be a number");
}

TEST(ResolveScenario, AliasesResolveToConcreteSpecs) {
  const ScenarioCatalog catalog({
      {"quick", "custom", 99, 10, 30.0},
      {"paper", "dataset2", 20130520, 60, 120.0},
  });

  // Built-ins pass through untouched, catalog or not.
  ScenarioSpec builtin;
  builtin.name = "dataset1";
  builtin.seed = 5;
  EXPECT_EQ(resolve_scenario(builtin, &catalog).name, "dataset1");
  EXPECT_EQ(resolve_scenario(builtin, nullptr).seed, 5U);

  // An alias becomes its recipe's base + parameters.
  ScenarioSpec alias;
  alias.name = "quick";
  const ScenarioSpec resolved = resolve_scenario(alias, &catalog);
  EXPECT_EQ(resolved.name, "custom");
  EXPECT_EQ(resolved.seed, 99U);
  EXPECT_EQ(resolved.tasks, 10U);
  EXPECT_EQ(resolved.window_s, 30.0);

  // An explicit request seed overrides the recipe seed.
  alias.seed = 1234;
  alias.seed_set = true;
  EXPECT_EQ(resolve_scenario(alias, &catalog).seed, 1234U);

  // The resolved spec fingerprints identically to a direct request for
  // the same concrete scenario — aliases share cache entries.
  ScenarioSpec paper_alias;
  paper_alias.name = "paper";
  ServeRequest via_alias;
  via_alias.mode = ModeKind::kNsga2;
  via_alias.scenario = resolve_scenario(paper_alias, &catalog);
  ServeRequest direct;
  direct.mode = ModeKind::kNsga2;
  direct.scenario.name = "dataset2";
  direct.scenario.seed = 20130520;
  EXPECT_EQ(request_fingerprint(via_alias), request_fingerprint(direct));
}

TEST(Fingerprint, IdenticalRequestsShareAKey) {
  const char* text =
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"dataset1"},
          "nsga2":{"population":16,"generations":8}})";
  EXPECT_EQ(request_fingerprint(parse_request_text(text)),
            request_fingerprint(parse_request_text(text)));
}

TEST(Fingerprint, DeadlineAndQueryDoNotChangeTheKey) {
  const ServeRequest base = parse_request_text(
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"dataset1"}})");
  const ServeRequest with_deadline = parse_request_text(
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"dataset1"},
          "deadline_ms":50})");
  // pareto-query deliberately shares the nsga2 fingerprint: it resolves
  // against the front the equivalent nsga2 request computes.
  const ServeRequest query = parse_request_text(
      R"({"type":"allocate","mode":"pareto-query",
          "scenario":{"name":"dataset1"},"query":{"max_energy":100}})");
  EXPECT_EQ(request_fingerprint(base), request_fingerprint(with_deadline));
  EXPECT_EQ(request_fingerprint(base), request_fingerprint(query));
}

TEST(Fingerprint, ParameterChangesChangeTheKey) {
  const auto fp = [](const char* text) {
    return request_fingerprint(parse_request_text(text));
  };
  const std::string base = fp(
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"dataset1"}})");
  EXPECT_NE(base, fp(R"({"type":"allocate","mode":"nsga2",
                          "scenario":{"name":"dataset2"}})"));
  EXPECT_NE(base, fp(R"({"type":"allocate","mode":"nsga2",
                          "scenario":{"name":"dataset1","seed":9}})"));
  EXPECT_NE(base, fp(R"({"type":"allocate","mode":"nsga2",
                          "scenario":{"name":"dataset1"},
                          "nsga2":{"generations":64}})"));
  EXPECT_NE(base, fp(R"({"type":"allocate","mode":"heuristic:min-energy",
                          "scenario":{"name":"dataset1"}})"));
}

TEST(Fingerprint, InlineMatricesAreHashedIn) {
  const auto fp = [](const char* etc) {
    return request_fingerprint(parse_request_text(
        std::string(R"({"type":"allocate","mode":"nsga2","scenario":{)") +
        R"("etc":)" + etc + R"(,"epc":[[5.0,5.0]],"tasks":4}})"));
  };
  EXPECT_NE(fp("[[1.0,2.0]]"), fp("[[1.0,3.0]]"));
  EXPECT_EQ(fp("[[1.0,2.0]]"), fp("[[1.0,2.0]]"));
}

TEST(ParseRequest, DeltaDocumentParses) {
  const ServeRequest r = parse_request_text(
      R"({"type":"delta","id":"d1","tenant":"acme.prod-1",
          "base":{"name":"custom","tasks":40,"window_s":120,"seed":9},
          "mutations":[{"op":"add-tasks","count":6},
                       {"op":"remove-tasks","count":2},
                       {"op":"set-window","window_s":90.5},
                       {"op":"drop-machine","machine":3}],
          "polish_generations":4,"cold_fallback":false,
          "nsga2":{"population":16,"generations":32},"deadline_ms":500})");
  EXPECT_EQ(r.kind, RequestKind::kDelta);
  EXPECT_EQ(r.id, "d1");
  EXPECT_EQ(r.tenant, "acme.prod-1");
  EXPECT_EQ(r.mode, ModeKind::kNsga2);  // routed/budgeted as nsga2
  EXPECT_EQ(r.delta.base.name, "custom");
  EXPECT_EQ(r.delta.base.tasks, 40U);
  EXPECT_EQ(r.delta.base.seed, 9U);
  ASSERT_EQ(r.delta.mutations.size(), 4U);
  EXPECT_EQ(r.delta.mutations[0].op, ScenarioMutation::Op::kAddTasks);
  EXPECT_EQ(r.delta.mutations[0].count, 6U);
  EXPECT_EQ(r.delta.mutations[1].op, ScenarioMutation::Op::kRemoveTasks);
  EXPECT_EQ(r.delta.mutations[1].count, 2U);
  EXPECT_EQ(r.delta.mutations[2].op, ScenarioMutation::Op::kSetWindow);
  EXPECT_EQ(r.delta.mutations[2].window_s, 90.5);
  EXPECT_EQ(r.delta.mutations[3].op, ScenarioMutation::Op::kDropMachine);
  EXPECT_EQ(r.delta.mutations[3].machine, 3U);
  EXPECT_EQ(r.delta.polish_generations, 4U);
  EXPECT_FALSE(r.delta.cold_fallback);
  EXPECT_EQ(r.nsga2.generations, 32U);
  EXPECT_EQ(r.deadline_ms, 500.0);

  // Defaults: cold fallback on, auto polish budget.
  const ServeRequest d = parse_request_text(
      R"({"type":"delta","tenant":"t",
          "base":{"name":"custom","tasks":10},
          "mutations":[{"op":"add-tasks","count":1}]})");
  EXPECT_TRUE(d.delta.cold_fallback);
  EXPECT_EQ(d.delta.polish_generations, 0U);
}

TEST(ParseRequest, DeltaRejectsMalformedDocuments) {
  const auto reject = [](const char* text) {
    EXPECT_THROW((void)parse_request_text(text), ProtocolError) << text;
  };
  // No tenant (and tenants must match the id alphabet).
  reject(R"({"type":"delta","base":{"name":"custom"},
             "mutations":[{"op":"add-tasks","count":1}]})");
  reject(R"({"type":"delta","tenant":"has space",
             "base":{"name":"custom"},
             "mutations":[{"op":"add-tasks","count":1}]})");
  // Missing / empty mutations.
  reject(R"({"type":"delta","tenant":"t","base":{"name":"custom"}})");
  reject(R"({"type":"delta","tenant":"t","base":{"name":"custom"},
             "mutations":[]})");
  // Unknown op, zero count, bad window.
  reject(R"({"type":"delta","tenant":"t","base":{"name":"custom"},
             "mutations":[{"op":"recolor","count":1}]})");
  reject(R"({"type":"delta","tenant":"t","base":{"name":"custom"},
             "mutations":[{"op":"add-tasks","count":0}]})");
  reject(R"({"type":"delta","tenant":"t","base":{"name":"custom"},
             "mutations":[{"op":"set-window","window_s":-5}]})");
  // Inline bases are not archivable.
  reject(R"({"type":"delta","tenant":"t",
             "base":{"etc":[[1.0]],"epc":[[2.0]],"tasks":4},
             "mutations":[{"op":"add-tasks","count":1}]})");
  // An allocate tenant is optional but still validated.
  reject(R"({"type":"allocate","mode":"nsga2","tenant":"bad/slash",
             "scenario":{"name":"dataset1"}})");
}

TEST(ParseRequest, RejectsIntegersAboveTwoToThe53) {
  // Counts and indices are integral doubles on the wire; past 2^53 they
  // are refused with the field's own message, never cast (from 2^64 on
  // the cast to std::size_t is undefined).
  const auto reject = [](const char* text, const std::string& message) {
    try {
      (void)parse_request_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  reject(R"({"type":"allocate","mode":"nsga2",
             "scenario":{"name":"dataset1"},"nsga2":{"population":1e20}})",
         "population must be a non-negative integer");
  reject(R"({"type":"allocate","mode":"nsga2",
             "scenario":{"name":"dataset1"},
             "nsga2":{"population":9007199254740994}})",
         "population must be a non-negative integer");
  reject(R"({"type":"adminz","action":"set-queue-depth","value":1e20})",
         R"(admin.set-queue-depth needs an integer "value" >= 1)");
  reject(R"({"type":"adminz","action":"archive-cap","name":"t",
             "value":1e20})",
         R"(admin.archive-cap needs an integer "value" >= 1)");
  reject(R"({"type":"delta","tenant":"t","base":{"name":"custom"},
             "mutations":[{"op":"drop-machine","machine":1e20}]})",
         R"(mutation drop-machine needs a non-negative integer "machine")");
  // 2^53 itself is still exact, so still accepted.
  const ServeRequest r = parse_request_text(
      R"({"type":"adminz","action":"set-workers","value":9007199254740992})");
  EXPECT_EQ(r.admin.value, std::size_t{1} << 53U);
}

TEST(ParseRequest, SeedsAboveTwoToThe53AreKeptBelowTwoToThe64) {
  // Seeds are not counts: clients send seeds above 2^53 and get the
  // nearest double.  From 2^64 on (infinity included) the cast to
  // std::uint64_t is undefined, so both seed fields refuse them.
  const auto allocate = [](const std::string& seed) {
    return std::string(R"({"type":"allocate","mode":"nsga2",)") +
           R"("scenario":{"name":"dataset1","seed":)" + seed + "}}";
  };
  const auto catalog = [](const std::string& seed) {
    return std::string(R"({"type":"adminz","action":"catalog-reload",)") +
           R"("catalog":{"scenarios":[{"name":"q","base":"custom",)" +
           R"("seed":)" + seed + "}]}}";
  };
  const auto reject = [](const std::string& text, const char* message) {
    try {
      (void)parse_request_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  for (const char* seed : {"1e20", "1e400", "18446744073709551616"}) {
    reject(allocate(seed), "scenario.seed must be a non-negative integer");
    reject(catalog(seed), "catalog entry seed must be a non-negative integer");
  }
  constexpr std::uint64_t kTwoToThe63 = std::uint64_t{1} << 63U;
  EXPECT_EQ(parse_request_text(allocate("9223372036854775808")).scenario.seed,
            kTwoToThe63);
  const ServeRequest reload =
      parse_request_text(catalog("9223372036854775808"));
  ASSERT_EQ(reload.admin.catalog.size(), 1U);
  EXPECT_EQ(reload.admin.catalog[0].seed, kTwoToThe63);
}

TEST(ApplyMutations, MutatesCustomSpecsAndRefusesDatasetShapes) {
  ScenarioSpec base;
  base.name = "custom";
  base.tasks = 40;
  base.window_s = 120.0;

  ScenarioMutation add;
  add.op = ScenarioMutation::Op::kAddTasks;
  add.count = 6;
  ScenarioMutation remove;
  remove.op = ScenarioMutation::Op::kRemoveTasks;
  remove.count = 2;
  ScenarioMutation window;
  window.op = ScenarioMutation::Op::kSetWindow;
  window.window_s = 90.0;
  ScenarioMutation drop;
  drop.op = ScenarioMutation::Op::kDropMachine;
  drop.machine = 2;

  const ScenarioSpec out =
      apply_mutations(base, {add, remove, window, drop});
  EXPECT_EQ(out.tasks, 44U);
  EXPECT_EQ(out.window_s, 90.0);
  ASSERT_EQ(out.dropped_machines.size(), 1U);
  EXPECT_EQ(out.dropped_machines[0], 2U);

  // Mutating every task away refuses.
  ScenarioMutation remove_all = remove;
  remove_all.count = 40;
  EXPECT_THROW((void)apply_mutations(base, {remove_all}), ProtocolError);
  // A duplicate drop refuses.
  EXPECT_THROW((void)apply_mutations(base, {drop, drop}), ProtocolError);

  // Trace-shape mutations are custom-only; drop-machine works anywhere.
  ScenarioSpec dataset;
  dataset.name = "dataset1";
  EXPECT_THROW((void)apply_mutations(dataset, {add}), ProtocolError);
  EXPECT_THROW((void)apply_mutations(dataset, {window}), ProtocolError);
  EXPECT_EQ(apply_mutations(dataset, {drop}).dropped_machines.size(), 1U);
}

TEST(Fingerprint, ScenarioLineageConvergesOnEqualSpecs) {
  // The scenario fingerprint identifies the *scenario*, however it was
  // reached: a delta lineage that lands on the same concrete spec shares
  // the archive key with a direct request for it.
  ScenarioSpec base;
  base.name = "custom";
  base.tasks = 40;
  base.window_s = 120.0;
  ScenarioMutation window;
  window.op = ScenarioMutation::Op::kSetWindow;
  window.window_s = 90.0;

  ScenarioSpec direct = base;
  direct.window_s = 90.0;
  EXPECT_EQ(scenario_fingerprint(apply_mutations(base, {window})),
            scenario_fingerprint(direct));
  EXPECT_NE(scenario_fingerprint(base), scenario_fingerprint(direct));

  // Dropped machines are part of the scenario identity.
  ScenarioMutation drop;
  drop.op = ScenarioMutation::Op::kDropMachine;
  drop.machine = 1;
  const std::string dropped =
      scenario_fingerprint(apply_mutations(base, {drop}));
  EXPECT_NE(dropped, scenario_fingerprint(base));
  EXPECT_NE(dropped.find("drop=1"), std::string::npos);
}

TEST(Fingerprint, TenantAndDeltaKeySeparately) {
  const ServeRequest plain = parse_request_text(
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"dataset1"}})");
  const ServeRequest tenanted = parse_request_text(
      R"({"type":"allocate","mode":"nsga2","tenant":"acme",
          "scenario":{"name":"dataset1"}})");
  // Warm-started fronts may strictly dominate the tenant-less result, so
  // they must never share a cache entry.
  EXPECT_NE(request_fingerprint(plain), request_fingerprint(tenanted));

  const ServeRequest delta = parse_request_text(
      R"({"type":"delta","tenant":"acme","base":{"name":"dataset1"},
          "mutations":[{"op":"drop-machine","machine":1}]})");
  const std::string delta_fp = request_fingerprint(delta);
  EXPECT_EQ(delta_fp.rfind("delta;", 0), 0U);
  EXPECT_NE(delta_fp, request_fingerprint(plain));
  EXPECT_NE(delta_fp, request_fingerprint(tenanted));
}

TEST(RenderDeltaRequest, RoundTripsThroughParse) {
  const char* text =
      R"({"type":"delta","id":"x7","tenant":"acme",
          "base":{"name":"custom","tasks":30,"window_s":60,"seed":4},
          "mutations":[{"op":"add-tasks","count":3},
                       {"op":"set-window","window_s":45},
                       {"op":"drop-machine","machine":2}],
          "polish_generations":2,"cold_fallback":false,
          "nsga2":{"population":8,"generations":16},"deadline_ms":250})";
  const ServeRequest original = parse_request_text(text);
  const ServeRequest back =
      parse_request_text(with_resolved_scenario(text, original));
  EXPECT_EQ(back.kind, RequestKind::kDelta);
  EXPECT_EQ(back.id, original.id);
  EXPECT_EQ(back.tenant, original.tenant);
  EXPECT_EQ(back.delta.base.name, original.delta.base.name);
  EXPECT_EQ(back.delta.base.tasks, original.delta.base.tasks);
  ASSERT_EQ(back.delta.mutations.size(), original.delta.mutations.size());
  for (std::size_t i = 0; i < back.delta.mutations.size(); ++i) {
    EXPECT_EQ(back.delta.mutations[i].op, original.delta.mutations[i].op);
  }
  EXPECT_EQ(back.delta.polish_generations,
            original.delta.polish_generations);
  EXPECT_EQ(back.delta.cold_fallback, original.delta.cold_fallback);
  EXPECT_EQ(back.deadline_ms, original.deadline_ms);
  EXPECT_EQ(request_fingerprint(back), request_fingerprint(original));
}

TEST(Slugs, RoundTripEveryHeuristic) {
  for (const SeedHeuristic h : all_seed_heuristics()) {
    const std::optional<SeedHeuristic> back =
        heuristic_from_slug(heuristic_slug(h));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, h);
  }
  EXPECT_FALSE(heuristic_from_slug("made-up").has_value());
}

/// The parsed members the fingerprints leave out, as one canonical string.
std::string members_of(const ServeRequest& r) {
  std::ostringstream out;
  out.precision(17);
  out << "kind=" << to_string(r.kind) << ";id=" << r.id
      << ";deadline_ms=" << r.deadline_ms;
  switch (r.kind) {
    case RequestKind::kAllocate:
      out << ";seed_set=" << r.scenario.seed_set << ";max_energy=";
      if (r.query.max_energy) out << *r.query.max_energy;
      out << ";min_utility=";
      if (r.query.min_utility) out << *r.query.min_utility;
      break;
    case RequestKind::kDelta:
      out << ";seed_set=" << r.delta.base.seed_set
          << ";polish_generations=" << r.delta.polish_generations
          << ";cold_fallback=" << r.delta.cold_fallback;
      break;
    case RequestKind::kAdminz:
      out << ";action=" << to_string(r.admin.action)
          << ";value=" << r.admin.value << ";name=" << r.admin.name
          << ";fleet=" << r.admin.fleet.is_object() << ";catalog=";
      for (const ScenarioRecipe& recipe : r.admin.catalog) {
        out << recipe.name << ':' << recipe.base << ':' << recipe.seed << ':'
            << recipe.tasks << ':' << recipe.window_s << ',';
      }
      break;
    case RequestKind::kHealthz:
    case RequestKind::kMetricsz:
      break;
  }
  return out.str();
}

/// One corpus line for `text`: the request's fingerprints and the members
/// they leave out, or the refusal message.  Aliases resolve against
/// `catalog`, and a delta's scenario fingerprint is its mutated scenario's.
std::string corpus_line(const std::string& text, const SharedCatalog& catalog) {
  std::string request_fp;
  std::string scenario_fp;
  std::string members;
  JsonObject line;
  line.field("request", text);
  try {
    ServeRequest r = parse_request_text(text);
    members = members_of(r);
    if (r.kind == RequestKind::kAllocate || r.kind == RequestKind::kDelta) {
      (void)resolve_request_scenario(r, &catalog);
    }
    request_fp = request_fingerprint(r);
    scenario_fp = scenario_fingerprint(
        r.kind == RequestKind::kDelta
            ? apply_mutations(r.delta.base, r.delta.mutations)
            : r.scenario);
  } catch (const ProtocolError& e) {
    line.field("error", e.what());
    return line.str();
  }
  line.field("request_fingerprint", request_fp);
  line.field("scenario_fingerprint", scenario_fp);
  line.field("members", members);
  return line.str();
}

// Each corpus line is one request document and the answer the parser gave
// it when the line was added.  To add a document, append a line holding
// only its "request"; the failure prints the full line to keep.
TEST(ProtocolCorpus, EveryDocumentKeepsItsFingerprintsOrItsError) {
  SharedCatalog catalog;
  catalog.swap(std::make_shared<const ScenarioCatalog>(
      std::vector<ScenarioRecipe>{{"quick", "custom", 99, 10, 30.0},
                                  {"paper", "dataset2", 20130520, 60, 120.0}}));
  std::ifstream in(EUS_REQUEST_CORPUS);
  ASSERT_TRUE(in) << "cannot open " << EUS_REQUEST_CORPUS;
  std::size_t documents = 0;
  for (std::string line; std::getline(in, line);) {
    const std::string text = util::parse_json(line).get("request")->string;
    EXPECT_EQ(corpus_line(text, catalog), line);
    ++documents;
  }
  EXPECT_GE(documents, 150U);
}

TEST(ProtocolCorpus, ResolvedScenarioKeepsEveryOtherMember) {
  // The router forwards an aliased request as the client's document with
  // only its scenario replaced.  Every accepted allocate or delta of the
  // corpus, resolved and forwarded so, parses back to the same request.
  SharedCatalog catalog;
  catalog.swap(std::make_shared<const ScenarioCatalog>(
      std::vector<ScenarioRecipe>{{"quick", "custom", 99, 10, 30.0},
                                  {"paper", "dataset2", 20130520, 60, 120.0}}));
  std::ifstream in(EUS_REQUEST_CORPUS);
  ASSERT_TRUE(in) << "cannot open " << EUS_REQUEST_CORPUS;
  std::size_t forwarded = 0;
  for (std::string line; std::getline(in, line);) {
    const util::JsonValue entry = util::parse_json(line);
    if (entry.get("error") != nullptr) continue;
    const std::string text = entry.get("request")->string;
    ServeRequest request = parse_request_text(text);
    if (request.kind != RequestKind::kAllocate &&
        request.kind != RequestKind::kDelta) {
      continue;
    }
    if (request.scenario.name == "inline") continue;
    (void)resolve_request_scenario(request, &catalog);
    const ServeRequest back =
        parse_request_text(with_resolved_scenario(text, request));
    EXPECT_EQ(request_fingerprint(back), request_fingerprint(request)) << text;
    EXPECT_EQ(members_of(back), members_of(request)) << text;
    ++forwarded;
  }
  EXPECT_GE(forwarded, 40U);
}

/// The reference reading of a status: the whole document parsed, its
/// "code" or 200, and 500 when it does not parse.
int parsed_status(const std::string& payload) {
  try {
    return static_cast<int>(
        util::parse_json(payload).number_or("code", kCodeOk));
  } catch (const util::JsonParseError&) {
    return kCodeInternal;
  }
}

TEST(ResponseStatus, ReadsTheEnvelopeCode) {
  // Answers as the daemon renders them.
  const HandlerContext ctx;
  const auto answer = [&](const std::string& request,
                          std::optional<double> remaining_ms) {
    return handle_allocate(parse_request_text(request), ctx, remaining_ms,
                           0.0)
        .payload;
  };
  const std::string nsga2 =
      R"({"type":"allocate","id":"n1","mode":"nsga2","scenario":)"
      R"({"name":"custom","tasks":10,"window_s":30,"seed":3},)"
      R"("nsga2":{"population":8,"generations":4,"seeds":["min-energy"]}})";
  const std::string heuristic =
      R"({"type":"allocate","mode":"heuristic:min-energy","scenario":)"
      R"({"name":"custom","tasks":10,"window_s":30,"seed":3}})";
  const std::vector<std::pair<std::string, int>> rendered = {
      {error_payload("e1", kCodeBadRequest, "error", "bad"), 400},
      {error_payload("e2", kCodeUnsatisfiable, "error", "none"), 404},
      {error_payload("", kCodeInternal, "error", "boom"), 500},
      {error_payload("e4", kCodeOverloaded, "overloaded", "busy"), 503},
      {answer(nsga2, std::nullopt), 200},
      {answer(heuristic, std::nullopt), 200},
      {answer(nsga2, 0.0), 206},
      {admin_applied(parse_request_text(
                         R"({"type":"adminz","action":"set-queue-depth",)"
                         R"("value":8})"),
                     "queue_depth", 8),
       200},
  };
  ASSERT_NE(rendered[5].first.find("\"allocation\":{\"machine\":["),
            std::string::npos);
  ASSERT_NE(rendered[6].first.find("\"status\":\"partial\""),
            std::string::npos);

  std::vector<std::pair<std::string, int>> cases = rendered;
  const std::vector<std::pair<std::string, int>> written = {
      // Escapes in a string: quotes, backslashes (one right before the
      // closing quote) and a \u escape.
      {R"({"type":"response","id":"x\"code\":503,\\\"\u00e9\\","code":404})",
       404},
      {R"({"id":"\",\"code\":503,\"","status":"error","code":400})", 400},
      // "code" inside member objects and arrays is not the envelope's.
      {R"({"detail":{"code":503,"list":[{"code":400}]},"code":200})", 200},
      {R"({"type":"response","detail":{"code":503}})", 200},
      // Whitespace between every pair of tokens.
      {" \t{\n\"type\" : \"response\" ,\r\n\"front\" : [ { \"energy\" : 1.5 "
       ", \"utility\" : 2 } ] , \"ok\" : true , \"code\" :\t404 \n} \r\n",
       404},
      // Not a number, absent, or not an object: the default.
      {R"({"type":"response","code":"404"})", 200},
      {R"({"type":"response","code":null})", 200},
      {R"({"type":"response","status":"ok"})", 200},
      {"{}", 200},
      {R"([{"code":404},503])", 200},
      // Numbers read as strtod reads them; the last "code" wins.
      {R"({"code":2e2})", 200},
      {R"({"code":200.0})", 200},
      {R"({"code":404.5})", 404},
      {R"({"code":503,"code":200})", 200},
      // Not one complete value.
      {"", 500},
      {R"({"code":200,})", 500},
      {R"({"code":})", 500},
      {R"({"code":2x})", 500},
      {R"({"code":-})", 500},
  };
  cases.insert(cases.end(), written.begin(), written.end());
  for (const auto& [payload, code] : cases) {
    EXPECT_EQ(parsed_status(payload), code) << payload;
    EXPECT_EQ(response_status(payload), code) << payload;
  }

  // Every strict prefix of a rendered answer, and an answer followed by
  // more than whitespace, is not one complete value.
  for (const auto& [payload, code] : rendered) {
    for (std::size_t n = 0; n < payload.size(); ++n) {
      const std::string prefix = payload.substr(0, n);
      EXPECT_EQ(parsed_status(prefix), kCodeInternal) << prefix;
      EXPECT_EQ(response_status(prefix), kCodeInternal) << prefix;
    }
    for (const char* tail : {"x", "}", " ,", "{}", "\n\"code\":200"}) {
      EXPECT_EQ(parsed_status(payload + tail), kCodeInternal) << tail;
      EXPECT_EQ(response_status(payload + tail), kCodeInternal) << tail;
    }
  }

  // Numbers outside int range: parse_json reads 1e400 as infinity, and
  // the cast the router applied to it, as to 3e9, is undefined.
  EXPECT_EQ(response_status(R"({"code":1e400})"), kCodeInternal);
  EXPECT_EQ(response_status(R"({"code":-1e400})"), kCodeInternal);
  EXPECT_EQ(response_status(R"({"code":3e9})"), kCodeInternal);
}

}  // namespace
}  // namespace eus::serve

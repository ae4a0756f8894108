#include "sched/allocation_io.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

namespace eus {
namespace {

Allocation sample() {
  Allocation a;
  a.machine = {2, 0, 5};
  a.order = {1, 0, 2};
  return a;
}

TEST(AllocationIo, HeaderWithoutPstate) {
  const std::string csv = allocation_to_csv(sample());
  EXPECT_EQ(csv.find("task,machine,order\n"), 0U);
  EXPECT_EQ(csv.find("pstate"), std::string::npos);
}

TEST(AllocationIo, HeaderWithPstate) {
  Allocation a = sample();
  a.pstate = {0, 1, 2};
  const std::string csv = allocation_to_csv(a);
  EXPECT_EQ(csv.find("task,machine,order,pstate\n"), 0U);
}

TEST(AllocationIo, RoundTripPlain) {
  const Allocation original = sample();
  EXPECT_EQ(allocation_from_csv(allocation_to_csv(original)), original);
}

TEST(AllocationIo, RoundTripWithPstate) {
  Allocation original = sample();
  original.pstate = {2, 2, 0};
  EXPECT_EQ(allocation_from_csv(allocation_to_csv(original)), original);
}

TEST(AllocationIo, RoundTripEmpty) {
  const Allocation empty;
  EXPECT_EQ(allocation_from_csv(allocation_to_csv(empty)), empty);
}

TEST(AllocationIo, NegativeOrdersSurvive) {
  Allocation a = sample();
  a.order = {-5, 0, 1000000};
  EXPECT_EQ(allocation_from_csv(allocation_to_csv(a)), a);
}

TEST(AllocationIo, RejectsEmptyInput) {
  EXPECT_THROW((void)allocation_from_csv(""), std::runtime_error);
}

TEST(AllocationIo, RejectsBadHeader) {
  EXPECT_THROW((void)allocation_from_csv("a,b,c\n0,1,2\n"),
               std::runtime_error);
}

TEST(AllocationIo, RejectsRaggedRow) {
  EXPECT_THROW((void)allocation_from_csv("task,machine,order\n0,1\n"),
               std::runtime_error);
}

TEST(AllocationIo, RejectsNonInteger) {
  EXPECT_THROW((void)allocation_from_csv("task,machine,order\n0,one,2\n"),
               std::runtime_error);
}

TEST(AllocationIo, RejectsOutOfOrderTaskIds) {
  EXPECT_THROW(
      (void)allocation_from_csv("task,machine,order\n1,0,0\n0,0,1\n"),
      std::runtime_error);
}

Allocation genome(std::vector<int> machine, std::vector<int> order,
                  std::vector<int> pstate = {}) {
  Allocation a;
  a.machine = std::move(machine);
  a.order = std::move(order);
  a.pstate = std::move(pstate);
  return a;
}

TEST(GenomeFingerprint, SeparatesGeneVectors) {
  // The fingerprint must distinguish which vector a gene lives in and
  // where vector boundaries fall, not just the concatenated values.
  const auto fp = [](const Allocation& a) { return genome_fingerprint(a); };
  EXPECT_EQ(fp(genome({0, 1}, {2, 3})), fp(genome({0, 1}, {2, 3})));
  EXPECT_NE(fp(genome({0, 1}, {2, 3})), fp(genome({1, 0}, {2, 3})));
  EXPECT_NE(fp(genome({0, 1}, {2, 3})), fp(genome({0, 1}, {3, 2})));
  EXPECT_NE(fp(genome({0, 1}, {2, 3})), fp(genome({0, 1}, {2, 3}, {0, 0})));
  EXPECT_NE(fp(genome({0, 1, 2}, {0, 1, 2})), fp(genome({0, 1}, {2, 0, 1, 2})));
  EXPECT_NE(fp(genome({-1}, {0})), fp(genome({1}, {0})));
}

}  // namespace
}  // namespace eus

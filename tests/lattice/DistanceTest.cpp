//===- tests/lattice/DistanceTest.cpp - Chain lattice laws ---------------===//

#include "lattice/Distance.h"

#include <gtest/gtest.h>

#include <vector>

using namespace ardf;

namespace {

std::vector<DistanceValue> sampleChain() {
  return {DistanceValue::noInstance(), DistanceValue::finite(0),
          DistanceValue::finite(1), DistanceValue::finite(2),
          DistanceValue::finite(7), DistanceValue::allInstances()};
}

} // namespace

TEST(DistanceTest, ChainOrder) {
  std::vector<DistanceValue> Chain = sampleChain();
  for (size_t I = 0; I < Chain.size(); ++I)
    for (size_t J = 0; J < Chain.size(); ++J) {
      EXPECT_EQ(Chain[I] < Chain[J], I < J);
      EXPECT_EQ(Chain[I] == Chain[J], I == J);
      EXPECT_EQ(Chain[I] <= Chain[J], I <= J);
    }
}

TEST(DistanceTest, MeetIsMinJoinIsMax) {
  DistanceValue Bot = DistanceValue::noInstance();
  DistanceValue Top = DistanceValue::allInstances();
  DistanceValue Two = DistanceValue::finite(2);
  // min(x, bottom) = bottom, min(x, top) = x -- the paper's meet laws.
  EXPECT_EQ(DistanceValue::min(Two, Bot), Bot);
  EXPECT_EQ(DistanceValue::min(Two, Top), Two);
  EXPECT_EQ(DistanceValue::max(Two, Bot), Two);
  EXPECT_EQ(DistanceValue::max(Two, Top), Top);
  EXPECT_EQ(DistanceValue::min(DistanceValue::finite(3), Two), Two);
}

TEST(DistanceTest, LatticeLawsProperty) {
  std::vector<DistanceValue> Chain = sampleChain();
  for (const DistanceValue &A : Chain) {
    // Idempotence.
    EXPECT_EQ(DistanceValue::min(A, A), A);
    EXPECT_EQ(DistanceValue::max(A, A), A);
    for (const DistanceValue &B : Chain) {
      // Commutativity.
      EXPECT_EQ(DistanceValue::min(A, B), DistanceValue::min(B, A));
      EXPECT_EQ(DistanceValue::max(A, B), DistanceValue::max(B, A));
      // Absorption.
      EXPECT_EQ(DistanceValue::min(A, DistanceValue::max(A, B)), A);
      EXPECT_EQ(DistanceValue::max(A, DistanceValue::min(A, B)), A);
      for (const DistanceValue &C : Chain) {
        // Associativity.
        EXPECT_EQ(
            DistanceValue::min(A, DistanceValue::min(B, C)),
            DistanceValue::min(DistanceValue::min(A, B), C));
      }
    }
  }
}

TEST(DistanceTest, IncrementBehavior) {
  EXPECT_TRUE(DistanceValue::noInstance().increment().isNoInstance());
  EXPECT_TRUE(DistanceValue::allInstances().increment().isAllInstances());
  EXPECT_EQ(DistanceValue::finite(3).increment(), DistanceValue::finite(4));
}

TEST(DistanceTest, IncrementSaturatesAtTripCount) {
  // With UB = 5, distance 4 == UB - 1 already denotes all instances.
  EXPECT_EQ(DistanceValue::finite(2).increment(5), DistanceValue::finite(3));
  EXPECT_TRUE(DistanceValue::finite(3).increment(5).isAllInstances());
  EXPECT_TRUE(DistanceValue::finite(100).increment(5).isAllInstances());
  // Unknown trip count never saturates.
  EXPECT_EQ(DistanceValue::finite(100).increment(UnknownTripCount),
            DistanceValue::finite(101));
}

TEST(DistanceTest, IncrementIsMonotoneProperty) {
  std::vector<DistanceValue> Chain = sampleChain();
  for (const DistanceValue &A : Chain)
    for (const DistanceValue &B : Chain)
      if (A <= B) {
        EXPECT_LE(A.increment(10), B.increment(10));
      }
}

TEST(DistanceTest, Covers) {
  EXPECT_TRUE(DistanceValue::allInstances().covers(1000));
  EXPECT_FALSE(DistanceValue::noInstance().covers(0));
  EXPECT_TRUE(DistanceValue::finite(2).covers(2));
  EXPECT_TRUE(DistanceValue::finite(2).covers(0));
  EXPECT_FALSE(DistanceValue::finite(2).covers(3));
}

TEST(DistanceTest, FiniteOrNone) {
  EXPECT_TRUE(DistanceValue::finiteOrNone(-1).isNoInstance());
  EXPECT_EQ(DistanceValue::finiteOrNone(0), DistanceValue::finite(0));
}

TEST(DistanceTest, ToString) {
  EXPECT_EQ(DistanceValue::noInstance().toString(), "_");
  EXPECT_EQ(DistanceValue::allInstances().toString(), "T");
  EXPECT_EQ(DistanceValue::finite(12).toString(), "12");
}

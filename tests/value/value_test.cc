#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <unordered_set>
#include <vector>

#include "value/symbol_table.h"
#include "value/value.h"

namespace dbps {
namespace {

// --- SymbolTable ------------------------------------------------------

TEST(SymbolTable, NilIsSlotZero) {
  EXPECT_EQ(Sym("nil"), kNilSymbol);
  EXPECT_EQ(SymName(kNilSymbol), "nil");
}

TEST(SymbolTable, InternIsIdempotent) {
  SymbolId a = Sym("idempotent-check");
  SymbolId b = Sym("idempotent-check");
  EXPECT_EQ(a, b);
  EXPECT_EQ(SymName(a), "idempotent-check");
}

TEST(SymbolTable, DistinctNamesGetDistinctIds) {
  EXPECT_NE(Sym("alpha-sym"), Sym("beta-sym"));
}

TEST(SymbolTable, ConcurrentInternIsSafe) {
  std::vector<std::thread> threads;
  std::vector<SymbolId> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([i, &results] {
      results[static_cast<size_t>(i)] = Sym("concurrent-symbol");
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < 8; ++i) EXPECT_EQ(results[0], results[static_cast<size_t>(i)]);
}

// --- Value basics ---------------------------------------------------------

TEST(Value, DefaultIsNil) {
  Value v;
  EXPECT_TRUE(v.is_nil());
  EXPECT_EQ(v, Value::Nil());
  EXPECT_EQ(v.ToString(), "nil");
}

TEST(Value, NilSymbolIsNilValue) {
  // OPS5: the symbol `nil` and the unset value are the same thing.
  EXPECT_EQ(Value::Symbol("nil"), Value::Nil());
  EXPECT_TRUE(Value::Symbol(kNilSymbol).is_nil());
  EXPECT_EQ(Value::Nil().AsSymbol(), kNilSymbol);
}

TEST(Value, IntAccessors) {
  Value v = Value::Int(-42);
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_number());
  EXPECT_EQ(v.AsInt(), -42);
  EXPECT_EQ(v.AsNumber(), -42.0);
  EXPECT_EQ(v.ToString(), "-42");
}

TEST(Value, FloatAccessors) {
  Value v = Value::Float(2.5);
  EXPECT_TRUE(v.is_float());
  EXPECT_EQ(v.AsFloat(), 2.5);
  EXPECT_EQ(v.ToString(), "2.5");
}

TEST(Value, SymbolAccessors) {
  Value v = Value::Symbol("red");
  EXPECT_TRUE(v.is_symbol());
  EXPECT_EQ(SymName(v.AsSymbol()), "red");
  EXPECT_EQ(v.ToString(), "red");
}

TEST(Value, StringAccessors) {
  Value v = Value::String("hello world");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hello world");
  EXPECT_EQ(v.ToString(), "\"hello world\"");
}

// --- Equality ---------------------------------------------------------------

TEST(Value, CrossTypeNumericEquality) {
  EXPECT_EQ(Value::Int(3), Value::Float(3.0));
  EXPECT_EQ(Value::Float(3.0), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Float(3.5));
}

TEST(Value, SymbolsCompareByIdentity) {
  EXPECT_EQ(Value::Symbol("x-eq"), Value::Symbol("x-eq"));
  EXPECT_NE(Value::Symbol("x-eq"), Value::Symbol("y-eq"));
}

TEST(Value, StringsCompareByContent) {
  EXPECT_EQ(Value::String("ab"), Value::String("ab"));
  EXPECT_NE(Value::String("ab"), Value::String("ba"));
}

TEST(Value, DifferentKindsAreUnequal) {
  EXPECT_NE(Value::Symbol("3"), Value::Int(3));
  EXPECT_NE(Value::String("3"), Value::Int(3));
  EXPECT_NE(Value::Nil(), Value::Int(0));
  EXPECT_NE(Value::Nil(), Value::String(""));
}

// --- Ordering -----------------------------------------------------------

TEST(Value, NumericOrderingCrossesTypes) {
  EXPECT_TRUE(Value::Int(2) < Value::Float(2.5));
  EXPECT_TRUE(Value::Float(1.5) < Value::Int(2));
  EXPECT_TRUE(Value::Int(3) >= Value::Int(3));
  EXPECT_TRUE(Value::Int(3) <= Value::Float(3.0));
}

TEST(Value, StringOrderingIsLexicographic) {
  EXPECT_TRUE(Value::String("abc") < Value::String("abd"));
  EXPECT_FALSE(Value::String("b") < Value::String("a"));
}

TEST(Value, ComparabilityRules) {
  EXPECT_TRUE(Value::Int(1).Comparable(Value::Float(2.0)));
  EXPECT_TRUE(Value::String("a").Comparable(Value::String("b")));
  EXPECT_FALSE(Value::Symbol("a-ord").Comparable(Value::Symbol("b-ord")));
  EXPECT_FALSE(Value::Int(1).Comparable(Value::Symbol("one")));
  EXPECT_FALSE(Value::Nil().Comparable(Value::Nil()));
}

// --- Hashing -----------------------------------------------------------

TEST(Value, EqualValuesHashEqual) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Float(3.0).Hash());
  EXPECT_EQ(Value::Symbol("h-x").Hash(), Value::Symbol("h-x").Hash());
  EXPECT_EQ(Value::String("s").Hash(), Value::String("s").Hash());
}

TEST(Value, EqualNumbersHashEqualBeyondDoublePrecision) {
  // 2^53 + 1 rounds to 2^53 as a double, so the int equals the float.
  const int64_t two53 = int64_t{1} << 53;
  const Value big_int = Value::Int(two53 + 1);
  const Value big_float = Value::Float(static_cast<double>(two53));
  ASSERT_TRUE(big_int == big_float);
  EXPECT_EQ(big_int.Hash(), big_float.Hash());
  EXPECT_EQ(Value::Float(-0.0).Hash(), Value::Float(0.0).Hash());
  EXPECT_EQ(Value::Float(-0.0).Hash(), Value::Int(0).Hash());
}

TEST(Value, EqualityImpliesBucketEqualityImpliesSameHash) {
  const int64_t two53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {
      Value::Int(0), Value::Float(0.0), Value::Float(-0.0), Value::Int(3),
      Value::Float(3.0), Value::Float(3.5), Value::Int(-7),
      Value::Float(-7.0), Value::Int(two53), Value::Int(two53 + 1),
      Value::Int(two53 + 2), Value::Float(static_cast<double>(two53)),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Float(9.3e18), Value::Float(1e300),
      Value::Float(std::numeric_limits<double>::infinity()),
      Value::Float(nan), Value::Float(-nan), Value::Nil(),
      Value::Symbol("three"), Value::String("3")};
  const ValueBucketEq bucket_eq;
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a == b) {
        EXPECT_TRUE(bucket_eq(a, b)) << a << " vs " << b;
      }
      if (bucket_eq(a, b)) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a << " vs " << b;
      }
    }
  }
  // Coarser than ==: the two ints differ, but share a double value.
  EXPECT_FALSE(Value::Int(two53 + 1) == Value::Int(two53));
  EXPECT_TRUE(bucket_eq(Value::Int(two53 + 1), Value::Int(two53)));
  EXPECT_TRUE(bucket_eq(Value::Float(nan), Value::Float(-nan)));
  EXPECT_FALSE(bucket_eq(Value::Int(3), Value::String("3")));
}

TEST(Value, HashSpreads) {
  std::unordered_set<size_t> hashes;
  for (int i = 0; i < 1000; ++i) hashes.insert(Value::Int(i).Hash());
  EXPECT_GT(hashes.size(), 990u);
}

TEST(Value, UsableAsHashKey) {
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value::Int(1));
  set.insert(Value::Float(1.0));  // equal to Int(1) — must dedupe
  set.insert(Value::Symbol("k"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(Value::Int(1)) > 0);
}

}  // namespace
}  // namespace dbps

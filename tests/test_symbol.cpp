// util::Symbol interning, SymbolMap, and the SmallFn small-buffer callable —
// the substrate of the hot-path overhaul.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/small_fn.hpp"
#include "util/symbol.hpp"

namespace arcadia::util {
namespace {

TEST(SymbolTest, InternIsIdempotent) {
  Symbol a = Symbol::intern("averageLatency");
  Symbol b = Symbol::intern("averageLatency");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.str(), "averageLatency");
}

TEST(SymbolTest, DistinctStringsDistinctIds) {
  Symbol a = Symbol::intern("load");
  Symbol b = Symbol::intern("utilization");
  EXPECT_NE(a, b);
  EXPECT_NE(a.id(), b.id());
}

TEST(SymbolTest, EmptySymbol) {
  Symbol none;
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none);
  EXPECT_EQ(none.str(), "");
  EXPECT_EQ(Symbol::intern(""), none);
}

TEST(SymbolTest, OrdersByTextNotId) {
  // Intern in reverse-alphabetical order: ids ascend, text order must win.
  Symbol z = Symbol::intern("zzz_sym_order");
  Symbol a = Symbol::intern("aaa_sym_order");
  EXPECT_LT(a, z);
  EXPECT_GT(z.id(), 0u);
}

TEST(SymbolTest, ConcurrentInternAgrees) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Symbol> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] {
      for (int i = 0; i < 200; ++i) {
        results[t] = Symbol::intern("concurrent_" + std::to_string(i % 10));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
}

TEST(SymbolMapTest, InsertFindErase) {
  SymbolMap<int> map;
  EXPECT_TRUE(map.empty());
  map.insert_or_assign(Symbol::intern("x"), 1);
  map.insert_or_assign(Symbol::intern("y"), 2);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(Symbol::intern("x")), nullptr);
  EXPECT_EQ(*map.find(Symbol::intern("x")), 1);
  EXPECT_EQ(map.find(Symbol::intern("missing")), nullptr);
  map.insert_or_assign(Symbol::intern("x"), 7);
  EXPECT_EQ(*map.find(Symbol::intern("x")), 7);
  EXPECT_TRUE(map.erase(Symbol::intern("x")));
  EXPECT_FALSE(map.erase(Symbol::intern("x")));
  EXPECT_EQ(map.find(Symbol::intern("x")), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(SymbolMapTest, IterationIsNameSorted) {
  // Deterministic iteration in text order is what keeps the model's
  // behaviour identical to the std::map era.
  SymbolMap<int> map;
  map.insert_or_assign(Symbol::intern("gamma"), 3);
  map.insert_or_assign(Symbol::intern("alpha"), 1);
  map.insert_or_assign(Symbol::intern("beta"), 2);
  std::vector<std::string> keys;
  for (const auto& e : map) keys.push_back(e.key.str());
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(SymbolMapTest, SurvivesGrowth) {
  // Numeric suffixes insert out of text order ("grow_10" lands before
  // "grow_2"), so most inserts shift later entries and patch the index in
  // place; every key inserted so far must stay findable after each one.
  SymbolMap<int> map;
  for (int i = 0; i < 500; ++i) {
    map.insert_or_assign(Symbol::intern("grow_" + std::to_string(i)), i);
    for (int j = 0; j <= i; ++j) {
      const int* v = map.find(Symbol::intern("grow_" + std::to_string(j)));
      ASSERT_NE(v, nullptr) << "after inserting " << i;
      ASSERT_EQ(*v, j);
    }
  }
  EXPECT_EQ(map.size(), 500u);
  std::string prev;
  for (const auto& e : map) {
    EXPECT_LT(prev, e.key.str());
    prev = e.key.str();
  }
}

TEST(SymbolMapTest, HoldsMoveOnlyValues) {
  SymbolMap<std::unique_ptr<int>> map;
  map.insert_or_assign(Symbol::intern("p"), std::make_unique<int>(5));
  ASSERT_NE(map.find(Symbol::intern("p")), nullptr);
  EXPECT_EQ(**map.find(Symbol::intern("p")), 5);
}

TEST(SmallFnTest, InvokesInlineCallable) {
  int hits = 0;
  SmallFn<void()> fn = [&hits] { ++hits; };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, HeapFallbackForLargeCaptures) {
  struct Big {
    char payload[96] = {};
  } big;
  int hits = 0;
  SmallFn<void()> fn = [big, &hits] {
    (void)big;
    ++hits;
  };
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFnTest, MovePreservesCallableAndReleasesSource) {
  auto counter = std::make_shared<int>(0);
  SmallFn<void()> a = [counter] { ++*counter; };
  SmallFn<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from check on purpose
  b();
  EXPECT_EQ(*counter, 1);
  // The capture must live in exactly one place.
  b = SmallFn<void()>();
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(SmallFnTest, ReturnsValuesAndTakesArguments) {
  SmallFn<int(int, int)> add = [](int x, int y) { return x + y; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(SmallFnTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  {
    SmallFn<void()> fn = [token] {};
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace arcadia::util

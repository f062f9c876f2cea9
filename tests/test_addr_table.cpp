#include "common/addr_table.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"

namespace ntcsim {
namespace {

TEST(AddrTable, InsertFindErase) {
  AddrTable<int> t;
  EXPECT_EQ(t.find(64), nullptr);
  t[64] = 3;
  ++t[128];
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(64), nullptr);
  EXPECT_EQ(*t.find(64), 3);
  EXPECT_EQ(*t.find(128), 1);
  t.erase(64);
  t.erase(4096);  // absent: no-op
  EXPECT_EQ(t.find(64), nullptr);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], 0) << "address 0 is an ordinary key";
  EXPECT_EQ(t.size(), 2u);
}

TEST(AddrTable, MatchesAnOrderedMapUnderChurn) {
  // Dense keys collide into long probe runs and force several doublings;
  // erasing from the middle of those runs exercises the backward shift.
  AddrTable<std::uint64_t> t;
  std::map<Addr, std::uint64_t> ref;
  Rng rng(7);
  for (int step = 0; step < 200000; ++step) {
    const Addr key = rng.below(3000) * 8;
    if (rng.chance(2, 5)) {
      t.erase(key);
      ref.erase(key);
    } else {
      const std::uint64_t v = rng.next();
      t[key] = v;
      ref[key] = v;
    }
    if (step % 997 == 0) {
      ASSERT_EQ(t.size(), ref.size()) << "step " << step;
      for (const auto& [k, v] : ref) {
        const std::uint64_t* got = t.find(k);
        ASSERT_NE(got, nullptr) << "key " << k << " lost at step " << step;
        ASSERT_EQ(*got, v);
      }
    }
  }
  std::map<Addr, std::uint64_t> seen;
  t.for_each([&](Addr k, std::uint64_t v) { seen[k] = v; });
  EXPECT_EQ(seen, ref);
}

}  // namespace
}  // namespace ntcsim

// Lock correctness under both policies × several protocols: mutual
// exclusion, fairness-ish progress, lock caching, payload plumbing.
#include <gtest/gtest.h>

#include <atomic>

#include "core/dsm.hpp"

#include "../gtest_util.hpp"

namespace dsm {
namespace {

struct LockCase {
  LockPolicy policy;
  ProtocolKind protocol;
};

class LockTest : public ::testing::TestWithParam<LockCase> {
 protected:
  void SetUp() override { TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE(); }
  Config make_config(std::size_t nodes) const {
    Config cfg;
    cfg.n_nodes = nodes;
    cfg.n_pages = 32;
    cfg.page_size = ViewRegion::os_page_size();
    cfg.protocol = GetParam().protocol;
    cfg.lock_policy = GetParam().policy;
    return cfg;
  }
};

TEST_P(LockTest, MutualExclusionOnSharedCounter) {
  System sys(make_config(4));
  const auto counter = sys.alloc_page_aligned<std::uint64_t>();
  constexpr int kIncrements = 50;
  std::uint64_t final_value = 0;
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) w.bind(1, counter);
    w.barrier(0);
    for (int i = 0; i < kIncrements; ++i) {
      w.acquire(1);
      *w.get(counter) += 1;
      w.release(1);
    }
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(1);
      final_value = *w.get(counter);
      w.release(1);
    }
  });
  EXPECT_EQ(final_value, 4u * kIncrements);
}

TEST_P(LockTest, CriticalSectionsNeverOverlap) {
  System sys(make_config(4));
  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};
  sys.run([&](Worker& w) {
    for (int i = 0; i < 20; ++i) {
      w.acquire(0);
      if (inside.fetch_add(1) != 0) overlaps++;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      inside.fetch_sub(1);
      w.release(0);
    }
  });
  EXPECT_EQ(overlaps.load(), 0);
}

TEST_P(LockTest, DistinctLocksAreIndependent) {
  System sys(make_config(3));
  std::atomic<int> acquired{0};
  sys.run([&](Worker& w) {
    // Each node uses a different lock: no contention, must all succeed.
    const LockId mine = w.id();
    w.acquire(mine);
    acquired++;
    w.release(mine);
  });
  EXPECT_EQ(acquired.load(), 3);
}

TEST_P(LockTest, ReacquireByLastHolder) {
  System sys(make_config(2));
  std::atomic<int> count{0};
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      for (int i = 0; i < 10; ++i) {
        w.acquire(3);
        count++;
        w.release(3);
      }
    }
  });
  EXPECT_EQ(count.load(), 10);
  if (GetParam().policy == LockPolicy::kForwardChain) {
    // After the first round trip the token is cached locally.
    EXPECT_GE(sys.stats().counter("sync.local_acquires"), 8u);
  }
}

TEST_P(LockTest, HomeNodeFastPath) {
  System sys(make_config(2));
  std::atomic<int> count{0};
  sys.run([&](Worker& w) {
    // Lock 0 is homed at node 0; its own acquires should still work.
    if (w.id() == 0) {
      w.acquire(0);
      count++;
      w.release(0);
    }
  });
  EXPECT_EQ(count.load(), 1);
}

TEST_P(LockTest, ContendedHandoffCompletes) {
  System sys(make_config(6));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) w.bind(2, cell);
    w.barrier(0);
    for (int i = 0; i < 10; ++i) {
      w.acquire(2);
      *w.get(cell) += 1;
      w.release(2);
    }
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(2);
      EXPECT_EQ(*w.get(cell), 60u);
      w.release(2);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndProtocols, LockTest,
    ::testing::Values(
        LockCase{LockPolicy::kForwardChain, ProtocolKind::kIvyDynamic},
        LockCase{LockPolicy::kCentralized, ProtocolKind::kIvyDynamic},
        LockCase{LockPolicy::kForwardChain, ProtocolKind::kLrc},
        LockCase{LockPolicy::kCentralized, ProtocolKind::kLrc},
        LockCase{LockPolicy::kForwardChain, ProtocolKind::kErcUpdate},
        LockCase{LockPolicy::kForwardChain, ProtocolKind::kEc},
        LockCase{LockPolicy::kCentralized, ProtocolKind::kEc}),
    [](const ::testing::TestParamInfo<LockCase>& pi) {
      return std::string(pi.param.policy == LockPolicy::kCentralized ? "central"
                                                                        : "chain") +
             "_" + [&] {
               std::string s = to_string(pi.param.protocol);
               for (auto& c : s) {
                 if (c == '-') c = '_';
               }
               return s;
             }();
    });

TEST(LockDeathTest, RecursiveAcquireAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config cfg;
  cfg.n_nodes = 1;
  cfg.n_pages = 8;
  cfg.page_size = ViewRegion::os_page_size();
  System sys(cfg);
  EXPECT_DEATH(sys.run([](Worker& w) {
                 w.acquire(0);
                 w.acquire(0);
               }),
               "recursive acquire");
}

TEST(LockDeathTest, ReleaseWithoutAcquireAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config cfg;
  cfg.n_nodes = 1;
  cfg.n_pages = 8;
  cfg.page_size = ViewRegion::os_page_size();
  System sys(cfg);
  EXPECT_DEATH(sys.run([](Worker& w) { w.release(0); }), "not held");
}

}  // namespace
}  // namespace dsm

// Reader-writer locks: concurrent readers, exclusive writers, writer
// preference, and consistency payloads riding the grants — across the
// protocols whose grant plumbing differs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/dsm.hpp"

#include "../gtest_util.hpp"

namespace dsm {
namespace {

Config rw_config(ProtocolKind protocol, std::size_t nodes) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 16;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = protocol;
  return cfg;
}

class RwLockTest : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  void SetUp() override { TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE(); }
};

TEST_P(RwLockTest, ReadersOverlapWritersExclude) {
  System sys(rw_config(GetParam(), 6));
  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<int> violations{0};

  sys.run([&](Worker& w) {
    for (int i = 0; i < 10; ++i) {
      if (w.id() % 3 == 0) {
        // Writer.
        w.acquire_write(1);
        if (writers_inside.fetch_add(1) != 0) violations++;
        if (readers_inside.load() != 0) violations++;
        std::this_thread::sleep_for(std::chrono::microseconds(30));
        writers_inside.fetch_sub(1);
        w.release_write(1);
      } else {
        // Reader.
        w.acquire_read(1);
        const int now = readers_inside.fetch_add(1) + 1;
        int prev = max_readers.load();
        while (prev < now && !max_readers.compare_exchange_weak(prev, now)) {
        }
        if (writers_inside.load() != 0) violations++;
        std::this_thread::sleep_for(std::chrono::microseconds(30));
        readers_inside.fetch_sub(1);
        w.release_read(1);
      }
    }
  });
  EXPECT_EQ(violations.load(), 0);
  // With 4 readers hammering, overlap should actually happen.
  EXPECT_GE(max_readers.load(), 2);
}

TEST_P(RwLockTest, ReadersSeeTheLastWritersData) {
  System sys(rw_config(GetParam(), 4));
  const auto cell = sys.alloc_page_aligned<std::uint64_t>();
  std::atomic<int> stale{0};
  std::atomic<std::uint64_t> published{0};

  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) w.bind(1, cell);
    w.barrier(0);
    if (w.id() == 0) {
      for (std::uint64_t round = 1; round <= 8; ++round) {
        w.acquire_write(1);
        *w.get(cell) = round;
        published = round;
        w.release_write(1);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } else {
      for (int i = 0; i < 8; ++i) {
        w.acquire_read(1);
        // Must see at least the last value published BEFORE our acquire.
        const std::uint64_t floor = published.load();
        if (test::force_read(w.get(cell)) < floor) stale++;
        w.release_read(1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  EXPECT_EQ(stale.load(), 0);
}

TEST_P(RwLockTest, WriterNotStarvedByReaderStream) {
  System sys(rw_config(GetParam(), 5));
  std::atomic<bool> writer_done{false};
  std::atomic<int> reads_after_writer_queued{0};
  std::atomic<bool> writer_queued{false};

  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      writer_queued = true;
      w.acquire_write(2);
      writer_done = true;
      w.release_write(2);
    } else {
      for (int i = 0; i < 50 && !writer_done.load(); ++i) {
        w.acquire_read(2);
        if (writer_queued.load() && !writer_done.load()) reads_after_writer_queued++;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        w.release_read(2);
      }
    }
  });
  EXPECT_TRUE(writer_done.load());
  // Writer preference: once queued, at most the already-admitted readers
  // (≤ 4) plus a small scheduling window may still read.
  EXPECT_LE(reads_after_writer_queued.load(), 12);
}

TEST_P(RwLockTest, RwAndMutexLocksCoexistOnDifferentIds) {
  System sys(rw_config(GetParam(), 3));
  const auto a = sys.alloc_page_aligned<std::uint64_t>();
  const auto b = sys.alloc_page_aligned<std::uint64_t>();
  sys.run([&](Worker& w) {
    if (sys.config().protocol == ProtocolKind::kEc) {
      w.bind(3, a);
      w.bind(4, b);
    }
    w.barrier(0);
    for (int i = 0; i < 10; ++i) {
      w.acquire(3);  // plain mutex
      *w.get(a) += 1;
      w.release(3);
      w.acquire_write(4);  // rw writer
      *w.get(b) += 1;
      w.release_write(4);
    }
    w.barrier(0);
    if (w.id() == 0) {
      w.acquire(3);
      EXPECT_EQ(*w.get(a), 30u);
      w.release(3);
      w.acquire_read(4);
      EXPECT_EQ(test::force_read(w.get(b)), 30u);
      w.release_read(4);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Protocols, RwLockTest,
                         ::testing::Values(ProtocolKind::kIvyDynamic,
                                           ProtocolKind::kErcUpdate, ProtocolKind::kLrc,
                                           ProtocolKind::kHlrc, ProtocolKind::kEc),
                         [](const ::testing::TestParamInfo<ProtocolKind>& pi) {
                           std::string s = to_string(pi.param);
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

// A lock's home must remember what *every* releaser knew, not just the last
// one: readers overlap, so the last release can know less than an earlier
// one. R1 learns A's write of x through mutex 2 while read-holding lock 1;
// R2, which never saw that write, releases lock 1 last. The writer D that
// acquires lock 1 next is ordered after R1's release and must read 42, even
// though its own copy of x is still valid from before the barrier.
class RwNoticeTest : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  void SetUp() override { TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE(); }
};

TEST_P(RwNoticeTest, WriterAfterOverlappingReadersSeesEarlierReleasersNotices) {
  Config cfg = rw_config(GetParam(), 4);
  cfg.check_level = CheckLevel::kAssert;
  System sys(cfg);
  (void)sys.alloc_page_aligned<std::uint64_t>();            // page 0
  const auto x = sys.alloc_page_aligned<std::uint64_t>();   // page 1, home node 1
  constexpr NodeId kA = 0, kR1 = 1, kR2 = 2, kD = 3;
  std::atomic<bool> a_done{false}, r2_in{false}, r1_done{false}, r2_done{false};
  std::atomic<std::uint64_t> seen{0};
  const auto wait_for = [](const std::atomic<bool>& flag) {
    while (!flag.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  sys.run([&](Worker& w) {
    if (w.id() == kD) (void)test::force_read(w.get(x));  // D caches a valid copy
    w.barrier(0);
    switch (w.id()) {
      case kA:
        w.acquire(2);
        *w.get(x) = 42;
        w.release(2);
        a_done = true;
        break;
      case kR1:
        wait_for(a_done);
        wait_for(r2_in);
        w.acquire_read(1);
        w.acquire(2);  // learns A's write notice
        w.release(2);
        w.release_read(1);
        r1_done = true;
        break;
      case kR2:
        w.acquire_read(1);
        r2_in = true;
        wait_for(r1_done);
        w.compute(100'000'000);  // its release is also the latest in virtual time
        w.release_read(1);
        r2_done = true;
        break;
      case kD:
        wait_for(r2_done);
        w.acquire_write(1);
        seen = test::force_read(w.get(x));
        w.release_write(1);
        break;
    }
    w.barrier(0);
  });
  EXPECT_EQ(seen.load(), 42u);
}

INSTANTIATE_TEST_SUITE_P(LrcFamily, RwNoticeTest,
                         ::testing::Values(ProtocolKind::kLrc, ProtocolKind::kHlrc),
                         [](const ::testing::TestParamInfo<ProtocolKind>& pi) {
                           return std::string(to_string(pi.param));
                         });

// Under the centralized policy a mutex is the home state machine's exclusive
// mode, so a reader of the same lock id waits for the mutex holder. With
// check_level=assert any overlap aborts the run.
TEST(RwLockSharedStateTest, CentralizedMutexExcludesReadersOfTheSameId) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = rw_config(ProtocolKind::kLrc, 2);
  cfg.lock_policy = LockPolicy::kCentralized;
  cfg.check_level = CheckLevel::kAssert;
  System sys(cfg);
  std::atomic<bool> held{false};
  std::atomic<bool> released{false};
  std::atomic<bool> read_after_release{false};
  sys.run([&](Worker& w) {
    if (w.id() == 0) {
      w.acquire(0);
      held = true;
      // Hold until the home has queued the reader (bounded, so a wrong grant
      // fails the expectations below instead of hanging the test).
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (sys.stats().counter("sync.lock_queued") == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      released = true;
      w.release(0);
    } else {
      while (!held.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      w.acquire_read(0);
      read_after_release = released.load();
      w.release_read(0);
    }
  });
  EXPECT_TRUE(read_after_release.load());
  EXPECT_EQ(sys.stats().counter("sync.lock_queued"), 1u);
}

// Under forward-chain the cached mutex token is separate from the id's rw
// state: a node that caches the token and holds a read of the same id hands
// the token over at once. (The checker models one lock state per id, so this
// mix runs unchecked.)
TEST(RwLockSharedStateTest, ForwardChainTokenPassesWhileHolderReads) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = rw_config(ProtocolKind::kLrc, 2);
  cfg.lock_policy = LockPolicy::kForwardChain;
  System sys(cfg);
  std::atomic<bool> reading{false};
  std::atomic<bool> granted{false};
  std::atomic<bool> granted_during_read{false};
  sys.run([&](Worker& w) {
    if (w.id() == 1) {
      // Lock 0's home is node 0: fetch the token, then keep it cached.
      w.acquire(0);
      w.release(0);
      w.acquire_read(0);
      reading = true;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!granted.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      granted_during_read = granted.load();
      w.release_read(0);
      // The token moved on: this is a chain request, not a cached re-acquire.
      w.acquire(0);
      w.release(0);
    } else {
      while (!reading.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      w.acquire(0);
      granted = true;
      w.release(0);
    }
  });
  EXPECT_TRUE(granted_during_read.load());
  EXPECT_EQ(sys.stats().counter("sync.local_acquires"), 0u);
}

TEST(RwLockDeathTest, ReleaseReadWithoutAcquireAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config cfg = rw_config(ProtocolKind::kIvyDynamic, 1);
  System sys(cfg);
  EXPECT_DEATH(sys.run([](Worker& w) { w.release_read(0); }), "not read-held");
}

}  // namespace
}  // namespace dsm

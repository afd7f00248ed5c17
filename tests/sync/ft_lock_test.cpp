// Sync-layer crash tests: a dead holder's lock token is regenerated exactly
// once (the checker aborts on a double mint) whichever exclusive entry point
// took it, reader-writer grants survive a reader's death, and barriers settle
// against the live worker set instead of waiting forever for a node that
// will never arrive.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/dsm.hpp"

#include "../gtest_util.hpp"

namespace dsm {
namespace {

Config ft_sync_config(std::size_t nodes) {
  Config cfg;
  cfg.n_nodes = nodes;
  cfg.n_pages = 8;
  cfg.page_size = ViewRegion::os_page_size();
  cfg.protocol = ProtocolKind::kQrc;
  cfg.ft.enabled = true;
  cfg.ft.replication = nodes;
  cfg.check_level = CheckLevel::kAssert;
  return cfg;
}

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// The two exclusive entry points — the centralized mutex (FT forces the
// centralized policy) and the rw writer — are one mode of the home's lock
// state machine, so a dead holder's token is regenerated the same way.
struct ExclusiveEntry {
  const char* name;
  void (Worker::*acquire)(LockId);
  void (Worker::*release)(LockId);
};

class FtExclusiveLockTest : public ::testing::TestWithParam<ExclusiveEntry> {
 protected:
  void SetUp() override { TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE(); }
};

TEST_P(FtExclusiveLockTest, DeadHolderTokenRegeneratedExactlyOnce) {
  const ExclusiveEntry entry = GetParam();
  Config cfg = ft_sync_config(3);
  cfg.ft.faults = {{/*node=*/2, /*kill_at=*/1'000'000'000, /*restart=*/false}};
  System sys(cfg);
  std::atomic<bool> held{false};
  std::atomic<int> completed{0};
  sys.run([&](Worker& w) {
    if (w.id() == 2) {
      (w.*entry.acquire)(0);
      held = true;
      w.compute(1'000'000'000);  // dies inside the critical section
    } else {
      wait_for(held);
      (w.*entry.acquire)(0);  // blocks until the dead holder's token is regenerated
      completed++;
      (w.*entry.release)(0);
      w.barrier(0);
    }
  });
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(sys.stats().counter("ft.token_regens"), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    ExclusiveEntryPoints, FtExclusiveLockTest,
    ::testing::Values(ExclusiveEntry{"mutex", &Worker::acquire, &Worker::release},
                      ExclusiveEntry{"rw_write", &Worker::acquire_write,
                                     &Worker::release_write}),
    [](const ::testing::TestParamInfo<ExclusiveEntry>& pi) { return pi.param.name; });

TEST(FtLockTest, DeadReaderReleasesItsRwGrant) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = ft_sync_config(3);
  cfg.ft.faults = {{/*node=*/2, /*kill_at=*/1'000'000'000, /*restart=*/false}};
  System sys(cfg);
  std::atomic<bool> held{false};
  std::atomic<bool> got_write{false};
  sys.run([&](Worker& w) {
    if (w.id() == 2) {
      w.acquire_read(0);
      held = true;
      w.compute(1'000'000'000);  // dies holding a read grant
    } else if (w.id() == 1) {
      wait_for(held);
      w.acquire_write(0);  // excluded until the dead reader's grant is regenerated
      got_write = true;
      w.release_write(0);
    }
  });
  EXPECT_TRUE(got_write.load());
  EXPECT_EQ(sys.stats().counter("ft.token_regens"), 1u);
}

TEST(FtLockTest, BarrierSettlesAgainstTheLiveWorkerSet) {
  TUTORDSM_SKIP_IF_UFFD_UNAVAILABLE();
  Config cfg = ft_sync_config(3);
  cfg.ft.faults = {{/*node=*/2, /*kill_at=*/1'000'000'000, /*restart=*/false}};
  System sys(cfg);
  std::atomic<int> passed{0};
  sys.run([&](Worker& w) {
    if (w.id() == 2) w.compute(1'000'000'000);  // dies before ever arriving
    w.barrier(0);
    passed++;
    w.barrier(1);
    passed++;
  });
  // Only the survivors cross; neither barrier round waits for the dead node.
  EXPECT_EQ(passed.load(), 4);
  EXPECT_EQ(sys.stats().counter("ft.kills"), 1u);
}

}  // namespace
}  // namespace dsm

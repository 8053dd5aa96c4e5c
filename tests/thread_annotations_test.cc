// Runtime semantics of the annotated lock wrappers in
// common/thread_annotations.h: the guards must actually lock/unlock what
// the annotations claim they do, and CondVar must wake waiters with the
// mutex re-held.
//
// The *static* side — that misuse fails to compile under clang
// -Wthread-safety — is checked by scripts/check.sh --analyze via the
// HEAVEN_TSA_NEGATIVE_TEST snippet in tests/tsa_negative_check.cc.

#include "common/thread_annotations.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace heaven {
namespace {

TEST(MutexLockTest, GuardsCriticalSection) {
  Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 8000);
}

TEST(MutexTest, ExcludesOtherThreadsUntilReleased) {
  Mutex mu;
  mu.Lock();
  std::thread blocked([&] { EXPECT_FALSE(mu.TryLock()); });
  blocked.join();
  mu.Unlock();
  std::thread released([&] {
    EXPECT_TRUE(mu.TryLock());
    mu.Unlock();
  });
  released.join();
}

TEST(MutexLockTest, ReleasesOnDestruction) {
  Mutex mu;
  { MutexLock lock(mu); }
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexLockTest, RelockableAcrossUnlock) {
  Mutex mu;
  MutexLock lock(mu);
  EXPECT_TRUE(lock.held());
  lock.Unlock();
  EXPECT_FALSE(lock.held());
  // The mutex really is free while the guard is in the unlocked state.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
  lock.Lock();
  EXPECT_TRUE(lock.held());
  EXPECT_FALSE(mu.TryLock());
}

TEST(MutexLockTest, AdoptTakesOverHeldMutex) {
  Mutex mu;
  mu.Lock();
  {
    MutexLock lock(mu, kAdoptLock);
    EXPECT_TRUE(lock.held());
  }
  // The adopting guard released it on destruction.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WakesWaiterWithMutexHeld) {
  Mutex mu;
  CondVar cv(&mu);
  bool ready = false;
  int observed = -1;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(lock);
    // The mutex is held again here, so this read is race-free.
    observed = ready ? 1 : 0;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv(&mu);
  bool go = false;
  int woke = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(lock);
      ++woke;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& t : threads) t.join();
  EXPECT_EQ(woke, 4);
}

}  // namespace
}  // namespace heaven

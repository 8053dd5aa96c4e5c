// Compile-only smoke check that the thread-safety annotations actually
// have teeth. Not registered with CMake — scripts/check.sh --analyze
// compiles this file twice with clang:
//
//   1. without defines: must compile cleanly under -Werror=thread-safety
//      (the positive control — proves the includes and wrappers are clean);
//   2. with -DHEAVEN_TSA_NEGATIVE_TEST: must FAIL to compile (the negative
//      control — proves -Wthread-safety is live and promoted to an error,
//      i.e. the gate cannot silently rot into a no-op).

#include "common/thread_annotations.h"

namespace heaven {
namespace {

class Annotated {
 public:
  // The shell/body split HeavenDb's mutators use: the public method takes
  // the lock and calls the REQUIRES body.
  void Correct() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Locked();
  }

#ifdef HEAVEN_TSA_NEGATIVE_TEST
  // Each of these is a distinct analysis rule; any one diagnostic makes
  // the TU fail under -Werror=thread-safety, but we want all three shapes
  // covered so a regression in one check is still caught by the others.
  void WriteWithoutLock() {
    ++counter_;  // GUARDED_BY violated: no mu_ held
  }

  void RequiresCalledUnlocked() {
    Locked();  // REQUIRES(mu_) violated
  }

  void ReentersLockedShell() {
    MutexLock lock(mu_);
    Correct();  // EXCLUDES(mu_) violated: a self-deadlock at runtime
  }
#endif

 private:
  void Locked() REQUIRES(mu_) { ++counter_; }

  Mutex mu_;
  int counter_ GUARDED_BY(mu_) = 0;
};

// Anchor so the class is ODR-used and fully instantiated.
void Use() {
  Annotated a;
  a.Correct();
}

}  // namespace
}  // namespace heaven

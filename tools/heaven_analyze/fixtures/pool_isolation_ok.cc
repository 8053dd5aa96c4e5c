// heaven_analyze fixture: pool tasks that stay off db_mu_-guarded state
// are fine.
// rules: pool-isolation
// expect-clean

namespace heaven {

class Db {
 public:
  void Mutate() {
    pool_.Submit([this] { Compact(); });
  }

  void Compact() {
    MutexLock lock(work_mu_);
    scratch_ += 1;
  }

 private:
  ThreadPool pool_;
  Mutex db_mu_;
  Mutex work_mu_;
  long registry_ GUARDED_BY(db_mu_);
  long scratch_ GUARDED_BY(work_mu_);
};

}  // namespace heaven

#include "common/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

namespace tlm {

ThreadPool::ThreadPool(std::size_t workers) : workers_(workers) {
  TLM_REQUIRE(workers >= 1, "pool needs at least one worker");
  threads_.reserve(workers_ - 1);
  for (std::size_t i = 1; i < workers_; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_spmd(const std::function<void(std::size_t)>& fn) {
  if (workers_ == 1) {
    fn(0);
    return;
  }
  {
    MutexLock lock(mu_);
    TLM_CHECK(remaining_ == 0 && job_ == nullptr,
              "run_spmd re-entered while a dispatch is in flight");
    job_ = &fn;
    remaining_ = workers_ - 1;
    ++epoch_;
  }
  cv_start_.notify_all();
  // The workers hold &fn until their decrement, so a throwing caller share
  // must not unwind past the wait below.
  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  {
    // Explicit predicate loop (not the cv.wait(lock, pred) overload): the
    // lambda form hides the remaining_ read from the thread-safety analysis,
    // which checks lambda bodies as separate unannotated functions.
    UniqueLock lock(mu_);
    while (remaining_ != 0) cv_done_.wait(lock.native());
    job_ = nullptr;
    if (!error) error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(std::size_t id) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      UniqueLock lock(mu_);
      while (!stop_ && epoch_ == seen) cv_start_.wait(lock.native());
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    // The pointee outlives the call: run_spmd keeps `fn` alive until this
    // worker's decrement below, so the unlocked dereference is safe.
    std::exception_ptr error;
    try {
      (*job)(id);
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (error && (!error_ || id < error_worker_)) {
        error_ = std::move(error);
        error_worker_ = id;
      }
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk(std::size_t n,
                                                      std::size_t w,
                                                      std::size_t p) {
  TLM_REQUIRE(p >= 1 && w < p, "worker index out of range");
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  const std::size_t begin = w * base + std::min(w, extra);
  const std::size_t len = base + (w < extra ? 1 : 0);
  return {begin, begin + len};
}

std::size_t ThreadPool::host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  // A mask wider than cpu_set_t (over 1024 CPUs) does not fit the call.
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  TLM_REQUIRE(begin <= end, "empty-forward range required");
  const std::size_t n = end - begin;
  if (n == 0) return;
  run_spmd([&](std::size_t w) {
    auto [lo, hi] = chunk(n, w, workers_);
    if (lo < hi) fn(w, begin + lo, begin + hi);
  });
}

}  // namespace tlm

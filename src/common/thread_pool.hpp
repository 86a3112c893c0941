// A fixed-size worker pool with fork/join parallel_for: one OS thread per
// worker, the caller doubling as worker 0.
//
// Workers are host threads, not the paper's simulated cores. Machine
// (scratchpad/machine.hpp) runs its p cores on a pool of at most
// host_cpus() workers, each running a contiguous block of core ids
// (chunk()), and keys every per-core counter and trace stream by core id,
// never by worker id. Other users (the server's clients, the trace replay
// decoders, the race checker) need real concurrency and size the pool
// themselves.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_annotations.hpp"

namespace tlm {

class ThreadPool {
 public:
  // `workers == 1` runs everything inline on the calling thread, which keeps
  // single-threaded experiments deterministic and cheap.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_; }

  // Runs fn(worker_id) on every worker (including id 0 on the caller) and
  // waits for all of them. This is the SPMD primitive everything builds on.
  // A share that throws does not cut the others short: run_spmd still waits
  // for every share, then rethrows the exception of the lowest-numbered
  // share that threw, and the pool takes the next dispatch as usual.
  void run_spmd(const std::function<void(std::size_t)>& fn);

  // Splits [begin, end) into `size()` near-equal contiguous chunks and runs
  // fn(worker_id, chunk_begin, chunk_end) on each worker.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& fn);

  // The chunk of [0, n) owned by worker `w` out of `p` workers: contiguous,
  // sizes differ by at most one.
  static std::pair<std::size_t, std::size_t> chunk(std::size_t n,
                                                   std::size_t w,
                                                   std::size_t p);

  // CPUs this process may run on (its affinity mask), at least 1.
  static std::size_t host_cpus();

 private:
  void worker_loop(std::size_t id);

  std::size_t workers_;
  std::vector<std::thread> threads_;

  // Dispatch protocol: run_spmd publishes {job_, remaining_, epoch_} under
  // mu_ and wakes the workers; each worker copies the job pointer out under
  // mu_, runs it unlocked (the pointee is the caller's function object, kept
  // alive until every worker has decremented remaining_), records what its
  // share threw in error_ with the same decrement, and the last decrement
  // wakes the caller. All fields are mu_-protected; the thread-safety
  // analysis enforces that no path reads them unlocked.
  Mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ TLM_GUARDED_BY(mu_) = nullptr;
  std::uint64_t epoch_ TLM_GUARDED_BY(mu_) = 0;
  std::size_t remaining_ TLM_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ TLM_GUARDED_BY(mu_);  // lowest thrower's
  std::size_t error_worker_ TLM_GUARDED_BY(mu_) = 0;
  bool stop_ TLM_GUARDED_BY(mu_) = false;
};

}  // namespace tlm

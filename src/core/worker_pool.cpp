#include "core/worker_pool.hpp"

#include <atomic>

namespace anon {

namespace {
// Set while a thread is executing pool-job indices; nested parallel_for
// calls observe it and run inline instead of recruiting workers.
thread_local bool tl_inside_pool_job = false;
}  // namespace

struct WorkerPool::Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};  // the shared work cursor
  std::size_t slots = 0;   // workers still allowed to join (under mu_)
  std::size_t active = 0;  // workers currently inside run_in (under mu_)
  std::mutex error_mu;
  std::exception_ptr error;  // first failure wins
};

WorkerPool::WorkerPool(std::size_t workers) {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_workers_locked(workers);
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? static_cast<std::size_t>(hw - 1) : std::size_t{1};
  }());
  return pool;
}

std::size_t WorkerPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

void WorkerPool::ensure_workers_locked(std::size_t wanted) {
  while (threads_.size() < wanted)
    threads_.emplace_back([this] { worker_loop(); });
}

void WorkerPool::run_in(Job& job) {
  tl_inside_pool_job = true;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    try {
      (*job.body)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      job.next.store(job.count, std::memory_order_relaxed);  // cancel the rest
      break;
    }
  }
  tl_inside_pool_job = false;
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || (job_ != nullptr && job_->slots > 0);
    });
    if (stopping_) return;
    Job& job = *job_;
    --job.slots;
    ++job.active;
    lock.unlock();
    run_in(job);
    lock.lock();
    --job.active;
    if (job.active == 0) done_cv_.notify_all();
  }
}

void WorkerPool::parallel_for_shared(
    std::size_t count, const std::function<void(std::size_t)>& body,
    std::size_t max_participants) {
  if (count == 1 || max_participants == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  shared().parallel_for(count, body, max_participants);
}

void WorkerPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t max_participants) {
  if (count == 0) return;
  if (count == 1 || max_participants == 1 || tl_inside_pool_job) {
    // Serial request, or a nested call from inside a pool job: the outer
    // job owns the pool's parallelism, so run inline.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  Job job;
  job.body = &body;
  job.count = count;

  std::unique_lock<std::mutex> lock(mu_);
  if (max_participants > 1) ensure_workers_locked(max_participants - 1);
  submit_cv_.wait(lock, [&] { return job_ == nullptr; });
  std::size_t extra = threads_.size();  // workers to recruit (caller is +1)
  if (max_participants > 0) extra = std::min(extra, max_participants - 1);
  extra = std::min(extra, count - 1);
  if (extra == 0) {
    lock.unlock();
    run_in(job);
  } else {
    job.slots = extra;
    job_ = &job;
    lock.unlock();
    work_cv_.notify_all();
    run_in(job);
    lock.lock();
    job.slots = 0;  // late wakers must not join a finished job
    job_ = nullptr;
    done_cv_.wait(lock, [&] { return job.active == 0; });
    lock.unlock();
    submit_cv_.notify_one();
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace anon

#include "sweep/pool.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace aethereal::sweep {

namespace {

/// One worker's job queue. The owner pops from the front; thieves take
/// from the back, so a stolen job is the one the owner would reach last.
struct JobDeque {
  std::mutex mutex;
  std::deque<std::size_t> jobs;

  std::optional<std::size_t> PopFront() {
    std::lock_guard<std::mutex> lock(mutex);
    if (jobs.empty()) return std::nullopt;
    const std::size_t job = jobs.front();
    jobs.pop_front();
    return job;
  }

  std::optional<std::size_t> StealBack() {
    std::lock_guard<std::mutex> lock(mutex);
    if (jobs.empty()) return std::nullopt;
    const std::size_t job = jobs.back();
    jobs.pop_back();
    return job;
  }
};

}  // namespace

void RunJobs(std::size_t n, int workers,
             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto num_workers = static_cast<std::size_t>(std::clamp<std::int64_t>(
      workers, 1, static_cast<std::int64_t>(n)));
  if (num_workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Round-robin seeding spreads neighbouring grid points (which tend to
  // have similar cost) across workers.
  std::vector<JobDeque> deques(num_workers);
  for (std::size_t i = 0; i < n; ++i) {
    deques[i % num_workers].jobs.push_back(i);
  }

  auto work = [&](std::size_t me) {
    while (true) {
      std::optional<std::size_t> job = deques[me].PopFront();
      for (std::size_t k = 1; !job && k < num_workers; ++k) {
        job = deques[(me + k) % num_workers].StealBack();
      }
      if (!job) return;  // every deque drained: all jobs claimed
      fn(*job);
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(num_workers - 1);
  for (std::size_t w = 1; w < num_workers; ++w) {
    helpers.emplace_back(work, w);
  }
  work(0);
  for (std::thread& t : helpers) t.join();
}

}  // namespace aethereal::sweep

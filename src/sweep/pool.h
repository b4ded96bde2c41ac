// Work-stealing job pool for sweep execution.
//
// A sweep is an embarrassingly parallel grid of independent scenario
// runs, but the runs are wildly uneven (a saturated point simulates far
// more traffic than an idle one), so static partitioning leaves workers
// idle. Each worker owns a deque seeded round-robin with job indices,
// pops from its own front, and steals from the back of a victim's deque
// when empty — the classic scheme, with a per-deque mutex instead of a
// lock-free deque because jobs here are milliseconds, not nanoseconds.
//
// Determinism: the pool only decides *when* a job runs, never *what* it
// computes — each job writes to its own result slot and shares nothing,
// so any worker count produces identical results (the property the
// jobs=1 vs jobs=N byte-identity test locks down).
#ifndef AETHEREAL_SWEEP_POOL_H
#define AETHEREAL_SWEEP_POOL_H

#include <cstddef>
#include <functional>

namespace aethereal::sweep {

/// Runs `fn(i)` for every i in [0, n) on a pool of `workers` std::thread
/// workers (clamped to [1, n]; workers <= 1 runs inline on the caller).
/// Blocks until all jobs finish. `fn` must not throw.
void RunJobs(std::size_t n, int workers,
             const std::function<void(std::size_t)>& fn);

}  // namespace aethereal::sweep

#endif  // AETHEREAL_SWEEP_POOL_H

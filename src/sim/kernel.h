// Multi-clock, cycle-accurate simulation kernel with one-phase stepping.
//
// The Æthereal NI explicitly supports a different clock frequency per NI
// port (the hardware FIFOs implement the clock-domain boundary), so the
// kernel models time in integer picoseconds and lets every module belong to
// its own clock domain.
//
// Semantics (see DESIGN.md §6):
//  * At every instant where one or more clocks have a rising edge, the
//    kernel calls Evaluate() on the modules of all firing clocks, then
//    advances those clocks' edge counts in clock-id order. There is no
//    commit phase: Evaluate() reads state as it stood when the edge began,
//    because everything a module stages carries a stamp — the edge after
//    which it becomes visible — and readers compare stamps against
//    cycles(). Registers (sim/fifo.h), link wires (link/wire.h) and CDC
//    queues (sim/cdc_fifo.h) all work this way; the router commits its own
//    input queues. Results are therefore independent of module iteration
//    order, exactly like synchronous RTL.
//  * Clocks firing at the same instant are evaluated together and advanced
//    together, so a module on one clock never sees another clock's edge
//    half-way.
//
// Performance machinery (see DESIGN.md §7): the steady-state hot path makes
// zero heap allocations per edge.
//  * Edge schedule: a single-clock SoC takes a branch-free fast path; a
//    multi-clock SoC keeps its clocks in a preallocated next-edge min-heap,
//    so Step() never scans all clocks and RunUntil() never rescans what
//    Step() is about to compute.
//  * Idle-module gating: a module with no pending work may Park() itself;
//    parked modules are skipped in the evaluate sweep until a wire drive,
//    queue push, credit return, register write or flush request Wake()s
//    them.
//  * Engine selection (sim/engine.h): kNaive disables gating (every module
//    runs every edge) so the gated engine can be cross-checked for
//    identical results; kGated gates with flat per-clock activity bitmaps
//    scanned 64 modules per word, so idle stretches of a large mesh cost a
//    few cache lines per edge instead of a walk over every module.
#ifndef AETHEREAL_SIM_KERNEL_H
#define AETHEREAL_SIM_KERNEL_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "util/check.h"
#include "util/types.h"

namespace aethereal::sim {

class Clock;
class Kernel;
class Module;

/// Host-side wall-time attribution per engine stage, filled while
/// Kernel::EnableProfiling() is armed (bench_speed --profile). Off by
/// default: the hot path pays one pointer check per phase; armed, it pays
/// a few steady_clock reads per edge, so profiled runs measure
/// attribution, not peak speed.
struct EngineProfile {
  std::int64_t steps = 0;      // kernel Step() calls
  double evaluate_sec = 0.0;   // module Evaluate() sweeps
  double commit_sec = 0.0;     // always 0: there is no commit phase
  double park_wake_sec = 0.0;  // timer pops (scheduled wakes)
};

/// Base class for all clocked hardware models.
///
/// Subclasses implement Evaluate(): read the state as it stood when the
/// edge began, stage next state through stamped elements (DESIGN.md §6).
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Reads the state as of the edge start and stages updates. Called once
  /// per edge.
  virtual void Evaluate() = 0;

  const std::string& name() const { return name_; }

  /// The clock this module is registered on (null until registered).
  Clock* clock() const { return clock_; }

  /// This module's slot in its clock's registration order — which is also
  /// the order of the evaluate sweep. The CDC queues derive their
  /// same-clock synchronizer delay from it. -1 until registered.
  int clock_index() const { return clock_index_; }

  /// Number of edges this module's clock has seen since simulation start.
  Cycle CycleCount() const;  // inline below (hot path)

  /// True while the module is gated out of the evaluate sweep.
  bool parked() const { return parked_; }

  /// Ensures the module runs from the next edge of its clock onward, and
  /// suppresses Park() for `hold_edges` further edges. Callable by anyone
  /// (producers wake consumers); idempotent and order-independent within an
  /// edge: a wake issued during edge t always defeats a Park() in edge t,
  /// regardless of module iteration order.
  void Wake(Cycle hold_edges = 1);  // inline below (hot path)

 protected:
  /// Requests gating out of the evaluate sweep. Granted only on the gated
  /// engine and when no Wake() hold is active. A parked module skips
  /// Evaluate() until the next Wake().
  void Park();

  /// Park() plus a scheduled wake: if parking is granted, the clock's timer
  /// heap guarantees the module is evaluated again at edge `cycle` (it may
  /// be woken earlier by any other event). For modules that know their next
  /// work time, e.g. periodic traffic sources.
  void ParkUntil(Cycle cycle);

  /// Declares that Evaluate() is an unconditional no-op, so the gated
  /// engine drops this module from the evaluate sweep entirely (NI ports:
  /// they only clock the NI's flush-request registers). The naïve path
  /// still calls it.
  void SetEvaluateIsNoop();  // inline below (needs the complete Clock type)

  /// Declares that Evaluate() does nothing except on cycles where
  /// CycleCount() % stride == 0 (slot-granular modules: routers, NI
  /// kernels). The gated engine then calls it only on those cycles. All
  /// strided modules of one clock share one stride.
  void SetEvaluateStride(int stride);  // inline below

 private:
  friend class Clock;
  friend class Kernel;

  std::string name_;
  Clock* clock_ = nullptr;
  int clock_index_ = -1;  // slot in the clock's module / pending arrays
  bool parked_ = false;
  bool evaluate_noop_ = false;
  int evaluate_stride_ = 1;
  Cycle wake_until_ = -1;  // Park() suppressed while cycles() <= this
};

/// A clock domain: a period in picoseconds and the modules driven by it.
class Clock {
 public:
  Clock(int id, std::string name, Picoseconds period_ps)
      : id_(id), name_(std::move(name)), period_ps_(period_ps) {
    AETHEREAL_CHECK(period_ps > 0);
  }

  void Register(Module* module) {
    AETHEREAL_CHECK_MSG(module->clock_ == nullptr,
                        module->name() << " already registered to a clock");
    module->clock_ = this;
    module->clock_index_ = static_cast<int>(modules_.size());
    modules_.push_back(module);
    if (((modules_.size() - 1) >> 6) >= eval_every_bits_.size()) {
      eval_every_bits_.push_back(0);
      eval_strided_bits_.push_back(0);
    }
    NoteStride(module->evaluate_stride_);
    NoteEvalStatus(module);
  }

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  Picoseconds period_ps() const { return period_ps_; }

  /// Edges seen so far.
  Cycle cycles() const { return cycles_; }

  /// Time of the next rising edge.
  Picoseconds next_edge_ps() const { return next_edge_ps_; }

  double frequency_ghz() const { return 1000.0 / static_cast<double>(period_ps_); }

 private:
  friend class Kernel;
  friend class Module;

  /// Keeps the activity bitmaps in sync with a module's parked / no-op /
  /// stride status. Called on every park-wake transition: the per-clock
  /// bitmaps ARE the schedule, so there is nothing to rebuild at the next
  /// edge.
  void NoteEvalStatus(Module* m) {
    const auto i = static_cast<std::size_t>(m->clock_index_);
    if (m->parked_ || m->evaluate_noop_) {
      SetBit(eval_every_bits_, i, false);
      SetBit(eval_strided_bits_, i, false);
      return;
    }
    const bool strided = m->evaluate_stride_ != 1;
    SetBit(eval_every_bits_, i, !strided);
    SetBit(eval_strided_bits_, i, strided);
  }

  /// Adopts a module's evaluate stride as the clock's strided-sweep period.
  void NoteStride(int stride) {
    if (stride == 1) return;
    AETHEREAL_CHECK_MSG(shared_stride_ == 0 || shared_stride_ == stride,
                        name_ << ": evaluate strides " << shared_stride_
                              << " and " << stride << " on one clock");
    shared_stride_ = stride;
  }

  static void SetBit(std::vector<std::uint64_t>& bits, std::size_t i,
                     bool on) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (on) {
      bits[i >> 6] |= mask;
    } else {
      bits[i >> 6] &= ~mask;
    }
  }

  void EvaluatePhase();  // kGated: activity-bitmap sweep
  void EvaluateAll();    // kNaive: every module
  void RunFlagged(const std::vector<std::uint64_t>& bits);
  void PopDueTimers();
  void Advance() {
    cycles_ += 1;
    next_edge_ps_ += period_ps_;
  }

  struct Timer {
    Cycle due;
    Module* module;
  };
  static bool TimerAfter(const Timer& a, const Timer& b) {
    return a.due > b.due;
  }
  void AddTimer(Cycle due, Module* module) {
    timers_.push_back(Timer{due, module});
    std::push_heap(timers_.begin(), timers_.end(), TimerAfter);
  }

  int id_;
  std::string name_;
  Picoseconds period_ps_;
  Picoseconds next_edge_ps_ = 0;  // first edge at t=0
  Cycle cycles_ = 0;
  Kernel* kernel_ = nullptr;
  std::vector<Module*> modules_;
  std::vector<Timer> timers_;  // scheduled wakes (min-heap by due)
  // Gated-engine schedule: one bit per module (bit i of word i/64 covers
  // modules_[i]). The evaluate sweep walks set bits with countr_zero, so a
  // whole mesh costs a handful of word loads per edge plus work
  // proportional to the number of *active* modules. Maintained
  // incrementally by NoteEvalStatus; bit order equals registration order,
  // so sweep order is unchanged.
  std::vector<std::uint64_t> eval_every_bits_;   // unparked, stride 1
  std::vector<std::uint64_t> eval_strided_bits_; // unparked, stride > 1
  // Phase-start snapshots the evaluate sweep iterates (EvaluatePhase):
  // mid-sweep wakes mutate the live words above, not the working set.
  std::vector<std::uint64_t> eval_scratch_;
  std::vector<std::uint64_t> eval_scratch_strided_;
  int shared_stride_ = 0;  // the strided modules' stride (0: none yet)
  EngineProfile* profile_ = nullptr;  // set while the kernel profiles
};

/// Owns the clocks and advances simulated time.
class Kernel {
 public:
  /// Creates a clock with the given period; the kernel keeps ownership.
  Clock* AddClock(std::string name, Picoseconds period_ps);

  /// Convenience: clock from a frequency in MHz (500 MHz -> 2000 ps).
  Clock* AddClockMhz(std::string name, double mhz);

  /// Processes exactly one instant (all clock edges at the earliest pending
  /// time). Returns that time.
  Picoseconds Step();

  /// Runs until simulated time strictly exceeds `until_ps`.
  void RunUntil(Picoseconds until_ps);

  /// Runs `n` edges of the given clock.
  void RunCycles(Clock* clock, Cycle n);

  /// Time of the earliest pending edge across all clocks, without scanning:
  /// O(1) for a single clock, heap-top otherwise.
  Picoseconds NextEdgeTime() const;

  Picoseconds now_ps() const { return now_ps_; }

  /// Selects the engine (sim/engine.h). Must be set before the first
  /// Step(). The edge schedule itself is always on (it is exactly
  /// equivalent scheduling, not an approximation). Both engines produce
  /// bit-identical results.
  void set_engine(EngineKind kind);
  EngineKind engine() const { return engine_; }

  /// Arms per-stage wall-time attribution (resets any prior counts).
  /// Callable at any point; existing and future clocks both report.
  void EnableProfiling();
  bool profiling() const { return profiling_; }
  const EngineProfile& profile() const { return profile_data_; }

 private:
  friend class Module;
  void RebuildHeap() const;

  /// The gated engine arms the Park() machinery; the naïve reference
  /// evaluates every module on every edge.
  bool gating() const { return engine_ == EngineKind::kGated; }

  void Evaluate(Clock* clock) {
    if (gating()) {
      clock->EvaluatePhase();
    } else {
      clock->EvaluateAll();
    }
  }

  std::vector<std::unique_ptr<Clock>> clocks_;
  // Next-edge min-heap over (next_edge_ps, clock id) and the scratch list of
  // clocks firing at the current instant; both preallocated so the hot path
  // never allocates. Mutable: lazily rebuilt from const NextEdgeTime().
  mutable std::vector<Clock*> edge_heap_;
  mutable bool heap_dirty_ = false;
  std::vector<Clock*> firing_;
  EngineKind engine_ = EngineKind::kGated;
  bool stepped_ = false;
  Picoseconds now_ps_ = 0;
  bool profiling_ = false;
  EngineProfile profile_data_;
};

// --- hot-path inline definitions (need the complete Clock type) -----------

inline Cycle Module::CycleCount() const {
  AETHEREAL_CHECK(clock_ != nullptr);
  return clock_->cycles_;
}

inline void Module::Wake(Cycle hold_edges) {
  if (clock_ == nullptr) {
    parked_ = false;
    return;
  }
  const Cycle until = clock_->cycles_ + hold_edges;
  if (until > wake_until_) wake_until_ = until;
  if (parked_) {
    parked_ = false;
    clock_->NoteEvalStatus(this);
  }
}

inline void Module::SetEvaluateIsNoop() {
  evaluate_noop_ = true;
  if (clock_ != nullptr) clock_->NoteEvalStatus(this);
}

inline void Module::SetEvaluateStride(int stride) {
  AETHEREAL_CHECK(stride >= 1 && stride <= 255);
  evaluate_stride_ = stride;
  if (clock_ != nullptr) {
    clock_->NoteStride(stride);
    clock_->NoteEvalStatus(this);
  }
}

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_KERNEL_H

// Synchronous FIFO and register models.
//
// Readers see the state as it stood when the current edge began; pushes,
// pops and register writes staged during Evaluate() become visible at a
// later edge.
//
// A Register stamps each staged value with its owner clock's edge count,
// so the value shows once that edge has ended and nothing has to apply it
// (DESIGN.md §6). A Fifo applies its staged pushes and pops in Commit(),
// which its one user, the router, calls itself at the start of its next
// slot for the queues it touched.
#ifndef AETHEREAL_SIM_FIFO_H
#define AETHEREAL_SIM_FIFO_H

#include <utility>

#include "sim/kernel.h"
#include "sim/ring.h"
#include "util/check.h"

namespace aethereal::sim {

/// Single-clock FIFO. A word pushed at edge t is visible to the reader at
/// edge t+1. Same-edge push+pop is allowed; a pop frees space for a
/// same-edge push (flow-through space accounting, as in the Æthereal
/// hardware FIFOs which support simultaneous read and write access).
template <typename T>
class Fifo {
 public:
  // The one ring holds the committed entries followed by this edge's staged
  // pushes: at most `capacity` committed plus at most `capacity` pushed.
  explicit Fifo(int capacity) : capacity_(capacity), entries_(2 * capacity) {
    AETHEREAL_CHECK(capacity > 0);
  }

  int capacity() const { return capacity_; }

  /// Committed occupancy (what a reader sees this cycle).
  int Size() const { return committed_; }

  /// Occupancy after this edge's staged pushes/pops commit.
  int SizeAfterCommit() const { return entries_.size() - staged_pops_; }

  bool Empty() const { return committed_ == 0; }
  bool Full() const { return SizeAfterCommit() >= capacity_; }

  /// True if a push staged now will fit after commit.
  bool CanPush() const { return SizeAfterCommit() < capacity_; }

  /// True if another pop can be staged this cycle (data present).
  bool CanPop() const { return staged_pops_ < committed_; }

  /// Peek the element `offset` places behind the head, accounting for pops
  /// already staged this cycle.
  const T& Peek(int offset = 0) const {
    const int index = staged_pops_ + offset;
    AETHEREAL_CHECK_MSG(index < committed_,
                        "Fifo::Peek past committed contents");
    return entries_[index];
  }

  /// Stage a push; takes effect at Commit().
  void Push(T value) {
    AETHEREAL_CHECK_MSG(CanPush(), "Fifo overflow (capacity " << capacity_ << ")");
    entries_.push_back(std::move(value));
  }

  /// Stage a pop and return the popped value.
  T Pop() {
    AETHEREAL_CHECK_MSG(CanPop(), "Fifo underflow");
    T value = entries_[staged_pops_];
    ++staged_pops_;
    return value;
  }

  /// Applies the staged pushes and pops.
  void Commit() {
    entries_.drop_front(staged_pops_);
    staged_pops_ = 0;
    committed_ = entries_.size();
  }

 private:
  int capacity_;
  Ring<T> entries_;     // committed entries, then staged pushes
  int committed_ = 0;   // entries visible to readers
  int staged_pops_ = 0;
};

/// A register owned by a module: Get() returns the value as it stood when
/// the owner clock's current edge began; Set() stages the next value.
///
/// Set() stamps the staged value with the owner clock's cycles(), and the
/// value is visible once cycles() > stamp: at the end of the edge being
/// evaluated, or, for a Set() between steps, of the owner clock's next
/// edge. Coincident clocks advance only after every module has evaluated,
/// so a reader on any clock sees the same value whatever the module order.
/// A second Set() in the same edge replaces the first.
template <typename T>
class Register {
 public:
  Register(const Module* owner, T reset)
      : owner_(owner), value_(reset), next_(reset) {}

  const T& Get() const { return Matured() ? next_ : value_; }

  /// The value of the last Set(), visible yet or not.
  const T& Latest() const { return next_; }

  void Set(T value) {
    if (Matured()) value_ = next_;
    next_ = std::move(value);
    stamp_ = owner_->CycleCount();
  }

 private:
  bool Matured() const { return stamp_ < owner_->CycleCount(); }

  const Module* owner_;
  T value_;
  T next_;
  Cycle stamp_ = -1;  // owner edge whose end makes next_ visible
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_FIFO_H

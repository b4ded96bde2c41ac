// Bi-synchronous (clock-domain-crossing) FIFO model.
//
// The Æthereal NI uses its hardware FIFOs to implement the clock-domain
// boundary so every NI port can run at its own frequency (paper §4.1, §5).
// The paper budgets 2 clock cycles for the crossing; this model implements
// that as a 2-reader-edge synchronizer on the write pointer (data becomes
// visible to the reader two of *its* edges after the writer's edge) and
// symmetrically a 2-writer-edge synchronizer on the read pointer (freed
// space becomes visible to the writer two of *its* edges after the pop).
//
// Stamped queue (DESIGN.md §5): Push() stamps each word with the last
// reader edge at which it is still invisible, Pop() stamps each freed word
// with the last such writer edge, and each side reads the stamps against
// its own clock's cycles(): a word is readable at reader edge r exactly
// when its stamp < r. Nothing is applied later, and the order in which
// modules evaluate cannot leak a word early. Staging wakes the far side's
// module (and the read listener) with a hold that lasts through the edge
// the stamp matures at, so a parked party is running again when it can
// act.
//
// The stamps are those of a reference synchronizer that hands a word over
// as the near side's edge ends and delivers it as the far side ends an
// edge with cycles() >= the stamp, where the stamp is the far clock's
// cycles() at the hand-off plus kCdcSyncEdges - 1. The reference takes the
// ends of coincident edges in a fixed order: on one clock, the modules'
// registration order; across clocks, clock-id order, in which the clocks
// advance. A far side whose edge ends first in that order sees the
// hand-off one edge later. On one clock this is resolved once into
// in_flight_delta_ / space_delta_. Across clocks, a far clock that fires in
// the same instant with a lower id has already counted that edge when the
// near side's edge ends, which FarCyclesAtEdgeEnd() adds.
#ifndef AETHEREAL_SIM_CDC_FIFO_H
#define AETHEREAL_SIM_CDC_FIFO_H

#include <utility>

#include "sim/kernel.h"
#include "sim/ring.h"
#include "util/check.h"

namespace aethereal::sim {

/// Synchronizer latency in destination-domain edges (gray-code pointer
/// crossing through a 2-flop synchronizer).
inline constexpr int kCdcSyncEdges = 2;

template <typename T>
class CdcFifo {
 public:
  explicit CdcFifo(int capacity)
      : capacity_(capacity), entries_(capacity), freed_stamps_(capacity) {
    AETHEREAL_CHECK(capacity > 0);
  }

  /// Names the modules of the two domains: `writer` owns the push side,
  /// `reader` the pop side. Both must be registered on their clocks before
  /// the first Push().
  void SetSides(Module* writer, Module* reader) {
    writer_ = writer;
    reader_ = reader;
  }

  int capacity() const { return capacity_; }

  // ---- writer-side interface (call only from the writer's clock domain) --

  /// Space as the writer currently sees it (pessimistic by up to the
  /// synchronizer delay, as in real gray-code FIFOs).
  int WriterSpace() const {
    SettleWriter();
    return capacity_ - writer_occupancy_;
  }

  bool CanPush() const { return WriterSpace() > 0; }

  void Push(T value) {
    AETHEREAL_CHECK_MSG(CanPush(), "CdcFifo overflow");
    if (wclock_ == nullptr) Resolve();
    const Cycle stamp =
        FarCyclesAtEdgeEnd(wclock_, rclock_) + in_flight_delta_;
    entries_.push_back(Entry{std::move(value), stamp});
    ++writer_occupancy_;
    // Readable from reader edge stamp + 1 on: hold both parties awake
    // through that edge.
    const Cycle hold = stamp + 1 - rclock_->cycles();
    reader_->Wake(hold);
    if (read_listener_ != nullptr) {
      AETHEREAL_CHECK_MSG(read_listener_->clock() == rclock_,
                          read_listener_->name()
                              << ": read listener off the reader's clock");
      read_listener_->Wake(hold);
    }
  }

  /// Words freed by the reader that the writer has now synchronized but not
  /// yet acknowledged via TakeFreedForWriter(). The NI kernel uses this to
  /// turn destination-queue consumption into end-to-end credits.
  int TakeFreedForWriter() {
    SettleWriter();
    const int freed = freed_for_writer_;
    freed_for_writer_ = 0;
    return freed;
  }

  // ---- reader-side interface (call only from the reader's clock domain) --

  /// Words visible to the reader this cycle, counting the ones popped this
  /// cycle (a pop leaves the reader's view at the next edge).
  int ReaderSize() const { return ReaderAvailable() + PoppedThisEdge(); }

  /// Words still poppable this cycle (visible minus pops already made).
  int ReaderAvailable() const {
    while (visible_ < entries_.size() &&
           entries_[visible_].stamp < rclock_->cycles()) {
      ++visible_;
    }
    return visible_;
  }

  bool CanPop() const { return ReaderAvailable() > 0; }

  const T& Peek(int offset = 0) const {
    AETHEREAL_CHECK(offset < ReaderAvailable());
    return entries_[offset].value;
  }

  T Pop() {
    AETHEREAL_CHECK_MSG(CanPop(), "CdcFifo underflow");
    T value = entries_.pop_front().value;
    --visible_;
    const Cycle rnow = rclock_->cycles();
    if (pop_edge_ != rnow) {
      pop_edge_ = rnow;
      popped_ = 0;
    }
    ++popped_;
    const Cycle stamp = FarCyclesAtEdgeEnd(rclock_, wclock_) + space_delta_;
    freed_stamps_.push_back(stamp);
    writer_->Wake(stamp + 1 - wclock_->cycles());
    return value;
  }

  /// Declares a module to Wake() whenever newly pushed words will become
  /// visible to the reader — lets a consumer park on an empty queue and
  /// still start reading at exactly the first cycle data is readable. The
  /// listener runs on the reader's clock.
  void SetReadListener(Module* listener) { read_listener_ = listener; }

 private:
  struct Entry {
    T value{};
    Cycle stamp = 0;  // last reader edge at which the word is invisible
  };

  /// Fixes the two clocks and the same-clock edge-end-order deltas (see the
  /// file comment). Runs at the first Push(); every other member that
  /// reads a clock only does so once a word has been pushed.
  void Resolve() {
    AETHEREAL_CHECK_MSG(writer_ != nullptr && reader_ != nullptr &&
                            writer_->clock() != nullptr &&
                            reader_->clock() != nullptr,
                        "CdcFifo pushed before both sides were registered "
                        "on clocks");
    wclock_ = writer_->clock();
    rclock_ = reader_->clock();
    const bool same = wclock_ == rclock_;
    in_flight_delta_ =
        kCdcSyncEdges - 1 +
        ((same && reader_->clock_index() < writer_->clock_index()) ? 1 : 0);
    space_delta_ =
        kCdcSyncEdges - 1 +
        ((same && writer_->clock_index() < reader_->clock_index()) ? 1 : 0);
  }

  /// `far`'s cycles() as seen when the `near` edge the caller is evaluating
  /// ends (between steps: `near`'s next edge), with the clocks of
  /// coincident edges advancing in clock-id order.
  static Cycle FarCyclesAtEdgeEnd(const Clock* near, const Clock* far) {
    Cycle cycles = far->cycles();
    if (far == near) return cycles;
    const Picoseconds at = near->next_edge_ps();
    Picoseconds far_next = far->next_edge_ps();
    if (far_next < at) {  // only between steps: far edges come first
      const Picoseconds period = far->period_ps();
      const Cycle skipped = (at - far_next + period - 1) / period;
      cycles += skipped;
      far_next += skipped * period;
    }
    if (far_next == at && far->id() < near->id()) ++cycles;
    return cycles;
  }

  /// Retires the space returns whose stamp has passed on the writer clock.
  void SettleWriter() const {
    while (!freed_stamps_.empty() &&
           freed_stamps_.front() < wclock_->cycles()) {
      freed_stamps_.pop_front();
      --writer_occupancy_;
      ++freed_for_writer_;
    }
  }

  int PoppedThisEdge() const {
    return (popped_ > 0 && pop_edge_ == rclock_->cycles()) ? popped_ : 0;
  }

  int capacity_;
  Module* writer_ = nullptr;
  Module* reader_ = nullptr;
  Module* read_listener_ = nullptr;
  const Clock* wclock_ = nullptr;  // null until Resolve()
  const Clock* rclock_ = nullptr;
  Cycle in_flight_delta_ = 0;
  Cycle space_delta_ = 0;
  // Words pushed and not yet popped, oldest first, with their stamps.
  Ring<Entry> entries_;
  int popped_ = 0;       // pops made at reader edge pop_edge_
  Cycle pop_edge_ = -1;
  // Lazily settled by the const accessors: each is a function of the
  // stamps and the current edge, so settling changes nothing a caller can
  // observe. visible_ counts the leading entries whose stamp has passed;
  // freed_stamps_ holds one stamp per popped word not yet returned to the
  // writer's view of the occupancy.
  mutable int visible_ = 0;
  mutable Ring<Cycle> freed_stamps_;
  mutable int writer_occupancy_ = 0;  // occupancy as the writer believes it
  mutable int freed_for_writer_ = 0;  // synchronized frees not yet harvested
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_CDC_FIFO_H

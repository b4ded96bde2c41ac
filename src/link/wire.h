// Slot-granular wires: the physical signals between NoC components.
//
// The Æthereal link transports one 32-bit word per cycle; a 3-word flit
// therefore occupies one TDM slot (3 word-clock cycles at 500 MHz). This
// model transfers values atomically at slot granularity: a producer drives
// at most one value per slot (during the slot-boundary cycle's Evaluate
// phase); the value is visible to the consumer for the whole next slot and
// the wire is idle again after that. Per-hop latency is thus exactly one
// slot, as in the pipelined TDM circuits of the paper.
//
// Two instantiations are used:
//  * FlitWire  — the forward data signal (idle flit when undriven);
//  * CreditWire — the backward link-level credit-return pulse used by the
//    best-effort input buffers (0 when undriven).
//
// Wires are stamped (DESIGN.md §4): each keeps two latches indexed by
// slot parity, stamped with the slot that drove them. A drive in slot s
// writes latch s & 1; a sample in slot s reads latch (s - 1) & 1 and sees
// idle unless its stamp is s - 1. Producer and consumer touch different
// latches within a slot, so evaluation order cannot leak a value early,
// and an undriven wire reverts to idle by its stale stamp alone. Drive()
// also wakes the consumer module registered with SetConsumer(), so a
// parked consumer is running again by the slot in which the value is
// visible.
#ifndef AETHEREAL_LINK_WIRE_H
#define AETHEREAL_LINK_WIRE_H

#include <array>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "link/flit.h"
#include "sim/kernel.h"
#include "sim/slab.h"
#include "util/check.h"

namespace aethereal::link {

/// Fault-injection tap consulted by FlitWire::Drive (DESIGN.md §12). The
/// tap may corrupt the flit in place; returning false swallows it (the wire
/// stays idle that slot — a drop on the physical link). Implemented by
/// fault::FaultInjector; null (the default) costs one pointer compare.
class FlitTap {
 public:
  virtual ~FlitTap() = default;
  virtual bool OnDrive(int site, Cycle now, Flit* flit) = 0;
};

template <typename T>
class SlotWire {
 public:
  /// `clock` defines the slot grid (the network clock of both ends).
  explicit SlotWire(const sim::Clock* clock) : clock_(clock) {
    AETHEREAL_CHECK(clock != nullptr);
  }

  /// Declares the module that samples this wire; every Drive() wakes it so
  /// a parked consumer never misses a slot transfer.
  void SetConsumer(sim::Module* consumer) { consumer_ = consumer; }

  /// Optional pending masks, one word per slot parity: a drive in slot s
  /// sets `bit` in `(*masks)[(s + 1) & 1]`, the word the consumer polls in
  /// slot s + 1 when the value is visible. Lets a consumer with many input
  /// wires poll one word instead of sampling every port; the consumer owns
  /// the masks and clears a word as it drains it.
  void SetConsumerBit(std::array<std::uint32_t, 2>* masks, int bit) {
    consumer_masks_ = masks;
    consumer_mask_bit_ = std::uint32_t{1} << bit;
  }

  /// Installs a fault tap (FlitWire only); `site` is the injector's stable
  /// id for this wire. Pass nullptr to remove.
  void SetFaultTap(FlitTap* tap, int site) {
    static_assert(std::is_same_v<T, Flit>,
                  "fault taps apply to flit wires only");
    tap_ = tap;
    tap_site_ = site;
  }

  /// Producer: drive the wire for the current slot (call during Evaluate of
  /// a slot-boundary cycle, at most once per slot).
  void Drive(const T& value) {
    const Cycle slot = CurrentSlot();
    Latch& latch = latches_[static_cast<std::size_t>(slot & 1)];
    AETHEREAL_CHECK_MSG(latch.slot != slot, "wire driven twice in one slot");
    // This latch was last visible in slot - 1, so overwriting it before
    // the tap decides cannot disturb a reader.
    latch.value = value;
    if constexpr (std::is_same_v<T, Flit>) {
      if (tap_ != nullptr &&
          !tap_->OnDrive(tap_site_, clock_->cycles(), &latch.value)) {
        return;  // dropped: the stale stamp keeps next slot idle
      }
    }
    latch.slot = slot;
    if (consumer_masks_ != nullptr) {
      (*consumer_masks_)[static_cast<std::size_t>((slot + 1) & 1)] |=
          consumer_mask_bit_;
    }
    if (consumer_ != nullptr) consumer_->Wake(kFlitWords);
  }

  /// Consumer: the value driven in the previous slot, or idle.
  const T& Sample() const {
    const Cycle prev = CurrentSlot() - 1;
    const Latch& latch = latches_[static_cast<std::size_t>(prev & 1)];
    return latch.slot == prev ? latch.value : kIdle;
  }

 private:
  struct Latch {
    T value{};
    Cycle slot = std::numeric_limits<Cycle>::min();  // never driven
  };
  static inline const T kIdle{};

  Cycle CurrentSlot() const { return clock_->cycles() / kFlitWords; }

  std::array<Latch, 2> latches_{};
  const sim::Clock* clock_;
  sim::Module* consumer_ = nullptr;
  std::array<std::uint32_t, 2>* consumer_masks_ = nullptr;  // SetConsumerBit
  std::uint32_t consumer_mask_bit_ = 0;
  FlitTap* tap_ = nullptr;
  int tap_site_ = -1;
};

using FlitWire = SlotWire<Flit>;
using CreditWire = SlotWire<int>;

/// The wire bundle of one directed link: forward flits, backward link-level
/// credits (used only by best-effort buffering; guaranteed-throughput flits
/// are contention-free by construction and never buffered in routers).
struct LinkWires {
  explicit LinkWires(const sim::Clock* clock)
      : data(clock), credit_return(clock) {}
  FlitWire data;
  CreditWire credit_return;
};

/// Flat storage for the wire bundles of every link of a NoC (DESIGN.md
/// §7.2): a contiguous slab on the network clock. It is not a module —
/// wires are stamped — so links cost nothing per edge. The slab has a
/// fixed capacity so LinkWires addresses stay stable: producers and
/// consumers keep raw pointers to them.
class WirePool {
 public:
  WirePool(const sim::Clock* clock, int capacity)
      : clock_(clock), links_(static_cast<std::size_t>(capacity)) {}

  /// Constructs the next link's wire bundle in the slab. The returned
  /// address is stable for the pool's lifetime.
  LinkWires* AddLink() { return links_.Emplace(clock_); }

 private:
  const sim::Clock* clock_;
  sim::Slab<LinkWires> links_;
};

}  // namespace aethereal::link

#endif  // AETHEREAL_LINK_WIRE_H

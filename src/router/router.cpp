#include "router/router.h"

#include <algorithm>
#include <array>
#include <bit>

#include "fault/injector.h"
#include "link/header.h"
#include "util/check.h"

namespace aethereal::router {

using link::Flit;
using link::FlitKind;
using link::PacketHeader;

Router::Router(std::string name, RouterId id, const RouterConfig& config)
    : sim::Module(std::move(name)), id_(id), config_(config) {
  AETHEREAL_CHECK(config.num_ports > 0 &&
                  config.num_ports <= kMaxRouterPorts);
  AETHEREAL_CHECK(config.be_buffer_flits > 0);
  SetEvaluateStride(kFlitWords);  // all work happens at slot boundaries
  inputs_.reserve(static_cast<std::size_t>(config.num_ports));
  outputs_.resize(static_cast<std::size_t>(config.num_ports));
  // The BE queues are touched only by this router's slot Evaluate, so it
  // commits them itself when the next slot starts (DESIGN.md §6) instead
  // of registering them: a busy router stages nothing for the kernel.
  for (int p = 0; p < config.num_ports; ++p) {
    inputs_.emplace_back(config.be_buffer_flits);
  }
}

void Router::ConnectInput(int port, link::LinkWires* wires) {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  AETHEREAL_CHECK(wires != nullptr);
  inputs_[static_cast<std::size_t>(port)].wires = wires;
  // Flits arriving on this link must find us running, and flag their port
  // so the slot sweep samples only ports driven last slot.
  wires->data.SetConsumer(this);
  wires->data.SetConsumerBit(&inputs_pending_, port);
}

void Router::ConnectOutput(int port, link::LinkWires* wires,
                           int downstream_be_capacity) {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  AETHEREAL_CHECK(wires != nullptr);
  AETHEREAL_CHECK(downstream_be_capacity > 0);
  auto& out = outputs_[static_cast<std::size_t>(port)];
  out.wires = wires;
  out.be_credits = downstream_be_capacity;
  // Credits returned by the downstream peer must find us running, and flag
  // their port so the slot sweep samples only ports with returns pending.
  wires->credit_return.SetConsumer(this);
  wires->credit_return.SetConsumerBit(&credits_pending_, port);
}

int Router::OutputCredits(int port) const {
  AETHEREAL_CHECK(port >= 0 && port < config_.num_ports);
  return outputs_[static_cast<std::size_t>(port)].be_credits;
}

void Router::Evaluate() {
  if (!IsSlotBoundary()) return;

  // Land last slot's BE queue pushes and pops.
  while (be_staged_ != 0) {
    const int i = std::countr_zero(be_staged_);
    be_staged_ &= be_staged_ - 1;
    auto& queue = inputs_[static_cast<std::size_t>(i)].be_queue;
    queue.Commit();
    if (queue.Empty()) {
      be_committed_ &= ~(1u << i);
    } else {
      be_committed_ |= 1u << i;
    }
  }

  // Collect returned BE credits from downstream (only the ports whose
  // credit wire was driven last slot are flagged).
  const auto parity =
      static_cast<std::size_t>((CycleCount() / kFlitWords) & 1);
  std::uint32_t& credits = credits_pending_[parity];
  const bool credits_arrived = credits != 0;
  while (credits != 0) {
    const int p = std::countr_zero(credits);
    credits &= credits - 1;
    auto& out = outputs_[static_cast<std::size_t>(p)];
    out.be_credits += out.wires->credit_return.Sample();
  }

  // Phase A: accept arriving flits. GT flits are switched through and
  // driven immediately; BE flits go to the input buffers. During a fault
  // stall window the router accepts no NEW packets: arriving headers (and
  // their continuations) are dropped whole, with link credits returned for
  // the discarded BE flits; packets already in flight complete normally.
  const bool frozen =
      fault_ != nullptr && fault_->RouterStalled(id_, CycleCount());
  gt_outputs_ = 0;
  const bool flits_arrived = AcceptInputs(inputs_pending_[parity], frozen);

  // Slot fast path: nothing arrived and the BE pipeline is empty, so there
  // is nothing to switch, arbitrate, drain or acknowledge — the remaining
  // phases are no-ops by construction.
  if (!flits_arrived && BeIdle()) {
    if (!credits_arrived) Park();
    return;
  }

  // Phase B: BE wormhole arbitration on the outputs GT left free.
  ArbitrateBestEffort(frozen);

  // Phase C: return one link-level credit per BE flit drained from each
  // input buffer this slot.
  bool credits_returned = false;
  for (auto& in : inputs_) {
    if (in.wires != nullptr && in.credits_freed_this_slot > 0) {
      in.wires->credit_return.Drive(in.credits_freed_this_slot);
      credits_returned = true;
    }
    in.credits_freed_this_slot = 0;
  }

  // A slot in which nothing arrived, nothing was buffered, and nothing was
  // driven cannot be followed by local work: any future work begins with a
  // wire drive, which wakes us.
  if (!flits_arrived && !credits_arrived && !credits_returned &&
      be_committed_ == 0) {
    Park();
  }
}

bool Router::AcceptInputs(std::uint32_t& pending, bool frozen) {
  const bool any = pending != 0;
  while (pending != 0) {
    const auto i = static_cast<std::size_t>(std::countr_zero(pending));
    pending &= pending - 1;
    auto& in = inputs_[i];
    const Flit& flit = in.wires->data.Sample();

    // Continuations of a packet whose header was dropped during a stall
    // window are discarded until (and including) its EOP, so downstream
    // never sees a half-open packet.
    if (flit.kind == FlitKind::kPayload &&
        (flit.gt ? in.gt_discard : in.be_discard)) {
      if (flit.eop) (flit.gt ? in.gt_discard : in.be_discard) = false;
      if (!flit.gt) in.credits_freed_this_slot += 1;
      fault_->NoteRouterStallDrop(id_, CycleCount(), flit.gt,
                                  /*is_header=*/false, flit.valid_words);
      continue;
    }

    if (frozen && flit.kind == FlitKind::kHeader) {
      if (flit.gt) {
        in.gt_discard = !flit.eop;
      } else {
        in.be_discard = !flit.eop;
        in.credits_freed_this_slot += 1;
      }
      fault_->NoteRouterStallDrop(id_, CycleCount(), flit.gt,
                                  /*is_header=*/true, flit.valid_words - 1);
      continue;
    }

    if (flit.kind == FlitKind::kHeader) {
      PacketHeader header = PacketHeader::Decode(flit.words[0]);
      AETHEREAL_CHECK_MSG(flit.gt == header.gt,
                          name() << ": GT sideband disagrees with header");
      AETHEREAL_CHECK_MSG(!header.path.Exhausted(),
                          name() << ": packet with exhausted path at input "
                                 << i);
      const int target = header.path.NextHop();
      AETHEREAL_CHECK_MSG(target >= 0 && target < config_.num_ports,
                          name() << ": path selects port " << target
                                 << " of " << config_.num_ports);
      header.path = header.path.Consume();
      Flit forwarded = flit;
      forwarded.words[0] = header.Encode();

      if (header.gt) {
        ForwardGt(static_cast<int>(i), forwarded, target);
        in.gt_target = flit.eop ? kInvalidId : target;
      } else {
        BufferBe(static_cast<int>(i), forwarded, target);
        in.be_accept_target = flit.eop ? kInvalidId : target;
      }
    } else {
      // Payload flit: the sideband traffic class selects which in-progress
      // packet on this input it continues. GT packets occupy consecutive
      // slots, so a GT payload can never be mistaken for a BE one.
      if (flit.gt) {
        AETHEREAL_CHECK_MSG(in.gt_target != kInvalidId,
                            name() << ": orphan GT payload flit at input " << i);
        ForwardGt(static_cast<int>(i), flit, in.gt_target);
        if (flit.eop) in.gt_target = kInvalidId;
      } else {
        AETHEREAL_CHECK_MSG(in.be_accept_target != kInvalidId,
                            name() << ": orphan BE payload flit at input " << i);
        BufferBe(static_cast<int>(i), flit, in.be_accept_target);
        if (flit.eop) in.be_accept_target = kInvalidId;
      }
    }
  }
  return any;
}

void Router::ForwardGt(int input, const Flit& flit, int target) {
  AETHEREAL_CHECK_MSG(
      (gt_outputs_ & (1u << target)) == 0,
      name() << ": GT slot contention on output " << target << " (input "
             << input << ") — slot allocation is corrupt");
  link::LinkWires* wires = outputs_[static_cast<std::size_t>(target)].wires;
  AETHEREAL_CHECK_MSG(wires != nullptr,
                      name() << ": GT flit to unconnected output " << target);
  wires->data.Drive(flit);
  gt_outputs_ |= 1u << target;
  ++stats_.gt_flits;
}

void Router::BufferBe(int input, const Flit& flit, int target) {
  auto& in = inputs_[static_cast<std::size_t>(input)];
  AETHEREAL_CHECK_MSG(in.be_queue.CanPush(),
                      name() << ": BE buffer overflow at input " << input
                             << " — link credit protocol violated");
  in.be_queue.Push(BufferedBeFlit{flit, target});
  be_staged_ |= 1u << input;
  stats_.be_max_occupancy =
      std::max(stats_.be_max_occupancy,
               static_cast<std::int64_t>(in.be_queue.SizeAfterCommit()));
}

int Router::RequestOf(int i) const {
  const auto& in = inputs_[static_cast<std::size_t>(i)];
  if (in.be_drain_target != kInvalidId || !in.be_queue.CanPop()) {
    return kInvalidId;
  }
  const BufferedBeFlit& head = in.be_queue.Peek();
  return head.flit.kind == FlitKind::kHeader ? head.target : kInvalidId;
}

Router::BufferedBeFlit Router::GrantBe(int i, OutputState& out) {
  auto& in = inputs_[static_cast<std::size_t>(i)];
  const BufferedBeFlit entry = in.be_queue.Pop();
  be_staged_ |= 1u << i;
  in.credits_freed_this_slot += 1;
  out.be_credits -= 1;
  out.wires->data.Drive(entry.flit);
  ++stats_.be_flits;
  return entry;
}

void Router::ArbitrateBestEffort(bool frozen) {
  if (BeIdle()) return;

  // Outputs are visited in ascending order, with the same results as a
  // scan of every output over every input, but only those in `todo`: an
  // open wormhole or a request (bit i of req[o]: input i requests output
  // o, see RequestOf). A pop exposes the input's next head, which may
  // request a later output in this same slot (after a single-flit packet
  // or a wormhole's EOP), so every pop that frees an input re-files it;
  // requests for outputs already visited are moot until the next slot.
  std::array<std::uint32_t, kMaxRouterPorts> req{};
  std::uint32_t todo = owned_outputs_;
  int o = -1;
  const auto request = [&](int i) {
    const int t = RequestOf(i);
    if (t > o) {
      req[static_cast<std::size_t>(t)] |= 1u << i;
      todo |= 1u << t;
    }
  };
  for (std::uint32_t ready = be_committed_; ready != 0; ready &= ready - 1) {
    request(std::countr_zero(ready));
  }

  while (todo != 0) {
    o = std::countr_zero(todo);
    todo &= todo - 1;
    auto& out = outputs_[static_cast<std::size_t>(o)];
    if (out.wires == nullptr) continue;
    if ((gt_outputs_ & (1u << o)) != 0) {  // GT preempts BE this slot
      if (out.be_owner_input != kInvalidId) ++stats_.be_blocked_gt;
      continue;
    }

    // Wormhole: continue the packet owning this output, if any.
    if (out.be_owner_input != kInvalidId) {
      const int i = out.be_owner_input;
      auto& in = inputs_[static_cast<std::size_t>(i)];
      if (!in.be_queue.CanPop()) continue;  // bubble inside the packet
      const BufferedBeFlit& head = in.be_queue.Peek();
      AETHEREAL_CHECK_MSG(head.flit.kind == FlitKind::kPayload &&
                              head.target == o,
                          name() << ": BE packet interleaving on input " << i);
      if (out.be_credits <= 0) {
        ++stats_.be_blocked_credit;
        continue;
      }
      if (GrantBe(i, out).flit.eop) {
        out.be_owner_input = kInvalidId;
        in.be_drain_target = kInvalidId;
        owned_outputs_ &= ~(1u << o);
        request(i);
      }
      continue;
    }

    // Free output: round-robin among the inputs requesting it, starting at
    // rr_pointer. A stalled router grants no new wormholes (the arbiter is
    // frozen); buffered headers wait out the window.
    const std::uint32_t requests = req[static_cast<std::size_t>(o)];
    if (frozen || requests == 0) continue;
    if (out.be_credits <= 0) {
      ++stats_.be_blocked_credit;  // head-of-line blocked on credits
      continue;
    }
    const std::uint32_t wrapped = requests & (~0u << out.rr_pointer);
    const int i = std::countr_zero(wrapped != 0 ? wrapped : requests);
    ++stats_.be_packets;
    if (GrantBe(i, out).flit.eop) {
      request(i);
    } else {
      out.be_owner_input = i;
      inputs_[static_cast<std::size_t>(i)].be_drain_target = o;
      owned_outputs_ |= 1u << o;
    }
    out.rr_pointer = (i + 1) % config_.num_ports;
  }
}

}  // namespace aethereal::router

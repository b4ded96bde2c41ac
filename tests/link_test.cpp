// Unit tests for flits, packet headers, source paths, and flit wires.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "link/flit.h"
#include "link/header.h"
#include "link/wire.h"
#include "sim/kernel.h"

namespace aethereal::link {
namespace {

TEST(SourcePath, EmptyIsExhausted) {
  SourcePath p;
  EXPECT_TRUE(p.Exhausted());
  EXPECT_EQ(p.HopCount(), 0);
}

TEST(SourcePath, HopsRoundTrip) {
  SourcePath p = SourcePath::FromHops({3, 0, 6, 1});
  EXPECT_EQ(p.HopCount(), 4);
  EXPECT_EQ(p.NextHop(), 3);
  p = p.Consume();
  EXPECT_EQ(p.NextHop(), 0);
  p = p.Consume();
  EXPECT_EQ(p.NextHop(), 6);
  p = p.Consume();
  EXPECT_EQ(p.NextHop(), 1);
  p = p.Consume();
  EXPECT_TRUE(p.Exhausted());
}

TEST(SourcePath, MaxHops) {
  std::vector<int> hops(kMaxPathHops, kMaxPathPort);
  SourcePath p = SourcePath::FromHops(hops);
  EXPECT_EQ(p.HopCount(), kMaxPathHops);
  for (int i = 0; i < kMaxPathHops; ++i) {
    EXPECT_EQ(p.NextHop(), kMaxPathPort);
    p = p.Consume();
  }
  EXPECT_TRUE(p.Exhausted());
}

TEST(SourcePathDeathTest, TooManyHops) {
  std::vector<int> hops(kMaxPathHops + 1, 0);
  EXPECT_DEATH(SourcePath::FromHops(hops), "exceeds");
}

TEST(SourcePathDeathTest, PortOutOfRange) {
  EXPECT_DEATH(SourcePath::FromHops({kMaxPathPort + 1}), "not encodable");
}

TEST(PacketHeader, EncodeDecodeRoundTrip) {
  PacketHeader h;
  h.gt = true;
  h.credits = 17;
  h.remote_qid = 11;
  h.path = SourcePath::FromHops({1, 2, 3});
  const Word w = h.Encode();
  const PacketHeader d = PacketHeader::Decode(w);
  EXPECT_EQ(d, h);
}

TEST(PacketHeader, FieldExtremes) {
  PacketHeader h;
  h.gt = false;
  h.credits = kMaxHeaderCredits;
  h.remote_qid = kMaxQueueId;
  h.path = SourcePath::FromHops(
      std::vector<int>(kMaxPathHops, kMaxPathPort));
  const PacketHeader d = PacketHeader::Decode(h.Encode());
  EXPECT_EQ(d, h);
}

TEST(PacketHeader, ZeroHeader) {
  const PacketHeader d = PacketHeader::Decode(0);
  EXPECT_FALSE(d.gt);
  EXPECT_EQ(d.credits, 0);
  EXPECT_EQ(d.remote_qid, 0);
  EXPECT_TRUE(d.path.Exhausted());
}

TEST(PacketHeaderDeathTest, CreditsOverflow) {
  PacketHeader h;
  h.credits = kMaxHeaderCredits + 1;
  EXPECT_DEATH(h.Encode(), "credits");
}

TEST(Flit, EqualityAndIdle) {
  Flit a = Flit::Idle();
  EXPECT_TRUE(a.IsIdle());
  Flit b;
  b.kind = FlitKind::kPayload;
  b.valid_words = 2;
  b.words = {1, 2, 0};
  EXPECT_FALSE(a == b);
  Flit c = b;
  c.words[2] = 99;  // beyond valid_words: ignored in comparison
  EXPECT_TRUE(b == c);
}

Flit TestFlit(Word tag) {
  Flit f;
  f.kind = FlitKind::kHeader;
  f.valid_words = 1;
  f.words[0] = tag;
  return f;
}

// Drives a scripted flit at the boundary of each listed slot.
class WireDriver : public sim::Module {
 public:
  WireDriver(FlitWire* wire, std::map<Cycle, Flit> script)
      : sim::Module("driver"), wire_(wire), script_(std::move(script)) {}

  void Evaluate() override {
    if (CycleCount() % kFlitWords != 0) return;
    auto it = script_.find(CycleCount() / kFlitWords);
    if (it != script_.end()) wire_->Drive(it->second);
  }

 private:
  FlitWire* wire_;
  std::map<Cycle, Flit> script_;
};

// Records what the wire shows on every edge.
class WireProbe : public sim::Module {
 public:
  explicit WireProbe(const FlitWire* wire)
      : sim::Module("probe"), wire_(wire) {}

  void Evaluate() override {
    if (wire_ != nullptr) seen_.push_back(wire_->Sample());
  }
  const std::vector<Flit>& seen() const { return seen_; }

 private:
  const FlitWire* wire_;
  std::vector<Flit> seen_;
};

// Swallows the flit driven at one cycle and tags every other one.
class DropAtCycle : public FlitTap {
 public:
  explicit DropAtCycle(Cycle drop) : drop_(drop) {}
  bool OnDrive(int site, Cycle now, Flit* flit) override {
    EXPECT_EQ(site, 7);
    if (now == drop_) return false;
    flit->words[0] |= 0x10000;
    return true;
  }

 private:
  Cycle drop_;
};

// A wire on a real clock, sampled by one probe registered before its
// driver and one registered after it.
struct WireRig {
  explicit WireRig(std::map<Cycle, Flit> script) {
    clock = kernel.AddClockMhz("net", 500.0);
    pool = std::make_unique<WirePool>(clock, 1);
    wire = &pool->AddLink()->data;
    early = std::make_unique<WireProbe>(wire);
    driver = std::make_unique<WireDriver>(wire, std::move(script));
    late = std::make_unique<WireProbe>(wire);
    wire->SetConsumer(late.get());
    clock->Register(early.get());
    clock->Register(driver.get());
    clock->Register(late.get());
  }
  void RunSlots(int slots) { kernel.RunCycles(clock, slots * kFlitWords); }

  sim::Kernel kernel;
  sim::Clock* clock = nullptr;
  std::unique_ptr<WirePool> pool;
  FlitWire* wire = nullptr;
  std::unique_ptr<WireProbe> early;
  std::unique_ptr<WireDriver> driver;
  std::unique_ptr<WireProbe> late;
};

TEST(FlitWire, VisibleForExactlyTheNextSlotInAnyOrder) {
  const Flit f = TestFlit(0xDEAD);
  WireRig rig({{1, f}});  // driven at the boundary of slot 1 (cycle 3)
  rig.RunSlots(4);
  ASSERT_EQ(rig.early->seen().size(), 12u);
  for (std::size_t cycle = 0; cycle < 12; ++cycle) {
    const bool visible = cycle >= 6 && cycle < 9;  // all of slot 2
    EXPECT_EQ(rig.early->seen()[cycle], visible ? f : Flit::Idle())
        << "cycle " << cycle;
  }
  // A consumer evaluated before the producer and one evaluated after it
  // see the same value on every edge.
  EXPECT_EQ(rig.early->seen(), rig.late->seen());
}

TEST(FlitWire, BackToBackDrivesHoldEachForOneSlot) {
  const Flit a = TestFlit(0xA);
  const Flit b = TestFlit(0xB);
  WireRig rig({{0, a}, {1, b}});
  rig.RunSlots(3);
  const auto& seen = rig.late->seen();
  ASSERT_EQ(seen.size(), 9u);
  for (std::size_t cycle = 0; cycle < 9; ++cycle) {
    const Flit expected = cycle < 3 ? Flit::Idle() : cycle < 6 ? a : b;
    EXPECT_EQ(seen[cycle], expected) << "cycle " << cycle;
  }
  EXPECT_EQ(rig.early->seen(), seen);
}

TEST(FlitWire, FaultTapDropLeavesTheSlotIdle) {
  const Flit a = TestFlit(0xA);
  const Flit b = TestFlit(0xB);
  WireRig rig({{1, a}, {2, b}});
  DropAtCycle tap(/*drop=*/3);  // swallows the slot-1 drive
  rig.wire->SetFaultTap(&tap, 7);
  rig.RunSlots(5);
  const auto& seen = rig.late->seen();
  Flit tagged = b;
  tagged.words[0] |= 0x10000;
  for (std::size_t cycle = 0; cycle < 15; ++cycle) {
    const bool visible = cycle >= 9 && cycle < 12;  // slot 3 only
    EXPECT_EQ(seen[cycle], visible ? tagged : Flit::Idle())
        << "cycle " << cycle;
  }
  EXPECT_EQ(rig.early->seen(), seen);
}

TEST(FlitWire, DriveFlagsThePendingMaskOfTheNextSlot) {
  sim::Kernel kernel;
  sim::Clock* clock = kernel.AddClockMhz("net", 500.0);
  WirePool pool(clock, 1);
  LinkWires* wires = pool.AddLink();
  std::array<std::uint32_t, 2> masks{};
  wires->data.SetConsumerBit(&masks, 5);
  wires->data.Drive(TestFlit(1));  // slot 0
  EXPECT_EQ(masks[0], 0u);
  EXPECT_EQ(masks[1], 1u << 5);
}

TEST(CreditWire, PulseLastsOneSlot) {
  sim::Kernel kernel;
  sim::Clock* clock = kernel.AddClockMhz("net", 500.0);
  WirePool pool(clock, 1);
  CreditWire& credits = pool.AddLink()->credit_return;
  WireProbe ticker(nullptr);  // a clock needs a module to step
  clock->Register(&ticker);
  credits.Drive(2);
  EXPECT_EQ(credits.Sample(), 0);  // not visible in the driving slot
  kernel.RunCycles(clock, kFlitWords);
  EXPECT_EQ(credits.Sample(), 2);
  kernel.RunCycles(clock, kFlitWords);
  EXPECT_EQ(credits.Sample(), 0);
}

TEST(FlitWireDeathTest, DoubleDrive) {
  sim::Kernel kernel;
  sim::Clock* clock = kernel.AddClockMhz("net", 500.0);
  WirePool pool(clock, 1);
  FlitWire& wire = pool.AddLink()->data;
  wire.Drive(TestFlit(1));
  EXPECT_DEATH(wire.Drive(TestFlit(2)), "driven twice");
}

}  // namespace
}  // namespace aethereal::link

// Unit tests for the simulation kernel: clocks, stamped registers, FIFOs,
// clock-domain-crossing FIFOs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/cdc_fifo.h"
#include "sim/fifo.h"
#include "sim/kernel.h"

namespace aethereal::sim {
namespace {

constexpr EngineKind kBothEngines[] = {EngineKind::kNaive, EngineKind::kGated};

// A module that counts its own cycles.
class Counter : public Module {
 public:
  explicit Counter(std::string name) : Module(std::move(name)) {}
  void Evaluate() override { value_.Set(value_.Get() + 1); }
  int Value() const { return value_.Get(); }

 private:
  Register<int> value_{this, 0};
};

TEST(Kernel, SingleClockCycles) {
  for (EngineKind engine : kBothEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* clk = kernel.AddClockMhz("clk", 500.0);
    EXPECT_EQ(clk->period_ps(), 2000);
    Counter counter("c");
    clk->Register(&counter);
    kernel.RunCycles(clk, 10);
    EXPECT_EQ(clk->cycles(), 10);
    EXPECT_EQ(counter.Value(), 10) << EngineKindName(engine);
  }
}

TEST(Kernel, TwoClocksAdvanceProportionally) {
  for (EngineKind engine : kBothEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* fast = kernel.AddClock("fast", 1000);  // 1 GHz
    Clock* slow = kernel.AddClock("slow", 4000);  // 250 MHz
    Counter cf("cf"), cs("cs");
    fast->Register(&cf);
    slow->Register(&cs);
    kernel.RunUntil(40000);
    // Edges at t=0,1000,... inclusive of t=0 and t=40000.
    EXPECT_EQ(cf.Value(), 41) << EngineKindName(engine);
    EXPECT_EQ(cs.Value(), 11) << EngineKindName(engine);
  }
}

TEST(Kernel, CoincidentEdgesFireTogether) {
  for (EngineKind engine : kBothEngines) {
    Kernel kernel;
    kernel.set_engine(engine);
    Clock* a = kernel.AddClock("a", 2000);
    Clock* b = kernel.AddClock("b", 3000);
    Counter ca("ca"), cb("cb");
    a->Register(&ca);
    b->Register(&cb);
    // First step handles t=0 where both fire.
    kernel.Step();
    EXPECT_EQ(ca.Value(), 1);
    EXPECT_EQ(cb.Value(), 1);
    // Next edges: a at 2000, b at 3000.
    kernel.Step();
    EXPECT_EQ(ca.Value(), 2);
    EXPECT_EQ(cb.Value(), 1);
  }
}

// Two modules exchanging values through registers must see last-cycle state
// regardless of registration order.
class Swapper : public Module {
 public:
  Swapper(std::string name, int reset)
      : Module(std::move(name)), reg(this, reset) {}
  void Evaluate() override { reg.Set(theirs->Get() + 1); }
  Register<int> reg;
  const Register<int>* theirs = nullptr;
};

TEST(Kernel, RegisterOrderIndependence) {
  for (EngineKind engine : kBothEngines) {
    for (bool reversed : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* clk = kernel.AddClock("clk", 1000);
      Swapper a("a", 0), b("b", 100);
      a.theirs = &b.reg;
      b.theirs = &a.reg;
      if (reversed) {
        clk->Register(&b);
        clk->Register(&a);
      } else {
        clk->Register(&a);
        clk->Register(&b);
      }
      kernel.RunCycles(clk, 1);
      // Both read pre-edge values: a := 100+1, b := 0+1.
      EXPECT_EQ(a.reg.Get(), 101) << EngineKindName(engine);
      EXPECT_EQ(b.reg.Get(), 1) << EngineKindName(engine);
      kernel.RunCycles(clk, 1);
      EXPECT_EQ(a.reg.Get(), 2);
      EXPECT_EQ(b.reg.Get(), 102);
    }
  }
}

// --- Register visibility across clocks ------------------------------------
//
// A value staged in an owner edge shows once every module of every clock
// firing at that instant has evaluated. The expected edges are those of
// the earlier two-phase kernel, which applied staged registers in a commit
// phase at exactly that point.

// Sets its register to 10 * (edge + 1) at each listed edge of its clock.
class RegWriter : public Module {
 public:
  explicit RegWriter(std::vector<Cycle> set_edges)
      : Module("writer"), set_edges_(std::move(set_edges)) {}
  void Evaluate() override {
    for (Cycle e : set_edges_) {
      if (e == CycleCount()) reg.Set(static_cast<int>(10 * (e + 1)));
    }
  }
  Register<int> reg{this, 0};

 private:
  std::vector<Cycle> set_edges_;
};

// Records the register's value at each of its edges.
class RegReader : public Module {
 public:
  RegReader(std::string name, const Register<int>* reg)
      : Module(std::move(name)), reg_(reg) {}
  void Evaluate() override { seen.push_back(reg_->Get()); }
  std::vector<int> seen;  // by edge

 private:
  const Register<int>* reg_;
};

// First edge (index) at which `seen` holds `value`, or -1.
int FirstEdgeSeeing(const std::vector<int>& seen, int value) {
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] == value) return static_cast<int>(i);
  }
  return -1;
}

// Creates the writer's and the reader's clocks in the given id order.
std::pair<Clock*, Clock*> AddClocks(Kernel& kernel, Picoseconds writer_ps,
                                    Picoseconds reader_ps,
                                    bool writer_clock_first) {
  if (writer_clock_first) {
    Clock* w = kernel.AddClock("w", writer_ps);
    return {w, kernel.AddClock("r", reader_ps)};
  }
  Clock* r = kernel.AddClock("r", reader_ps);
  return {kernel.AddClock("w", writer_ps), r};
}

TEST(Register, CoincidentEdgesAcrossClocks) {
  // Sets at writer edges 1, 2 and 5 (values 20, 30, 60). A reader on the
  // other clock whose edge coincides with the writer's sees the value only
  // at its next edge, whichever clock has the lower id; a reader on the
  // writer's clock registered before the writer sees it one edge later.
  struct Case {
    Picoseconds writer_ps, reader_ps;
    int edge20, edge30, edge60;  // first reader edge seeing each value
  };
  for (const Case& c : {Case{1000, 2000, 1, 2, 3}, Case{2000, 1000, 3, 5, 11}}) {
    for (EngineKind engine : kBothEngines) {
      for (bool writer_clock_first : {true, false}) {
        Kernel kernel;
        kernel.set_engine(engine);
        auto [wclk, rclk] =
            AddClocks(kernel, c.writer_ps, c.reader_ps, writer_clock_first);
        RegWriter writer({1, 2, 5});
        RegReader reader("reader", &writer.reg);
        RegReader same("same", &writer.reg);
        wclk->Register(&same);
        wclk->Register(&writer);
        rclk->Register(&reader);
        kernel.RunUntil(14000);
        const std::string what = std::string(EngineKindName(engine)) +
                                 " writer_clock_first=" +
                                 (writer_clock_first ? "1" : "0");
        EXPECT_EQ(FirstEdgeSeeing(reader.seen, 20), c.edge20) << what;
        EXPECT_EQ(FirstEdgeSeeing(reader.seen, 30), c.edge30) << what;
        EXPECT_EQ(FirstEdgeSeeing(reader.seen, 60), c.edge60) << what;
        EXPECT_EQ(FirstEdgeSeeing(same.seen, 20), 2) << what;
        EXPECT_EQ(FirstEdgeSeeing(same.seen, 30), 3) << what;
        EXPECT_EQ(FirstEdgeSeeing(same.seen, 60), 6) << what;
      }
    }
  }
}

TEST(Register, SetBetweenSteps) {
  // A Set() made between steps shows once the owner clock's next edge has
  // ended: at t=6000 for a 3000 ps owner, t=10000 for a 10000 ps one, so a
  // 1 GHz reader sees it at its edge 7 or 11.
  for (auto [writer_ps, edge] : {std::pair<Picoseconds, int>{3000, 7},
                                 std::pair<Picoseconds, int>{10000, 11}}) {
    for (EngineKind engine : kBothEngines) {
      for (bool writer_clock_first : {true, false}) {
        Kernel kernel;
        kernel.set_engine(engine);
        auto [wclk, rclk] =
            AddClocks(kernel, writer_ps, 1000, writer_clock_first);
        RegWriter writer({});
        RegReader reader("reader", &writer.reg);
        wclk->Register(&writer);
        rclk->Register(&reader);
        while (kernel.NextEdgeTime() <= 4000) kernel.Step();
        writer.reg.Set(77);
        EXPECT_EQ(writer.reg.Get(), 0);
        EXPECT_EQ(writer.reg.Latest(), 77);
        kernel.RunUntil(40000);
        EXPECT_EQ(FirstEdgeSeeing(reader.seen, 77), edge)
            << EngineKindName(engine) << " writer_ps=" << writer_ps;
      }
    }
  }
}

TEST(Register, OwnerTenTimesSlower) {
  // A 100 MHz owner sets at its edges 1, 2 and 5 (t=10000, 20000, 50000);
  // a 1 GHz reader sees each value one of its edges after the instant.
  for (EngineKind engine : kBothEngines) {
    for (bool writer_clock_first : {true, false}) {
      Kernel kernel;
      kernel.set_engine(engine);
      auto [wclk, rclk] = AddClocks(kernel, 10000, 1000, writer_clock_first);
      RegWriter writer({1, 2, 5});
      RegReader reader("reader", &writer.reg);
      wclk->Register(&writer);
      rclk->Register(&reader);
      kernel.RunUntil(70000);
      EXPECT_EQ(FirstEdgeSeeing(reader.seen, 20), 11) << EngineKindName(engine);
      EXPECT_EQ(FirstEdgeSeeing(reader.seen, 30), 21) << EngineKindName(engine);
      EXPECT_EQ(FirstEdgeSeeing(reader.seen, 60), 51) << EngineKindName(engine);
    }
  }
}

TEST(Fifo, PushVisibleNextCycle) {
  Fifo<int> fifo(4);
  EXPECT_TRUE(fifo.Empty());
  fifo.Push(7);
  EXPECT_EQ(fifo.Size(), 0);  // not yet committed
  EXPECT_FALSE(fifo.CanPop());
  fifo.Commit();
  EXPECT_EQ(fifo.Size(), 1);
  EXPECT_TRUE(fifo.CanPop());
  EXPECT_EQ(fifo.Peek(), 7);
}

TEST(Fifo, SameCyclePushPop) {
  Fifo<int> fifo(2);
  fifo.Push(1);
  fifo.Commit();
  // Pop the 1 and push a 2 in the same cycle.
  EXPECT_EQ(fifo.Pop(), 1);
  fifo.Push(2);
  fifo.Commit();
  EXPECT_EQ(fifo.Size(), 1);
  EXPECT_EQ(fifo.Peek(), 2);
}

TEST(Fifo, FlowThroughSpaceAccounting) {
  Fifo<int> fifo(1);
  fifo.Push(1);
  fifo.Commit();
  EXPECT_FALSE(fifo.CanPush());  // full
  EXPECT_EQ(fifo.Pop(), 1);
  EXPECT_TRUE(fifo.CanPush());  // same-cycle pop frees space
  fifo.Push(2);
  fifo.Commit();
  EXPECT_EQ(fifo.Peek(), 2);
}

TEST(Fifo, PeekWithStagedPops) {
  Fifo<int> fifo(4);
  fifo.Push(1);
  fifo.Push(2);
  fifo.Push(3);
  fifo.Commit();
  EXPECT_EQ(fifo.Pop(), 1);
  EXPECT_EQ(fifo.Peek(0), 2);  // accounts for the staged pop
  EXPECT_EQ(fifo.Peek(1), 3);
}

TEST(Fifo, CapacityOrdering) {
  Fifo<int> fifo(8);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) fifo.Push(round * 8 + i);
    fifo.Commit();
    EXPECT_TRUE(fifo.Full());
    for (int i = 0; i < 8; ++i) EXPECT_EQ(fifo.Pop(), round * 8 + i);
    fifo.Commit();
    EXPECT_TRUE(fifo.Empty());
  }
}

TEST(FifoDeathTest, OverflowChecks) {
  Fifo<int> fifo(1);
  fifo.Push(1);
  EXPECT_DEATH(fifo.Push(2), "overflow");
}

TEST(FifoDeathTest, UnderflowChecks) {
  Fifo<int> fifo(1);
  EXPECT_DEATH(fifo.Pop(), "underflow");
}

// --- CdcFifo on real clocks ---------------------------------------------
//
// The expected edges below are the behaviour of the reference synchronizer
// the stamps reproduce (sim/cdc_fifo.h): a word pushed at a writer edge is
// delivered at the end of the first reader edge with cycles() >= the
// reader's edge count at the end of the writer's edge + 1, and is readable
// one edge later.

// Pushes one word (0, 1, 2, ...) at each listed edge of its clock that
// finds space, and records per edge the space it sees before pushing, the
// frees it harvests and whether it pushed.
class CdcWriter : public Module {
 public:
  CdcWriter(CdcFifo<int>* fifo, std::vector<Cycle> push_edges)
      : Module("writer"), fifo_(fifo), push_edges_(std::move(push_edges)) {}
  void Evaluate() override {
    space.push_back(fifo_->WriterSpace());
    freed.push_back(fifo_->TakeFreedForWriter());
    int pushes = 0;
    for (Cycle e : push_edges_) {
      if (e == CycleCount() && fifo_->CanPush()) {
        fifo_->Push(next_++);
        ++pushes;
      }
    }
    pushed.push_back(pushes);
  }
  std::vector<int> space;   // by writer edge
  std::vector<int> freed;   // by writer edge
  std::vector<int> pushed;  // by writer edge

 private:
  CdcFifo<int>* fifo_;
  std::vector<Cycle> push_edges_;
  int next_ = 0;
};

// Records ReaderSize() per edge and, if `pops`, pops every readable word.
class CdcReader : public Module {
 public:
  CdcReader(CdcFifo<int>* fifo, bool pops)
      : Module("reader"), fifo_(fifo), pops_(pops) {}
  void Evaluate() override {
    size.push_back(fifo_->ReaderSize());
    while (pops_ && fifo_->CanPop()) {
      popped.push_back(fifo_->Pop());
      pop_edges.push_back(CycleCount());
    }
  }
  std::vector<int> size;  // by reader edge
  std::vector<int> popped;
  std::vector<Cycle> pop_edges;

 private:
  CdcFifo<int>* fifo_;
  bool pops_;
};

// A read-only observer of both sides of a queue.
class CdcProbe : public Module {
 public:
  CdcProbe(std::string name, const CdcFifo<int>* fifo)
      : Module(std::move(name)), fifo_(fifo) {}
  void Evaluate() override {
    size.push_back(fifo_->ReaderSize());
    space.push_back(fifo_->WriterSpace());
  }
  std::vector<int> size;
  std::vector<int> space;

 private:
  const CdcFifo<int>* fifo_;
};

// First edge (index) at which `values` holds a nonzero entry, or -1.
int FirstNonzero(const std::vector<int>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0) return static_cast<int>(i);
  }
  return -1;
}

TEST(CdcFifo, TwoEdgeSynchronizerLatency) {
  // One clock: readable two edges after the push when the reader is
  // registered after the writer, three when it is registered first.
  for (EngineKind engine : kBothEngines) {
    for (bool reader_first : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* clk = kernel.AddClock("clk", 1000);
      CdcFifo<int> fifo(4);
      CdcWriter writer(&fifo, {3});
      CdcReader reader(&fifo, /*pops=*/false);
      fifo.SetSides(&writer, &reader);
      if (reader_first) clk->Register(&reader);
      clk->Register(&writer);
      if (!reader_first) clk->Register(&reader);
      kernel.RunCycles(clk, 10);
      EXPECT_EQ(FirstNonzero(reader.size), reader_first ? 6 : 5)
          << EngineKindName(engine);
      EXPECT_EQ(reader.size.back(), 1);
    }
  }
}

TEST(CdcFifo, SpaceReturnsAfterWriterEdges) {
  // Capacity 1, one clock: the word pushed at edge 1 is popped as soon as
  // it is readable, and the writer sees the space again at edge 6 in both
  // registration orders (the extra read-side edge of one order is the
  // extra write-side edge of the other).
  for (EngineKind engine : kBothEngines) {
    for (bool reader_first : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* clk = kernel.AddClock("clk", 1000);
      CdcFifo<int> fifo(1);
      CdcWriter writer(&fifo, {1});
      CdcReader reader(&fifo, /*pops=*/true);
      fifo.SetSides(&writer, &reader);
      if (reader_first) clk->Register(&reader);
      clk->Register(&writer);
      if (!reader_first) clk->Register(&reader);
      kernel.RunCycles(clk, 9);
      ASSERT_EQ(reader.pop_edges.size(), 1u);
      EXPECT_EQ(reader.pop_edges[0], reader_first ? 4 : 3);
      EXPECT_EQ(writer.space,
                (std::vector<int>{1, 1, 0, 0, 0, 0, 1, 1, 1}))
          << EngineKindName(engine) << " reader_first=" << reader_first;
      EXPECT_EQ(FirstNonzero(writer.freed), 6);
    }
  }
}

TEST(CdcFifo, CoincidentEdgesAcrossClocks) {
  // Writer at 1 GHz, reader at 500 MHz: the push at writer edge 2 and the
  // pop that follows it fall on instants where both clocks fire. The clock
  // created first has the lower id and advances first, so it has already
  // counted the shared edge when the other side hands over.
  for (EngineKind engine : kBothEngines) {
    for (bool writer_clock_first : {true, false}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* wclk = nullptr;
      Clock* rclk = nullptr;
      if (writer_clock_first) {
        wclk = kernel.AddClock("w", 1000);
        rclk = kernel.AddClock("r", 2000);
      } else {
        rclk = kernel.AddClock("r", 2000);
        wclk = kernel.AddClock("w", 1000);
      }
      CdcFifo<int> fifo(4);
      CdcWriter writer(&fifo, {2});
      CdcReader reader(&fifo, /*pops=*/true);
      fifo.SetSides(&writer, &reader);
      wclk->Register(&writer);
      rclk->Register(&reader);
      kernel.RunUntil(14000);
      ASSERT_EQ(reader.pop_edges.size(), 1u);
      // Pushed at t=2000 (reader edge 1); popped at reader edge 3 (t=6000)
      // or 4 (t=8000); space back at writer edge 9 or 10.
      EXPECT_EQ(reader.pop_edges[0], writer_clock_first ? 3 : 4)
          << EngineKindName(engine);
      EXPECT_EQ(FirstNonzero(writer.freed), writer_clock_first ? 9 : 10)
          << EngineKindName(engine);
    }
  }
}

TEST(CdcFifo, ReaderTenTimesSlower) {
  // Writer at 1 GHz fills a 4-word queue at edges 5..8; the 100 MHz reader
  // sees all four at its edge 3 (two of its edges after the hand-off) and
  // pops them; the writer sees the space 2 of its own edges later.
  for (EngineKind engine : kBothEngines) {
    for (bool writer_clock_first : {true, false}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* wclk = nullptr;
      Clock* rclk = nullptr;
      if (writer_clock_first) {
        wclk = kernel.AddClock("w", 1000);
        rclk = kernel.AddClock("r", 10000);
      } else {
        rclk = kernel.AddClock("r", 10000);
        wclk = kernel.AddClock("w", 1000);
      }
      CdcFifo<int> fifo(4);
      CdcWriter writer(&fifo, {5, 6, 7, 8});
      CdcReader reader(&fifo, /*pops=*/true);
      fifo.SetSides(&writer, &reader);
      wclk->Register(&writer);
      rclk->Register(&reader);
      kernel.RunUntil(40000);
      EXPECT_EQ(reader.size, (std::vector<int>{0, 0, 0, 4, 0}))
          << EngineKindName(engine);
      EXPECT_EQ(reader.popped, (std::vector<int>{0, 1, 2, 3}));
      // Pop at t=30000 = writer edge 30: visible to the writer at edge 33
      // when its clock advances first, 32 otherwise.
      const int back = writer_clock_first ? 33 : 32;
      EXPECT_EQ(FirstNonzero(writer.freed), back) << EngineKindName(engine);
      EXPECT_EQ(writer.freed[static_cast<std::size_t>(back)], 4);
      EXPECT_EQ(writer.space[static_cast<std::size_t>(back - 1)], 0);
      EXPECT_EQ(writer.space[static_cast<std::size_t>(back)], 4);
    }
  }
}

TEST(CdcFifo, ProbesSeeTheSameQueueWhateverTheOrder) {
  // A probe registered before the writer and one registered after the
  // reader see the same reader size in every edge, and the same writer
  // space up to the words the writer pushed earlier in that edge (the
  // writer's own pushes count against its space at once).
  for (EngineKind engine : kBothEngines) {
    for (bool reader_first : {false, true}) {
      Kernel kernel;
      kernel.set_engine(engine);
      Clock* clk = kernel.AddClock("clk", 1000);
      CdcFifo<int> fifo(3);
      std::vector<Cycle> pushes;
      for (Cycle e = 1; e <= 12; ++e) pushes.push_back(e);
      CdcWriter writer(&fifo, pushes);
      CdcReader reader(&fifo, /*pops=*/true);
      CdcProbe before("before", &fifo);
      CdcProbe after("after", &fifo);
      fifo.SetSides(&writer, &reader);
      clk->Register(&before);
      if (reader_first) clk->Register(&reader);
      clk->Register(&writer);
      if (!reader_first) clk->Register(&reader);
      clk->Register(&after);
      kernel.RunCycles(clk, 20);
      EXPECT_EQ(before.size, after.size) << EngineKindName(engine);
      EXPECT_EQ(before.size, reader.size);
      int nonzero = 0;
      for (std::size_t e = 0; e < before.space.size(); ++e) {
        EXPECT_EQ(before.space[e], after.space[e] + writer.pushed[e])
            << "edge " << e;
        EXPECT_EQ(before.space[e], writer.space[e]) << "edge " << e;
        if (before.size[e] != 0) ++nonzero;
      }
      EXPECT_GT(nonzero, 4);  // the queue really carried traffic
    }
  }
}

TEST(CdcFifo, OrderPreserved) {
  Kernel kernel;
  Clock* wclk = kernel.AddClock("w", 1000);
  Clock* rclk = kernel.AddClock("r", 3000);
  CdcFifo<int> fifo(4);
  CdcWriter writer(&fifo, {});
  CdcReader reader(&fifo, /*pops=*/true);
  fifo.SetSides(&writer, &reader);
  wclk->Register(&writer);
  rclk->Register(&reader);
  // Push whenever there is space, from outside the clocked modules too.
  int next = 0;
  while (kernel.now_ps() < 200000) {
    if (fifo.CanPush()) fifo.Push(next++);
    kernel.Step();
  }
  ASSERT_GT(reader.popped.size(), 20u);
  for (std::size_t i = 0; i < reader.popped.size(); ++i) {
    EXPECT_EQ(reader.popped[i], static_cast<int>(i));
  }
}

TEST(CdcFifoDeathTest, PushBeforeSidesAreClocked) {
  CdcFifo<int> fifo(2);
  EXPECT_DEATH(fifo.Push(1), "registered on clocks");
}

}  // namespace
}  // namespace aethereal::sim

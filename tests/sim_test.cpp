// Unit tests for the simulation kernel: clocks, two-phase update, FIFOs,
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

// A module that counts its own cycles.
class Counter : public Module {
 public:
  explicit Counter(std::string name) : Module(std::move(name)) {
    RegisterState(&value_);
  }
  void Evaluate() override { value_.Set(value_.Get() + 1); }
  int Value() const { return value_.Get(); }

 private:
  Register<int> value_{0};
};

TEST(Kernel, SingleClockCycles) {
  Kernel kernel;
  Clock* clk = kernel.AddClockMhz("clk", 500.0);
  EXPECT_EQ(clk->period_ps(), 2000);
  Counter counter("c");
  clk->Register(&counter);
  kernel.RunCycles(clk, 10);
  EXPECT_EQ(clk->cycles(), 10);
  EXPECT_EQ(counter.Value(), 10);
}

TEST(Kernel, TwoClocksAdvanceProportionally) {
  Kernel kernel;
  Clock* fast = kernel.AddClock("fast", 1000);  // 1 GHz
  Clock* slow = kernel.AddClock("slow", 4000);  // 250 MHz
  Counter cf("cf"), cs("cs");
  fast->Register(&cf);
  slow->Register(&cs);
  kernel.RunUntil(40000);
  // Edges at t=0,1000,... inclusive of t=0 and t=40000.
  EXPECT_EQ(cf.Value(), 41);
  EXPECT_EQ(cs.Value(), 11);
}

TEST(Kernel, CoincidentEdgesFireTogether) {
  Kernel kernel;
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

// Two modules exchanging values through registers must see last-cycle state
// regardless of registration order (order independence of two-phase update).
class Swapper : public Module {
 public:
  Swapper(std::string name, Register<int>* mine, const Register<int>* theirs)
      : Module(std::move(name)), mine_(mine), theirs_(theirs) {
    RegisterState(mine_);
  }
  void Evaluate() override { mine_->Set(theirs_->Get() + 1); }

 private:
  Register<int>* mine_;
  const Register<int>* theirs_;
};

TEST(Kernel, TwoPhaseOrderIndependence) {
  for (bool reversed : {false, true}) {
    Kernel kernel;
    Clock* clk = kernel.AddClock("clk", 1000);
    Register<int> ra(0), rb(100);
    Swapper a("a", &ra, &rb), b("b", &rb, &ra);
    if (reversed) {
      clk->Register(&b);
      clk->Register(&a);
    } else {
      clk->Register(&a);
      clk->Register(&b);
    }
    kernel.RunCycles(clk, 1);
    // Both read pre-edge values: ra := 100+1, rb := 0+1.
    EXPECT_EQ(ra.Get(), 101);
    EXPECT_EQ(rb.Get(), 1);
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
// The expected edges below are the behaviour of the two-phase synchronizer
// the stamps reproduce (sim/cdc_fifo.h): a word pushed at writer edge w is
// delivered at the first reader commit with cycles() >= the reader's edge
// count at the writer's commit + 1, and is readable one edge later.

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

constexpr EngineKind kBothEngines[] = {EngineKind::kNaive, EngineKind::kGated};

TEST(CdcFifo, TwoEdgeSynchronizerLatency) {
  // One clock: readable two edges after the push when the reader commits
  // after the writer, three when it is registered (and commits) first.
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
  // created first has the lower id and commits first, so it has already
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
      // when its clock commits first, 32 otherwise.
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

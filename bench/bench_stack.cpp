// E8 (paper §5): hardware vs software protocol stack.
//
// "The latency overhead of a software implementation of the protocol is
// much larger (e.g., 47 instructions for packetization only [4]). A
// hardware implementation allows both legacy software and hardware task
// implementations to be used without change."
//
// Compares the measured hardware packetization pipeline (cycles from a
// message entering the NI to its first flit on the link) against a software
// model charging the reference 47 instructions per packet (CPI = 1 at the
// same 500 MHz clock), plus a host-side microbenchmark of the message codec
// (google-benchmark) for reference.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "bench/common.h"
#include "ip/stream.h"
#include "transaction/message.h"
#include "util/table.h"

using namespace aethereal;

namespace {

constexpr int kSwInstructionsPerPacket = 47;  // paper's ref [4]
constexpr int kMaxPacketPayloadWords = 11;    // 4 flits - 1 header word

// Measured per-message hardware latency: port write of the first word to
// first-word delivery at the far port, minus link transit (2 slots).
double HwPacketizationCycles(int words) {
  auto soc = bench::MakeStarSoc({1, 1}, /*queue_words=*/64);
  AETHEREAL_CHECK(soc->OpenConnection(tdm::GlobalChannel{0, 0},
                                      tdm::GlobalChannel{1, 0})
                      .ok());
  ip::StreamProducer producer("p", soc->port(0, 0), 0, /*period=*/90, words,
                              /*timestamp=*/true, 40 * words);
  ip::StreamConsumer consumer("c", soc->port(1, 0), 0, kFlitWords);
  soc->RegisterOnPort(&producer, 0, 0);
  soc->RegisterOnPort(&consumer, 1, 0);
  soc->RunCycles(2);
  bench::RunUntil(*soc, [&] { return consumer.words_read() >= 40 * words; },
                  60000);
  return consumer.latency().Min() - 2 * kFlitWords;
}

void HwVsSwTable() {
  bench::PrintHeader(
      "E8a: packetization latency, hardware stack vs software stack model",
      "HW: measured NI ingress pipeline (pack + CDC, pipelined at 1 "
      "word/cycle). SW: 47 instructions per\npacket (paper ref [4]) at CPI "
      "1 on the same 500 MHz clock, one packet per 11 payload words.");
  Table table({"message words", "packets", "hw cycles (measured)",
               "sw cycles (model)", "sw/hw ratio"});
  double hw_min = 0;
  double hw_max = 0;
  for (int words : {1, 4, 11, 22, 44}) {
    const int packets =
        (words + kMaxPacketPayloadWords - 1) / kMaxPacketPayloadWords;
    const double hw = HwPacketizationCycles(std::min(words, 48));
    hw_min = words == 1 ? hw : std::min(hw_min, hw);
    hw_max = words == 1 ? hw : std::max(hw_max, hw);
    const double sw = static_cast<double>(kSwInstructionsPerPacket) * packets;
    table.AddRow({Table::Fmt(static_cast<std::int64_t>(words)),
                  Table::Fmt(static_cast<std::int64_t>(packets)),
                  Table::Fmt(hw, 0), Table::Fmt(sw, 0),
                  Table::Fmt(sw / hw, 1)});
  }
  table.Print(std::cout);
  const bool within = hw_min >= 4 && hw_max <= 10;
  std::cout << "\nMeasured hardware overhead: " << Table::Fmt(hw_min, 0)
            << (hw_max > hw_min ? "-" + Table::Fmt(hw_max, 0) : "")
            << " cycles over the rows above; "
            << "the paper's budget is 4-10 cycles ("
            << (within ? "inside it" : "not inside it") << ").\n"
            << "Software model: " << kSwInstructionsPerPacket
            << " cycles per packet.\n";
}

// Host-side codec microbenchmarks (the model's own cost, for reference).
void BM_EncodeRequest(benchmark::State& state) {
  transaction::RequestMessage msg;
  msg.cmd = transaction::Command::kWrite;
  msg.address = 0x1000;
  msg.data.assign(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.Encode());
  }
}
BENCHMARK(BM_EncodeRequest)->Arg(1)->Arg(11)->Arg(44);

void BM_HeaderCodec(benchmark::State& state) {
  link::PacketHeader header;
  header.gt = true;
  header.credits = 17;
  header.remote_qid = 5;
  header.path = link::SourcePath::FromHops({1, 2, 3});
  for (auto _ : state) {
    const Word w = header.Encode();
    benchmark::DoNotOptimize(link::PacketHeader::Decode(w));
  }
}
BENCHMARK(BM_HeaderCodec);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "bench_stack — hardware vs software protocol stack (E8)\n";
  HwVsSwTable();
  std::cout << "\nE8b: host-side codec microbenchmarks (simulator cost, "
               "not a paper claim):\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

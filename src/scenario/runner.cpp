#include "scenario/runner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <sstream>
#include <tuple>

#include "fault/injector.h"
#include "link/header.h"
#include "scenario/wiring.h"
#include "topology/builders.h"
#include "util/check.h"
#include "util/json.h"
#include "util/stats.h"
#include "verify/monitor.h"

namespace aethereal::scenario {

namespace {

LatencySummary Summarize(const Stats& stats) {
  LatencySummary s;
  s.count = stats.count();
  if (!stats.empty()) {
    s.min = stats.Min();
    s.mean = stats.Mean();
    s.p50 = stats.Percentile(50);
    s.p95 = stats.Percentile(95);
    s.p99 = stats.Percentile(99);
    s.max = stats.Max();
  }
  return s;
}

void WriteLatency(JsonWriter& w, const LatencySummary& latency) {
  w.BeginObject();
  w.Key("count").Int(latency.count);
  if (latency.count > 0) {
    w.Key("min").Double(latency.min);
    w.Key("mean").Double(latency.mean);
    w.Key("p50").Double(latency.p50);
    w.Key("p95").Double(latency.p95);
    w.Key("p99").Double(latency.p99);
    w.Key("max").Double(latency.max);
  }
  w.EndObject();
}

/// One histogram summary of the `histograms` result section: exact
/// nearest-rank percentiles over the merged sample population plus
/// power-of-two latency buckets ([2^k, 2^(k+1)) cycles; samples below one
/// cycle land in a [0, 1) bucket). Only non-empty buckets are emitted.
void WriteHistogram(JsonWriter& w, std::vector<double> samples) {
  w.BeginObject();
  w.Key("count").Int(static_cast<std::int64_t>(samples.size()));
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    double sum = 0;
    for (double v : samples) sum += v;
    w.Key("min").Double(samples.front());
    w.Key("mean").Double(sum / static_cast<double>(samples.size()));
    w.Key("p50").Double(SortedPercentile(samples, 50));
    w.Key("p95").Double(SortedPercentile(samples, 95));
    w.Key("p99").Double(SortedPercentile(samples, 99));
    w.Key("max").Double(samples.back());
    // The samples are sorted, so one pass groups them into buckets in
    // increasing-k order (k = -1 is the sub-cycle bucket).
    w.Key("buckets").BeginArray();
    std::size_t i = 0;
    while (i < samples.size()) {
      const double v = samples[i];
      const int k =
          v < 1.0 ? -1
                  : std::bit_width(static_cast<std::uint64_t>(v)) - 1;
      const double lo = k < 0 ? 0.0 : static_cast<double>(std::int64_t{1} << k);
      const double hi = static_cast<double>(std::int64_t{1} << (k + 1));
      std::int64_t count = 0;
      while (i < samples.size() && samples[i] < hi) {
        ++count;
        ++i;
      }
      w.BeginObject();
      w.Key("lo").Double(lo);
      w.Key("hi").Double(hi);
      w.Key("count").Int(count);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
}

/// Memory traffic uses the general transaction generator; translate the
/// scenario injection clauses into its pattern.
ip::TrafficPattern MemoryPattern(const TrafficSpec& traffic) {
  ip::TrafficPattern pattern;
  switch (traffic.inject) {
    case InjectKind::kPeriodic:
      pattern.kind = ip::TrafficPattern::Kind::kFixedPeriod;
      pattern.period = traffic.period;
      break;
    case InjectKind::kBernoulli:
      pattern.kind = ip::TrafficPattern::Kind::kBernoulli;
      pattern.rate = traffic.rate;
      break;
    case InjectKind::kClosedLoop:
      pattern.kind = ip::TrafficPattern::Kind::kClosedLoop;
      break;
    case InjectKind::kBursty:
      AETHEREAL_CHECK_MSG(false, "bursty memory traffic rejected at parse");
  }
  pattern.read_fraction = traffic.read_fraction;
  pattern.burst_words = traffic.mem_burst_words;
  return pattern;
}

/// Collects the monitor's recorded violations, plus the beyond-cap notes.
/// Violations the monitor classified as fault-induced land in
/// `degradations` when it is non-null (network faults armed), in
/// `problems` otherwise.
void AppendMonitorProblems(verify::Monitor* monitor,
                           std::vector<std::string>* problems,
                           std::vector<std::string>* degradations) {
  monitor->Finalize();
  std::int64_t recorded_unexplained = 0;
  std::int64_t recorded_fault = 0;
  for (const verify::Violation& v : monitor->violations()) {
    std::ostringstream oss;
    oss << "[cycle " << v.cycle << "] " << v.check << ": " << v.message;
    if (v.fault_induced && degradations != nullptr) {
      ++recorded_fault;
      degradations->push_back(oss.str());
    } else {
      if (!v.fault_induced) ++recorded_unexplained;
      problems->push_back(oss.str());
    }
  }
  // The recorded list is capped; the per-class counters are not. Surface
  // any overflow on the side it belongs to.
  if (monitor->unexplained_violations() > recorded_unexplained) {
    std::ostringstream oss;
    oss << "monitor recorded "
        << monitor->unexplained_violations() - recorded_unexplained
        << " further unexplained violation(s) beyond the cap";
    problems->push_back(oss.str());
  }
  if (degradations != nullptr &&
      monitor->fault_violations() > recorded_fault) {
    std::ostringstream oss;
    oss << "monitor recorded "
        << monitor->fault_violations() - recorded_fault
        << " further fault-induced violation(s) beyond the cap";
    degradations->push_back(oss.str());
  }
}

/// In-flight allowance for the throughput floor of one GT hop: words
/// legitimately parked in the source and destination queues, the network
/// pipeline, and the current (partial) table rotation at either window
/// boundary.
std::int64_t HopSlackWords(const verify::GtBound& bound, int queue_words) {
  return 2 * static_cast<std::int64_t>(queue_words) +
         static_cast<std::int64_t>(bound.hops + 2) * kFlitWords +
         2 * bound.words_per_rotation + 2 * kFlitWords;
}

/// The latency fields of a phase-window summary (PhaseFlowStats or
/// PhaseResult): exact mean and nearest-rank percentiles of the window's
/// samples, sorted once.
template <typename PhaseSummary>
void SetWindowLatency(const std::vector<double>& sorted, double sum,
                      PhaseSummary* out) {
  out->latency_count = static_cast<std::int64_t>(sorted.size());
  if (sorted.empty()) return;
  out->latency_mean = sum / static_cast<double>(sorted.size());
  out->latency_p50 = SortedPercentile(sorted, 50);
  out->latency_p95 = SortedPercentile(sorted, 95);
  out->latency_p99 = SortedPercentile(sorted, 99);
}

/// Whole-run NI-level aggregates and slot utilization. The NI kernel
/// accounts a slot at every cycle divisible by kFlitWords starting at
/// cycle 0, hence the ceiling division.
void AggregateNiStats(soc::Soc* soc, int num_nis, ScenarioResult* result) {
  for (NiId ni = 0; ni < static_cast<NiId>(num_nis); ++ni) {
    const core::NiKernelStats& stats = soc->ni(ni)->stats();
    result->gt_flits += stats.gt_flits;
    result->be_flits += stats.be_flits;
    result->payload_words_sent += stats.payload_words_sent;
    result->credit_only_packets += stats.credit_only_packets;
    result->credits_piggybacked += stats.credits_piggybacked;
    result->idle_slots += stats.idle_slots;
    result->gt_slots_unused += stats.gt_slots_unused;
  }
  const std::int64_t slot_opportunities =
      static_cast<std::int64_t>(num_nis) *
      ((result->cycles_run + kFlitWords - 1) / kFlitWords);
  result->slot_utilization =
      slot_opportunities > 0
          ? 1.0 -
                static_cast<double>(result->idle_slots) / slot_opportunities
          : 0.0;
}

/// Formats the verify-mode problem list into the run error.
Status VerificationError(const std::string& name,
                         const std::vector<std::string>& problems) {
  std::ostringstream oss;
  oss << "verification failed for scenario '" << name << "' ("
      << problems.size() << " problem(s)):";
  const std::size_t shown = std::min<std::size_t>(problems.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    oss << "\n  " << problems[i];
  }
  if (problems.size() > shown) {
    oss << "\n  ... and " << problems.size() - shown << " more";
  }
  return VerificationFailedError(oss.str());
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}
ScenarioRunner::~ScenarioRunner() = default;

Status ScenarioRunner::BuildTopologyAndSoc(
    const std::vector<std::vector<Flow>>& flows_by_group) {
  // Channels per NI: one per flow endpoint, assigned in directive order
  // (this ordering is part of the scenario's deterministic identity).
  // Phased scenarios additionally provision the configuration plumbing
  // FIRST (lowest connids): one channel per remote NI at the Cfg NI, and
  // one CNIP channel (connid 0) at every other NI.
  std::vector<int> channels(static_cast<std::size_t>(spec_.NumNis()), 0);
  for (std::size_t n = 0; n < channels.size(); ++n) {
    channels[n] = spec_.ConfigChannelsOf(static_cast<NiId>(n));
  }
  for (const auto& flows : flows_by_group) {
    for (const Flow& flow : flows) {
      ++channels[static_cast<std::size_t>(flow.src)];
      ++channels[static_cast<std::size_t>(flow.dst)];
    }
  }
  // The packet header's qid field addresses at most kMaxQueueId + 1
  // channels per NI; over-subscribed NIs previously aborted inside the
  // NI-kernel constructor instead of failing the build.
  for (std::size_t n = 0; n < channels.size(); ++n) {
    if (channels[n] > link::kMaxQueueId + 1) {
      return InvalidArgumentError(
          "ni" + std::to_string(n) + " needs " +
          std::to_string(channels[n]) + " channels, but the header qid "
          "field addresses at most " +
          std::to_string(link::kMaxQueueId + 1) + " per NI");
    }
  }

  topology::Topology topo;
  switch (spec_.topology) {
    case TopologyKind::kStar:
      topo = topology::BuildStar(spec_.dim_a).topology;
      break;
    case TopologyKind::kMesh:
      topo = topology::BuildMesh(spec_.dim_a, spec_.dim_b,
                                 spec_.nis_per_router)
                 .topology;
      break;
    case TopologyKind::kRing:
      topo = topology::BuildRing(spec_.dim_a, spec_.nis_per_router).topology;
      break;
  }
  AETHEREAL_CHECK(topo.NumNis() == spec_.NumNis());

  std::vector<core::NiKernelParams> ni_params;
  for (int count : channels) {
    // NIs no flow touches still get one (idle) channel: the NI kernel is
    // instantiated per NI regardless.
    ni_params.push_back(NiWithChannels(std::max(count, 1), spec_.queue_words,
                                       spec_.stu_slots, "ip"));
  }

  soc::SocOptions options;
  options.net_mhz = spec_.net_mhz;
  options.stu_slots = spec_.stu_slots;
  options.engine = spec_.engine;
  options.verify = spec_.verify;
  options.fault = spec_.fault.has_value() ? &*spec_.fault : nullptr;
  // The obs kill switch: a spec without `stats`/`trace` directives passes
  // null and the Soc builds no hub and registers no tap (DESIGN.md §13).
  options.obs = spec_.obs.Enabled() ? &spec_.obs : nullptr;
  soc_ = std::make_unique<soc::Soc>(std::move(topo), std::move(ni_params),
                                    options);
  return OkStatus();
}

config::ConnectionSpec ScenarioRunner::ConnSpecOfFlow(
    const TrafficSpec& traffic, const Flow& flow, int src_connid,
    int dst_connid) const {
  config::ConnectionSpec conn;
  conn.master = tdm::GlobalChannel{flow.src, src_connid};
  conn.slave = tdm::GlobalChannel{flow.dst, dst_connid};
  conn.request.gt = traffic.gt;
  conn.request.gt_slots = traffic.gt_slots;
  conn.request.data_threshold = traffic.data_threshold;
  conn.request.credit_threshold = traffic.credit_threshold;
  // Stream flows send data one way; the reverse channel only returns
  // credits and stays best-effort. Memory flows carry responses back, so
  // a GT request direction gets a GT response direction too.
  if (traffic.pattern == PatternKind::kMemory) {
    conn.response = conn.request;
  }
  return conn;
}

Status ScenarioRunner::OpenFlowConnection(const TrafficSpec& traffic,
                                          const Flow& flow, int src_connid,
                                          int dst_connid) {
  const config::ConnectionSpec conn =
      ConnSpecOfFlow(traffic, flow, src_connid, dst_connid);
  auto handle = soc_->OpenConnection(conn.master, conn.slave, conn.request,
                                     conn.response);
  if (!handle.ok()) {
    return Status(handle.status().code(),
                  std::string(PatternKindName(traffic.pattern)) + " flow " +
                      std::to_string(flow.src) + "->" +
                      std::to_string(flow.dst) + ": " +
                      handle.status().message());
  }
  return OkStatus();
}

Status ScenarioRunner::Build() {
  if (built_) return OkStatus();

  Rng rng(spec_.seed);
  std::vector<std::vector<Flow>> flows_by_group;
  for (const TrafficSpec& traffic : spec_.traffic) {
    auto flows = ExpandPattern(spec_, traffic, rng);
    if (!flows.ok()) return flows.status();
    flows_by_group.push_back(std::move(*flows));
  }

  if (Status s = BuildTopologyAndSoc(flows_by_group); !s.ok()) return s;

  const bool phased = spec_.Phased();
  if (phased) {
    // The configuration infrastructure of the Fig. 8/9 flow: config shell
    // + connection manager at the Cfg NI, CNIP slave at every other NI,
    // and the scripted driver that will sequence each transition's ops.
    soc::ConfigSetup setup;
    setup.cfg_ni = spec_.cfg_ni;
    setup.cfg_port = 0;
    int cfg_connid = 0;
    for (NiId n = 0; n < static_cast<NiId>(spec_.NumNis()); ++n) {
      if (n == spec_.cfg_ni) continue;
      setup.cfg_connid_of_ni[n] = cfg_connid++;
      setup.cnip_of_ni[n] = {0, 0};  // port 0, connid 0
    }
    config::ConnectionManager* manager = soc_->EnableConfig(setup);
    driver_ = std::make_unique<config::ScriptedConfigDriver>("config_driver",
                                                             manager);
    soc_->RegisterOnPort(driver_.get(), spec_.cfg_ni, 0);
  }

  // Assign connids in directive order (mirrors the channel counting; in a
  // phased scenario the config channels occupy the lowest connids, so
  // flow connids start above them).
  std::vector<int> next_connid(static_cast<std::size_t>(spec_.NumNis()), 0);
  for (std::size_t n = 0; n < next_connid.size(); ++n) {
    next_connid[n] = spec_.ConfigChannelsOf(static_cast<NiId>(n));
  }
  struct Wired {
    Flow flow;
    int src_connid;
    int dst_connid;
  };
  std::vector<std::vector<Wired>> wired_by_group;
  for (std::size_t g = 0; g < flows_by_group.size(); ++g) {
    std::vector<Wired> wired;
    std::vector<config::ConnectionSpec> conns;
    for (const Flow& flow : flows_by_group[g]) {
      Wired w{flow, next_connid[static_cast<std::size_t>(flow.src)]++,
              next_connid[static_cast<std::size_t>(flow.dst)]++};
      if (phased) {
        // Connections of a phased run are opened at runtime, over the NoC,
        // when their phase begins.
        conns.push_back(ConnSpecOfFlow(spec_.traffic[g], flow, w.src_connid,
                                       w.dst_connid));
      } else if (Status s = OpenFlowConnection(spec_.traffic[g], flow,
                                               w.src_connid, w.dst_connid);
                 !s.ok()) {
        return s;
      }
      wired.push_back(w);
    }
    wired_by_group.push_back(std::move(wired));
    conns_by_group_.push_back(std::move(conns));
  }
  open_refs_by_group_.resize(conns_by_group_.size());

  // Instantiate the workload IPs. Per-flow RNG seeds are drawn from the
  // master stream in directive order, after all pattern expansions.
  for (std::size_t g = 0; g < wired_by_group.size(); ++g) {
    const TrafficSpec& traffic = spec_.traffic[g];
    const std::vector<Wired>& wired = wired_by_group[g];
    const std::string tag = "g" + std::to_string(g);
    if (traffic.pattern == PatternKind::kVideo) {
      VideoChain chain;
      chain.group = g;
      chain.chain = traffic.nis;
      for (const Wired& w : wired) {
        chain.hop_flows.push_back(w.flow);
        chain.hop_src_connids.push_back(w.src_connid);
      }
      const Wired& first = wired.front();
      const Wired& last = wired.back();
      chain.source = std::make_unique<PatternSource>(
          tag + "_video_src", soc_->port(first.flow.src, 0), first.src_connid,
          traffic, rng.Next(), /*start_active=*/!phased);
      soc_->RegisterOnPort(chain.source.get(), first.flow.src, 0);
      for (std::size_t hop = 0; hop + 1 < wired.size(); ++hop) {
        const NiId at = wired[hop].flow.dst;
        auto relay = std::make_unique<Relay>(
            tag + "_relay" + std::to_string(hop), soc_->port(at, 0),
            wired[hop].dst_connid, wired[hop + 1].src_connid);
        soc_->RegisterOnPort(relay.get(), at, 0);
        chain.relays.push_back(std::move(relay));
      }
      chain.consumer = std::make_unique<ip::StreamConsumer>(
          tag + "_video_sink", soc_->port(last.flow.dst, 0), last.dst_connid,
          /*drain_per_cycle=*/1, /*timestamp_mode=*/true);
      soc_->RegisterOnPort(chain.consumer.get(), last.flow.dst, 0);
      video_chains_.push_back(std::move(chain));
    } else if (traffic.pattern == PatternKind::kMemory) {
      const Wired& w = wired.front();
      MemoryFlow mem;
      mem.group = g;
      mem.flow = w.flow;
      mem.src_connid = w.src_connid;
      mem.master_shell = std::make_unique<shells::MasterShell>(
          tag + "_master_shell", soc_->port(w.flow.src, 0), w.src_connid);
      mem.master = std::make_unique<ip::TrafficGenMaster>(
          tag + "_master", mem.master_shell.get(), MemoryPattern(traffic),
          rng.Next());
      if (phased) mem.master->Deactivate();
      mem.slave_shell = std::make_unique<shells::SlaveShell>(
          tag + "_slave_shell", soc_->port(w.flow.dst, 0), w.dst_connid);
      mem.memory = std::make_unique<ip::MemorySlave>(
          tag + "_memory", mem.slave_shell.get(), /*base=*/0,
          /*size_words=*/1024);
      soc_->RegisterOnPort(mem.master_shell.get(), w.flow.src, 0);
      soc_->RegisterOnPort(mem.master.get(), w.flow.src, 0);
      soc_->RegisterOnPort(mem.slave_shell.get(), w.flow.dst, 0);
      soc_->RegisterOnPort(mem.memory.get(), w.flow.dst, 0);
      memory_flows_.push_back(std::move(mem));
    } else {
      for (std::size_t f = 0; f < wired.size(); ++f) {
        const Wired& w = wired[f];
        StreamFlow stream;
        stream.group = g;
        stream.flow = w.flow;
        stream.src_connid = w.src_connid;
        const std::string label = tag + "f" + std::to_string(f);
        stream.source = std::make_unique<PatternSource>(
            label + "_src", soc_->port(w.flow.src, 0), w.src_connid, traffic,
            rng.Next(), /*start_active=*/!phased);
        stream.consumer = std::make_unique<ip::StreamConsumer>(
            label + "_sink", soc_->port(w.flow.dst, 0), w.dst_connid,
            /*drain_per_cycle=*/kFlitWords, /*timestamp_mode=*/true);
        soc_->RegisterOnPort(stream.source.get(), w.flow.src, 0);
        soc_->RegisterOnPort(stream.consumer.get(), w.flow.dst, 0);
        stream_flows_.push_back(std::move(stream));
      }
    }
  }

  built_ = true;
  return OkStatus();
}

Result<ScenarioResult> ScenarioRunner::Run() {
  AETHEREAL_CHECK_MSG(!ran_, "ScenarioRunner::Run is single-shot");
  if (Status s = Build(); !s.ok()) return s;
  ran_ = true;

  ScenarioResult result;
  result.spec = spec_;
  std::vector<Window> windows;
  if (spec_.Phased()) {
    if (Status s = RunPhases(&windows, &result); !s.ok()) return s;
  } else {
    windows.push_back(RunStatic());
    if (spec_.converge.enabled) result.convergence = windows.back().conv;
  }
  result.cycles_run = soc_->net_clock()->cycles();
  AssembleFlows(windows, &result);
  AggregateNiStats(soc_.get(), spec_.NumNis(), &result);

  std::vector<std::string> degradations;
  if (spec_.verify) {
    const bool fault_aware =
        spec_.fault.has_value() && spec_.fault->AnyNetworkFaults();
    std::vector<std::string> problems;
    VerifyRun(windows, &problems, fault_aware ? &degradations : nullptr);
    if (!problems.empty()) return VerificationError(spec_.name, problems);
  }
  FillFaultResult(std::move(degradations), &result);
  if (Status s = FinalizeObsIntoResult(&result); !s.ok()) return s;
  return result;
}

std::size_t ScenarioRunner::NumFlows() const {
  return stream_flows_.size() + video_chains_.size() + memory_flows_.size();
}

ScenarioRunner::FlowView ScenarioRunner::ViewOf(std::size_t i) const {
  if (i < stream_flows_.size()) {
    const StreamFlow& f = stream_flows_[i];
    return {"stream", f.group, f.flow.src, f.flow.dst,
            f.consumer->words_read(), f.source->words_written(),
            &f.consumer->latency()};
  }
  i -= stream_flows_.size();
  if (i < video_chains_.size()) {
    const VideoChain& c = video_chains_[i];
    return {"video", c.group, c.chain.front(), c.chain.back(),
            c.consumer->words_read(), c.source->words_written(),
            &c.consumer->latency()};
  }
  const MemoryFlow& m = memory_flows_[i - video_chains_.size()];
  const std::int64_t burst = spec_.traffic[m.group].mem_burst_words;
  return {"memory", m.group, m.flow.src, m.flow.dst,
          m.master->completed() * burst, m.master->issued() * burst,
          &m.master->latency()};
}

ScenarioRunner::Window ScenarioRunner::RunStatic() {
  soc_->RunCycles(spec_.warmup);

  const stats_ctl::ConvergeSpec& cv = spec_.converge;
  Cycle extended = 0;
  bool warm = false;
  if (cv.enabled && cv.auto_warmup) {
    // Welch-style warmup extension: keep settling in short steps until
    // the trailing per-step latency means AND delivered-word counts stop
    // drifting (WarmupDetector's half-vs-half test), or the extension
    // budget (the measured-cycle cap) is spent. The settle step is a
    // quarter of the measurement interval: the detector needs
    // 2 * warmup_windows observations before it can fire at all, and at
    // full-interval steps that alone would exceed the declared duration.
    // All inputs are committed simulation state, so the extension stops
    // at the same cycle on every engine.
    const Cycle interval =
        std::max<Cycle>(cv.IntervalFor(spec_.duration) / 4, 1);
    const Cycle extend_cap = cv.MaxDurationFor(spec_.duration);
    stats_ctl::WarmupDetector det(cv.warmup_windows, cv.warmup_tol);
    auto totals = [&]() {
      std::int64_t count = 0;
      double sum = 0;
      std::int64_t words = 0;
      for (std::size_t i = 0; i < NumFlows(); ++i) {
        const FlowView v = ViewOf(i);
        count += v.latency->count();
        sum += v.latency->Sum();
        words += v.delivered;
      }
      return std::tuple<std::int64_t, double, std::int64_t>(count, sum,
                                                            words);
    };
    auto [pc, ps, pw] = totals();
    while (!det.warm() && extended < extend_cap) {
      const Cycle step = std::min(interval, extend_cap - extended);
      soc_->RunCycles(step);
      extended += step;
      auto [cc, cs, w] = totals();
      const std::int64_t dn = cc - pc;
      det.Observe(dn > 0 ? (cs - ps) / static_cast<double>(dn) : 0.0,
                  static_cast<double>(w - pw));
      pc = cc;
      ps = cs;
      pw = w;
    }
    warm = det.warm();
  }

  Window window = MeasureWindow(-1, spec_.duration);
  window.conv.warmup_detected = warm;
  window.conv.warmup_cycles = spec_.warmup + extended;
  return window;
}

ScenarioRunner::Window ScenarioRunner::MeasureWindow(int k, Cycle duration) {
  Window window;
  window.k = k;
  window.start = soc_->net_clock()->cycles();
  window.cycles = duration;
  // Baselines: until the window closes, each active flow's fields hold its
  // counters at window start. Latency stats stay cumulative; the sample
  // range [first, last) is exactly this window's population.
  window.flows.resize(NumFlows());
  for (std::size_t i = 0; i < window.flows.size(); ++i) {
    const FlowView v = ViewOf(i);
    FlowWindow& fw = window.flows[i];
    fw.active = spec_.traffic[v.group].ActiveIn(k);
    if (!fw.active) continue;
    fw.words = v.delivered;
    fw.admitted = v.admitted;
    fw.first = static_cast<std::size_t>(v.latency->count());
    fw.lat_sum = v.latency->Sum();
    // Verify mode: the guaranteed rate of each active GT stream and video
    // chain under the slot tables in force during THIS window.
    if (spec_.verify && spec_.traffic[v.group].gt &&
        i < stream_flows_.size() + video_chains_.size()) {
      fw.floor = FloorOf(i);
    }
  }

  obs::ObsHub* hub = soc_->obs_hub();
  if (hub != nullptr) {
    hub->NotePhase(obs::kPhaseBegin, window.start, std::max(k, 0));
  }
  const stats_ctl::ConvergeSpec& cv = spec_.converge;
  if (!cv.enabled) {
    soc_->RunCycles(duration);
  } else {
    // Stop-on-convergence window: run in check-interval steps; after each,
    // form the batch-means CI over every latency sample the window's flows
    // recorded since its start (concatenated in flow order). Stop once the
    // interval is trustworthy (valid batches, batch means not strongly
    // lag-1 correlated) AND tight enough, or at the cycle cap. Phases
    // converge independently: their traffic mixes differ, so pooling
    // samples across windows would be meaningless.
    const Cycle interval = cv.IntervalFor(duration);
    const Cycle cap = cv.MaxDurationFor(duration);
    Cycle run = 0;
    std::vector<double> samples;
    while (true) {
      const Cycle step = std::min(interval, cap - run);
      soc_->RunCycles(step);
      run += step;
      samples.clear();
      for (std::size_t i = 0; i < window.flows.size(); ++i) {
        if (!window.flows[i].active) continue;
        const std::vector<double>& all = ViewOf(i).latency->samples();
        samples.insert(samples.end(),
                       all.begin() + static_cast<std::ptrdiff_t>(
                                         window.flows[i].first),
                       all.end());
      }
      window.conv.ci = stats_ctl::BatchMeansCi(samples, 0, samples.size(),
                                               cv.batches, cv.conf);
      if (window.conv.ci.valid && window.conv.ci.rel_err <= cv.rel_err &&
          std::fabs(window.conv.ci.lag1) <= cv.lag1_limit) {
        window.conv.converged = true;
        break;
      }
      if (run >= cap) break;
    }
    window.cycles = run;
    window.conv.measured_cycles = run;
  }
  if (hub != nullptr) {
    hub->NotePhase(obs::kPhaseEnd, soc_->net_clock()->cycles(),
                   std::max(k, 0));
  }

  for (std::size_t i = 0; i < window.flows.size(); ++i) {
    FlowWindow& fw = window.flows[i];
    if (!fw.active) continue;
    const FlowView v = ViewOf(i);
    fw.words = v.delivered - fw.words;
    fw.admitted = v.admitted - fw.admitted;
    fw.last = static_cast<std::size_t>(v.latency->count());
    fw.lat_sum = v.latency->Sum() - fw.lat_sum;
  }
  return window;
}

ScenarioRunner::GtFloor ScenarioRunner::FloorOf(std::size_t i) {
  std::size_t group = 0;
  std::span<const Flow> hops;
  std::span<const int> src_connids;
  if (i < stream_flows_.size()) {
    const StreamFlow& f = stream_flows_[i];
    group = f.group;
    hops = {&f.flow, 1};
    src_connids = {&f.src_connid, 1};
  } else {
    const VideoChain& c = video_chains_[i - stream_flows_.size()];
    group = c.group;
    hops = c.hop_flows;
    src_connids = c.hop_src_connids;
  }
  GtFloor floor;
  floor.armed = true;
  floor.guaranteed_wpc = -1;
  for (std::size_t h = 0; h < hops.size(); ++h) {
    const GtFlowBound hop = BoundOfHop(group, hops[h], src_connids[h]);
    if (floor.guaranteed_wpc < 0 ||
        hop.bound.min_throughput_wpc < floor.guaranteed_wpc) {
      floor.guaranteed_wpc = hop.bound.min_throughput_wpc;
    }
    floor.slack += HopSlackWords(hop.bound, spec_.queue_words);
  }
  return floor;
}

void ScenarioRunner::AssembleFlows(const std::vector<Window>& windows,
                                   ScenarioResult* result) const {
  for (const Window& window : windows) {
    result->measured_cycles += window.cycles;
  }
  const auto measured = static_cast<double>(result->measured_cycles);
  // Flow order groups the flows by kind; results list them by directive.
  std::vector<std::size_t> order(NumFlows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ViewOf(a).group < ViewOf(b).group;
                   });
  for (std::size_t i : order) {
    const FlowView v = ViewOf(i);
    const TrafficSpec& traffic = spec_.traffic[v.group];
    FlowResult r;
    r.pattern = PatternKindName(traffic.pattern);
    r.group = static_cast<int>(v.group);
    r.src = v.src;
    r.dst = v.dst;
    r.gt = traffic.gt;
    r.gt_slots = traffic.gt_slots;
    r.phase = traffic.phase;
    r.persist = traffic.persist;
    r.words_total = v.delivered;
    for (const Window& window : windows) {
      const FlowWindow& fw = window.flows[i];
      if (!fw.active) continue;
      r.words_in_window += fw.words;
      if (window.k < 0) continue;
      PhaseFlowStats ps;
      ps.phase = window.k;
      ps.words = fw.words;
      ps.throughput_wpc =
          static_cast<double>(fw.words) / static_cast<double>(window.cycles);
      if (fw.last > fw.first) {
        SetWindowLatency(v.latency->SortedRange(fw.first, fw.last),
                         fw.lat_sum, &ps);
      }
      r.phase_stats.push_back(ps);
    }
    r.throughput_wpc = static_cast<double>(r.words_in_window) / measured;
    r.latency = Summarize(*v.latency);
    r.latency_samples = v.latency->samples();
    if (traffic.pattern == PatternKind::kMemory) {
      const MemoryFlow& m =
          memory_flows_[i - stream_flows_.size() - video_chains_.size()];
      r.transactions_issued = m.master->issued();
      r.transactions_completed = m.master->completed();
    }
    result->words_in_window += r.words_in_window;
    result->flows.push_back(std::move(r));
  }
  result->throughput_wpc =
      static_cast<double>(result->words_in_window) / measured;
}

GtFlowBound ScenarioRunner::BoundOfHop(std::size_t group, const Flow& flow,
                                       int src_connid) {
  GtFlowBound report;
  report.group = static_cast<int>(group);
  report.src = flow.src;
  report.dst = flow.dst;
  const ChannelId flat =
      soc_->port(flow.src, 0)->GlobalChannelOf(src_connid);
  const tdm::GlobalChannel channel{flow.src, flat};
  auto route = soc_->topology().Route(flow.src, flow.dst);
  AETHEREAL_CHECK(route.ok());  // the connection was opened over it
  const tdm::SlotTable& table = soc_->allocator().TableOf(route->links[0]);
  report.bound = verify::ComputeGtBound(
      table.SlotsOf(channel), spec_.stu_slots,
      static_cast<int>(route->hops.size()),
      soc_->ni(flow.src)->params().max_packet_flits);
  return report;
}

Result<std::vector<GtFlowBound>> ScenarioRunner::ComputeGtBounds() {
  if (spec_.Phased()) {
    return FailedPreconditionError(
        "GT bounds of a phased scenario are phase-dependent (connections "
        "open and close at runtime); run it with verify on instead — the "
        "verified run checks each phase window against the tables then in "
        "force");
  }
  if (Status s = Build(); !s.ok()) return s;
  std::vector<GtFlowBound> bounds;
  for (const StreamFlow& f : stream_flows_) {
    if (!spec_.traffic[f.group].gt) continue;
    bounds.push_back(BoundOfHop(f.group, f.flow, f.src_connid));
  }
  for (const VideoChain& c : video_chains_) {
    if (!spec_.traffic[c.group].gt) continue;
    for (std::size_t h = 0; h < c.hop_flows.size(); ++h) {
      bounds.push_back(
          BoundOfHop(c.group, c.hop_flows[h], c.hop_src_connids[h]));
    }
  }
  for (const MemoryFlow& m : memory_flows_) {
    if (!spec_.traffic[m.group].gt) continue;
    bounds.push_back(BoundOfHop(m.group, m.flow, m.src_connid));
  }
  return bounds;
}


std::vector<std::size_t> ScenarioRunner::ClosingGroupsOf(int phase) const {
  std::vector<std::size_t> groups;
  for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
    if (spec_.traffic[g].phase == phase && !spec_.traffic[g].persist) {
      groups.push_back(g);
    }
  }
  return groups;
}

void ScenarioRunner::SetGroupActive(std::size_t group, bool active,
                                    Cycle now) {
  for (StreamFlow& f : stream_flows_) {
    if (f.group != group) continue;
    if (active) {
      f.source->Activate(now);
    } else {
      f.source->Deactivate();
    }
  }
  for (VideoChain& c : video_chains_) {
    if (c.group != group) continue;
    if (active) {
      c.source->Activate(now);
    } else {
      c.source->Deactivate();
    }
  }
  for (MemoryFlow& m : memory_flows_) {
    if (m.group != group) continue;
    if (active) {
      m.master->Activate(now);
    } else {
      m.master->Deactivate();
    }
  }
}

bool ScenarioRunner::GroupDrained(std::size_t group) const {
  // Every word the (now silent) sources ever wrote must have reached its
  // consumer...
  for (const StreamFlow& f : stream_flows_) {
    if (f.group != group) continue;
    if (f.consumer->words_read() != f.source->words_written()) return false;
  }
  for (const VideoChain& c : video_chains_) {
    if (c.group != group) continue;
    if (c.consumer->words_read() != c.source->words_written()) return false;
  }
  for (const MemoryFlow& m : memory_flows_) {
    if (m.group != group) continue;
    if (m.master->outstanding() != 0) return false;
  }
  // ... and every credit must have returned: each channel's Space counter
  // reads full again (phased directives pin credit_threshold to 1, so no
  // credit can linger below a reporting threshold). Only then can the
  // close disable the channels with nothing of this connection in flight.
  for (const config::ConnectionSpec& conn :
       conns_by_group_[group]) {
    if (soc_->ni(conn.master.ni)->SpaceOf(conn.master.channel) !=
        soc_->DestQueueWordsOf(conn.slave)) {
      return false;
    }
    if (soc_->ni(conn.slave.ni)->SpaceOf(conn.slave.channel) !=
        soc_->DestQueueWordsOf(conn.master)) {
      return false;
    }
  }
  return true;
}

Status ScenarioRunner::RunPhases(std::vector<Window>* windows,
                                 ScenarioResult* result) {
  verify::Monitor* monitor = soc_->monitor();
  obs::ObsHub* obs_hub = soc_->obs_hub();
  shells::ConfigShell* shell = soc_->config_shell();
  AETHEREAL_CHECK(shell != nullptr && driver_ != nullptr);
  auto now = [&] { return soc_->net_clock()->cycles(); };

  for (std::size_t k = 0; k < spec_.phases.size(); ++k) {
    const PhaseSpec& phase = spec_.phases[k];
    TransitionResult tr;
    tr.phase = static_cast<int>(k);
    tr.phase_name = phase.name;
    tr.start_cycle = now();

    // 1. Silence the outgoing phase's non-persistent sources and wait for
    // their traffic (words AND credits) to drain off the NoC.
    const std::vector<std::size_t> closing =
        k > 0 ? ClosingGroupsOf(static_cast<int>(k) - 1)
              : std::vector<std::size_t>{};
    if (!closing.empty()) {
      for (std::size_t g : closing) SetGroupActive(g, false, now());
      const Cycle drain_start = now();
      if (obs_hub != nullptr) {
        obs_hub->NoteConfig(obs::kConfigDrainBegin, drain_start,
                            static_cast<std::int64_t>(k));
      }
      const Cycle deadline = drain_start + spec_.drain_cycles;
      auto drained = [&] {
        for (std::size_t g : closing) {
          if (!GroupDrained(g)) return false;
        }
        return true;
      };
      while (!drained() && now() < deadline) soc_->RunCycles(1);
      if (!drained()) {
        return TimeoutError(
            "phase transition into '" + phase.name +
            "': outgoing traffic failed to drain within " +
            std::to_string(spec_.drain_cycles) +
            " cycles (raise 'drain' or lower the offered load)");
      }
      tr.drain_cycles = now() - drain_start;
      if (obs_hub != nullptr) {
        obs_hub->NoteConfig(obs::kConfigDrainEnd, now(),
                            static_cast<std::int64_t>(k));
      }
    }

    // 2. Reconfigure over the NoC itself: the outgoing phase's closes
    // first, then the incoming phase's opens — the manager serializes the
    // Fig. 9 sequences, so slots freed by the closes are reusable by the
    // opens of the same transition.
    if (monitor != nullptr) monitor->NotePhaseBoundary();
    const Cycle config_start = now();
    const std::int64_t writes0 =
        shell->local_writes() + shell->remote_writes();
    std::vector<std::size_t> batch;
    for (std::size_t g : closing) {
      for (int ref : open_refs_by_group_[g]) {
        batch.push_back(static_cast<std::size_t>(driver_->PushClose(ref)));
        ++tr.closes;
        if (obs_hub != nullptr) {
          obs_hub->NoteConfig(obs::kConfigClose, now(),
                              static_cast<std::int64_t>(g));
        }
      }
    }
    for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
      if (spec_.traffic[g].phase != static_cast<int>(k)) continue;
      for (const config::ConnectionSpec& conn : conns_by_group_[g]) {
        const int ref = driver_->PushOpen(conn);
        open_refs_by_group_[g].push_back(ref);
        batch.push_back(static_cast<std::size_t>(ref));
        ++tr.opens;
        if (obs_hub != nullptr) {
          obs_hub->NoteConfig(obs::kConfigOpen, now(),
                              static_cast<std::int64_t>(g));
        }
      }
    }
    const Cycle config_deadline = now() + spec_.drain_cycles;
    while (!driver_->Done() && now() < config_deadline) soc_->RunCycles(1);
    if (!driver_->Done()) {
      return TimeoutError(
          "phase '" + phase.name +
          "': runtime configuration did not complete within " +
          std::to_string(spec_.drain_cycles) +
          " cycles (the 'drain' directive bounds each transition stage; "
          "raise it" +
          (spec_.fault.has_value() && spec_.fault->AnyConfigFaults() &&
                   !spec_.fault->retry.enabled
               ? ", or enable the fault block's retry policy — config "
                 "faults are armed without recovery"
               : "") +
          ")");
    }
    for (std::size_t i : batch) {
      const config::ScriptedOp& op = driver_->op(i);
      if (!op.error.ok()) {
        return Status(
            op.error.code(),
            "phase '" + phase.name + "': " +
                (op.kind == config::ScriptedOp::Kind::kOpen ? "open"
                                                            : "close") +
                " failed: " + op.error.message());
      }
      if (op.kind == config::ScriptedOp::Kind::kOpen) {
        tr.setup_latency_max = std::max(tr.setup_latency_max, op.Latency());
        tr.slots_allocated += op.slots_delta;
      } else {
        tr.teardown_latency_max =
            std::max(tr.teardown_latency_max, op.Latency());
        tr.slots_reclaimed += op.slots_delta;
      }
    }
    tr.config_cycles = now() - config_start;
    tr.config_messages =
        shell->local_writes() + shell->remote_writes() - writes0;
    result->transitions.push_back(std::move(tr));

    // 3. Switch the incoming phase's sources on and let the new use case
    // settle before measuring.
    for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
      if (spec_.traffic[g].phase == static_cast<int>(k)) {
        SetGroupActive(g, true, now());
      }
    }
    const Cycle settle = (k == 0 ? spec_.warmup : Cycle{0}) + phase.warmup;
    soc_->RunCycles(settle);

    // 4. The measured window, summarized over the merged samples of every
    // flow active in it. Phases keep their declared warmups under
    // `converge` — reconfiguration transients are what they are for.
    windows->push_back(MeasureWindow(static_cast<int>(k), phase.duration));
    Window& window = windows->back();
    window.conv.warmup_cycles = settle;
    PhaseResult pr;
    pr.name = phase.name;
    pr.window_start = window.start;
    pr.duration = window.cycles;
    std::vector<double> samples;
    double lat_sum = 0;
    for (std::size_t i = 0; i < window.flows.size(); ++i) {
      const FlowWindow& fw = window.flows[i];
      if (!fw.active) continue;
      pr.words_in_window += fw.words;
      if (fw.last == fw.first) continue;
      const std::vector<double>& all = ViewOf(i).latency->samples();
      samples.insert(samples.end(),
                     all.begin() + static_cast<std::ptrdiff_t>(fw.first),
                     all.begin() + static_cast<std::ptrdiff_t>(fw.last));
      lat_sum += fw.lat_sum;
    }
    pr.throughput_wpc = static_cast<double>(pr.words_in_window) /
                        static_cast<double>(pr.duration);
    std::sort(samples.begin(), samples.end());
    SetWindowLatency(samples, lat_sum, &pr);
    if (spec_.converge.enabled) pr.convergence = window.conv;
    result->phases.push_back(std::move(pr));
  }

  if (spec_.converge.enabled) {
    // Roll-up: the run converged iff every window did; the per-window CIs
    // stay on their PhaseResults (phase 0's warmup_cycles already carries
    // the scenario-level warmup, so the sum is the total settle time).
    stats_ctl::ConvergenceOutcome conv;
    conv.converged = true;
    for (const Window& window : *windows) {
      conv.converged = conv.converged && window.conv.converged;
      conv.warmup_cycles += window.conv.warmup_cycles;
      conv.measured_cycles += window.cycles;
    }
    result->convergence = conv;
  }
  return OkStatus();
}

void ScenarioRunner::VerifyRun(const std::vector<Window>& windows,
                               std::vector<std::string>* problems,
                               std::vector<std::string>* degradations) {
  verify::Monitor* monitor = soc_->monitor();
  AETHEREAL_CHECK(monitor != nullptr);
  AppendMonitorProblems(monitor, problems, degradations);

  // Analytical GT guarantees: over every window, each GT flow must deliver
  // whatever it admitted, or at least the guaranteed rate of the slot
  // tables in force during the window, minus a bounded in-flight
  // allowance. Armed network faults legitimately eat into the floor (and
  // NI stalls stretch word latency), so with `degradations` set those
  // shortfalls degrade instead of fail.
  std::vector<std::string>* gt_sink =
      degradations != nullptr ? degradations : problems;
  for (const Window& window : windows) {
    const std::string where =
        window.k < 0 ? "in the window"
                     : "in phase '" + spec_.phases[window.k].name + "'";
    for (std::size_t i = 0; i < window.flows.size(); ++i) {
      const FlowWindow& fw = window.flows[i];
      if (!fw.floor.armed) continue;
      const auto guaranteed = static_cast<std::int64_t>(
          fw.floor.guaranteed_wpc * static_cast<double>(window.cycles));
      if (fw.words >= std::min(fw.admitted, guaranteed) - fw.floor.slack) {
        continue;
      }
      const FlowView v = ViewOf(i);
      std::ostringstream oss;
      oss << "gt-throughput: " << v.what << " g" << v.group << " " << v.src
          << "->" << v.dst << " delivered " << fw.words << " words " << where
          << "; floor is min(admitted " << fw.admitted << ", guaranteed "
          << guaranteed << ") - slack " << fw.floor.slack;
      gt_sink->push_back(oss.str());
    }
  }

  // The end-to-end (Write-to-Read) latency bound of static runs is
  // table-derivable only when the credit loop provably cannot bind: stream
  // credits return as best-effort packets, so any BE directive in the
  // scenario can delay them arbitrarily and stretch end-to-end latency
  // without violating any GT guarantee (the per-flit network timing is
  // checked unconditionally by the monitor). With only GT directives,
  // every reverse path carries at most a trickle of credit-only flits,
  // bounded by one table rotation of jitter.
  const bool latency_bounded =
      !spec_.Phased() &&
      std::all_of(spec_.traffic.begin(), spec_.traffic.end(),
                  [](const TrafficSpec& t) { return t.gt; });
  for (const StreamFlow& f : stream_flows_) {
    const TrafficSpec& traffic = spec_.traffic[f.group];
    // The per-word latency bound applies when each word provably finds an
    // empty source queue and full credit: periodic injection at most once
    // per table rotation, unmodified thresholds, a queue deep enough to
    // ride out the credit round trip, and no BE directive that could
    // starve the credit return (see above).
    if (!latency_bounded || !traffic.gt ||
        traffic.inject != InjectKind::kPeriodic ||
        traffic.period <
            static_cast<std::int64_t>(spec_.stu_slots) * kFlitWords ||
        traffic.data_threshold != 1 || traffic.credit_threshold != 1 ||
        spec_.queue_words < 4 || f.consumer->latency().count() == 0) {
      continue;
    }
    // One rotation of margin absorbs credit-return and BE-arbitration
    // jitter among the (all-GT) companion flows.
    const GtFlowBound hop = BoundOfHop(f.group, f.flow, f.src_connid);
    const Cycle bound = hop.bound.worst_case_latency +
                        static_cast<Cycle>(spec_.stu_slots) * kFlitWords;
    const double measured = f.consumer->latency().Max();
    if (measured > static_cast<double>(bound)) {
      std::ostringstream oss;
      oss << "gt-latency: stream g" << f.group << " " << f.flow.src << "->"
          << f.flow.dst << " saw a word latency of " << measured
          << " cycles; the slot tables bound it by " << bound
          << " (max gap " << hop.bound.max_gap_slots << " slots, "
          << hop.bound.hops << " hops, one rotation of credit jitter)";
      gt_sink->push_back(oss.str());
    }
  }

  for (const MemoryFlow& m : memory_flows_) {
    if (m.master->completed() > m.master->issued()) {
      std::ostringstream oss;
      oss << "transaction-ordering: memory g" << m.group << " completed "
          << m.master->completed() << " transactions but only issued "
          << m.master->issued();
      problems->push_back(oss.str());
    }
  }

  // Best-effort sanity: a consumer can never read more than its producer
  // wrote (whole-run totals; flit integrity is the monitor's job).
  for (const StreamFlow& f : stream_flows_) {
    if (f.consumer->words_read() > f.source->words_written()) {
      std::ostringstream oss;
      oss << "flit-integrity: stream g" << f.group << " " << f.flow.src
          << "->" << f.flow.dst << " read " << f.consumer->words_read()
          << " words but the source only wrote " << f.source->words_written();
      problems->push_back(oss.str());
    }
  }
}

void ScenarioRunner::FillFaultResult(std::vector<std::string> degradations,
                                     ScenarioResult* result) {
  if (!spec_.fault.has_value() || !spec_.fault->Enabled()) return;
  const fault::FaultInjector* injector = soc_->fault_injector();
  AETHEREAL_CHECK(injector != nullptr);

  FaultResult fr;
  fr.seed = spec_.fault->seed;
  fr.flits_corrupted = injector->flits_corrupted();
  fr.link_packets_dropped = injector->link_packets_dropped();
  fr.link_words_dropped = injector->link_words_dropped();
  fr.router_stall_packets_dropped = injector->router_stall_packets_dropped();
  fr.router_stall_words_dropped = injector->router_stall_words_dropped();
  fr.config_requests_dropped = injector->config_requests_dropped();
  fr.config_requests_delayed = injector->config_requests_delayed();
  if (config::ConnectionManager* manager = soc_->manager()) {
    fr.config_ack_timeouts = manager->ack_timeouts();
    fr.config_write_retries = manager->writes_retried();
  }
  if (verify::Monitor* monitor = soc_->monitor()) {
    fr.monitor_fault_violations = monitor->fault_violations();
    fr.monitor_unexplained_violations = monitor->unexplained_violations();
    fr.monitor_corrupted_flits = monitor->fault_corrupted_flits();
    fr.monitor_lost_flits = monitor->fault_lost_flits();
    fr.monitor_lost_words = monitor->fault_lost_words();
    fr.gt_words_offered = monitor->gt_words_sent();
    fr.gt_words_delivered = monitor->gt_words_delivered();
    fr.gt_recovery_ratio =
        fr.gt_words_offered > 0
            ? static_cast<double>(fr.gt_words_delivered) /
                  static_cast<double>(fr.gt_words_offered)
            : 1.0;
  }
  fr.degradations = std::move(degradations);
  for (const fault::FaultInjector::Event& event : injector->events()) {
    fr.events.push_back(FaultEventRecord{event.cycle, event.kind, event.site});
  }
  fr.events_total = injector->events_total();
  result->fault = std::move(fr);
}

namespace {

/// Maps the fault injector's event-kind strings onto trace event codes.
std::uint16_t FaultTraceCode(const std::string& kind) {
  if (kind == "link-corrupt") return obs::kFaultCorrupt;
  if (kind == "link-drop") return obs::kFaultDrop;
  if (kind == "router-stall-drop") return obs::kFaultRouterFreeze;
  if (kind == "config-drop") return obs::kFaultConfigDrop;
  if (kind == "config-delay") return obs::kFaultConfigDelay;
  return obs::kFaultNiStall;
}

}  // namespace

Status ScenarioRunner::FinalizeObsIntoResult(ScenarioResult* result) {
  obs::ObsHub* hub = soc_->obs_hub();
  if (hub == nullptr) return OkStatus();
  // Mirror the recorded fault events into the trace (their site strings
  // stay in the result's fault.events; the trace carries cycle + kind).
  if (result->fault.has_value()) {
    for (std::size_t i = 0; i < result->fault->events.size(); ++i) {
      const FaultEventRecord& event = result->fault->events[i];
      hub->NoteFault(FaultTraceCode(event.kind), event.cycle,
                     static_cast<std::int64_t>(i), 0);
    }
  }
  soc_->FinalizeObs();
  if (spec_.obs.SamplingEnabled()) {
    result->obs_stats = hub->StatsSnapshot();
  }
  if (!hub->WriteTraceFile()) {
    return FailedPreconditionError("cannot write trace file '" +
                                   spec_.obs.trace_path + "'");
  }
  return OkStatus();
}

std::string ScenarioResult::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  // Fixed-duration documents keep schema_version 2 byte-for-byte; the
  // version moves to 3 exactly when the optional `convergence` sections
  // are present (opt-in `converge` runs).
  w.Key("schema_version").Int(convergence.has_value() ? 3 : 2);
  w.Key("scenario").String(spec.name);
  w.Key("topology").BeginObject();
  w.Key("kind").String(TopologyKindName(spec.topology));
  w.Key("dims").BeginArray();
  w.Int(spec.dim_a);
  if (spec.topology == TopologyKind::kMesh) w.Int(spec.dim_b);
  if (spec.topology != TopologyKind::kStar) w.Int(spec.nis_per_router);
  w.EndArray();
  w.Key("nis").Int(spec.NumNis());
  w.EndObject();
  w.Key("stu_slots").Int(spec.stu_slots);
  w.Key("net_mhz").Double(spec.net_mhz);
  w.Key("queue_words").Int(spec.queue_words);
  w.Key("seed").Int(static_cast<std::int64_t>(spec.seed));
  w.Key("warmup").Int(spec.warmup);
  w.Key("duration").Int(spec.TotalDuration());
  w.Key("cycles_run").Int(cycles_run);
  if (spec.Phased()) {
    w.Key("cfg_ni").Int(spec.cfg_ni);
    w.Key("phases").BeginArray();
    for (std::size_t k = 0; k < phases.size(); ++k) {
      const PhaseResult& phase = phases[k];
      w.BeginObject();
      w.Key("phase").Int(static_cast<std::int64_t>(k));
      w.Key("name").String(phase.name);
      w.Key("window_start").Int(phase.window_start);
      w.Key("duration").Int(phase.duration);
      w.Key("words_in_window").Int(phase.words_in_window);
      w.Key("throughput_wpc").Double(phase.throughput_wpc);
      w.Key("latency_count").Int(phase.latency_count);
      if (phase.latency_count > 0) {
        w.Key("latency_mean").Double(phase.latency_mean);
        w.Key("latency_p50").Double(phase.latency_p50);
        w.Key("latency_p95").Double(phase.latency_p95);
        w.Key("latency_p99").Double(phase.latency_p99);
      }
      if (phase.convergence.has_value()) {
        w.Key("convergence");
        stats_ctl::WriteConvergenceJson(w, *phase.convergence);
      }
      w.EndObject();
    }
    w.EndArray();
    w.Key("transitions").BeginArray();
    for (const TransitionResult& tr : transitions) {
      w.BeginObject();
      w.Key("into_phase").Int(tr.phase);
      w.Key("name").String(tr.phase_name);
      w.Key("start_cycle").Int(tr.start_cycle);
      w.Key("drain_cycles").Int(tr.drain_cycles);
      w.Key("config_cycles").Int(tr.config_cycles);
      w.Key("closes").Int(tr.closes);
      w.Key("opens").Int(tr.opens);
      w.Key("teardown_latency_max").Int(tr.teardown_latency_max);
      w.Key("setup_latency_max").Int(tr.setup_latency_max);
      w.Key("config_messages").Int(tr.config_messages);
      w.Key("slots_reclaimed").Int(tr.slots_reclaimed);
      w.Key("slots_allocated").Int(tr.slots_allocated);
      w.EndObject();
    }
    w.EndArray();
  }
  w.Key("flows").BeginArray();
  for (const FlowResult& flow : flows) {
    w.BeginObject();
    w.Key("pattern").String(flow.pattern);
    w.Key("group").Int(flow.group);
    w.Key("src").Int(flow.src);
    w.Key("dst").Int(flow.dst);
    w.Key("qos").String(flow.gt ? "gt" : "be");
    if (flow.gt) w.Key("gt_slots").Int(flow.gt_slots);
    w.Key("words_total").Int(flow.words_total);
    w.Key("words_in_window").Int(flow.words_in_window);
    w.Key("throughput_wpc").Double(flow.throughput_wpc);
    if (flow.pattern == PatternKindName(PatternKind::kMemory)) {
      w.Key("transactions").BeginObject();
      w.Key("issued").Int(flow.transactions_issued);
      w.Key("completed").Int(flow.transactions_completed);
      w.EndObject();
    }
    if (spec.Phased()) {
      w.Key("phase").Int(flow.phase);
      if (flow.persist) w.Key("persist").Bool(true);
      w.Key("phase_stats").BeginArray();
      for (const PhaseFlowStats& ps : flow.phase_stats) {
        w.BeginObject();
        w.Key("phase").Int(ps.phase);
        w.Key("words").Int(ps.words);
        w.Key("throughput_wpc").Double(ps.throughput_wpc);
        w.Key("latency_count").Int(ps.latency_count);
        if (ps.latency_count > 0) {
          w.Key("latency_mean").Double(ps.latency_mean);
          w.Key("latency_p50").Double(ps.latency_p50);
          w.Key("latency_p95").Double(ps.latency_p95);
          w.Key("latency_p99").Double(ps.latency_p99);
        }
        w.EndObject();
      }
      w.EndArray();
    }
    w.Key("latency");
    WriteLatency(w, flow.latency);
    w.EndObject();
  }
  w.EndArray();
  w.Key("aggregate").BeginObject();
  w.Key("words_in_window").Int(words_in_window);
  w.Key("throughput_wpc").Double(throughput_wpc);
  w.Key("gt_flits").Int(gt_flits);
  w.Key("be_flits").Int(be_flits);
  w.Key("payload_words_sent").Int(payload_words_sent);
  w.Key("credit_only_packets").Int(credit_only_packets);
  w.Key("credits_piggybacked").Int(credits_piggybacked);
  w.Key("idle_slots").Int(idle_slots);
  w.Key("gt_slots_unused").Int(gt_slots_unused);
  w.Key("slot_utilization").Double(slot_utilization);
  w.EndObject();
  // Latency histograms (DESIGN.md §13): flit latency per traffic class
  // (stream + video flows) and transaction round-trip latency (memory
  // flows), merged over the whole run from the flows' exact samples.
  {
    std::vector<double> all, gt, be, txn;
    for (const FlowResult& flow : flows) {
      if (flow.pattern == PatternKindName(PatternKind::kMemory)) {
        txn.insert(txn.end(), flow.latency_samples.begin(),
                   flow.latency_samples.end());
        continue;
      }
      all.insert(all.end(), flow.latency_samples.begin(),
                 flow.latency_samples.end());
      std::vector<double>& cls = flow.gt ? gt : be;
      cls.insert(cls.end(), flow.latency_samples.begin(),
                 flow.latency_samples.end());
    }
    w.Key("histograms").BeginObject();
    w.Key("flit_latency").BeginObject();
    w.Key("all");
    WriteHistogram(w, std::move(all));
    w.Key("gt");
    WriteHistogram(w, std::move(gt));
    w.Key("be");
    WriteHistogram(w, std::move(be));
    w.EndObject();
    w.Key("transaction_latency");
    WriteHistogram(w, std::move(txn));
    w.EndObject();
  }
  if (obs_stats.has_value()) {
    w.Key("stats");
    obs::WriteStatsJson(w, *obs_stats);
  }
  if (convergence.has_value()) {
    w.Key("convergence");
    stats_ctl::WriteConvergenceJson(w, *convergence);
  }
  if (fault.has_value()) {
    const FaultResult& f = *fault;
    w.Key("fault").BeginObject();
    w.Key("seed").Int(static_cast<std::int64_t>(f.seed));
    w.Key("flits_corrupted").Int(f.flits_corrupted);
    w.Key("link_packets_dropped").Int(f.link_packets_dropped);
    w.Key("link_words_dropped").Int(f.link_words_dropped);
    w.Key("router_stall_packets_dropped").Int(f.router_stall_packets_dropped);
    w.Key("router_stall_words_dropped").Int(f.router_stall_words_dropped);
    w.Key("config_requests_dropped").Int(f.config_requests_dropped);
    w.Key("config_requests_delayed").Int(f.config_requests_delayed);
    w.Key("config_ack_timeouts").Int(f.config_ack_timeouts);
    w.Key("config_write_retries").Int(f.config_write_retries);
    if (spec.verify) {
      w.Key("monitor").BeginObject();
      w.Key("fault_violations").Int(f.monitor_fault_violations);
      w.Key("unexplained_violations").Int(f.monitor_unexplained_violations);
      w.Key("corrupted_flits").Int(f.monitor_corrupted_flits);
      w.Key("lost_flits").Int(f.monitor_lost_flits);
      w.Key("lost_words").Int(f.monitor_lost_words);
      w.EndObject();
      w.Key("gt_words_offered").Int(f.gt_words_offered);
      w.Key("gt_words_delivered").Int(f.gt_words_delivered);
      w.Key("gt_recovery_ratio").Double(f.gt_recovery_ratio);
    }
    w.Key("degradations").BeginArray();
    for (const std::string& d : f.degradations) w.String(d);
    w.EndArray();
    w.Key("events").BeginArray();
    for (const FaultEventRecord& event : f.events) {
      w.BeginObject();
      w.Key("cycle").Int(event.cycle);
      w.Key("kind").String(event.kind);
      w.Key("site").String(event.site);
      w.EndObject();
    }
    w.EndArray();
    w.Key("events_total").Int(f.events_total);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

}  // namespace aethereal::scenario

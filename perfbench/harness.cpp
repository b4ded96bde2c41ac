// Benchmark harness: runs one generated workload through the simulator's
// public API for a fixed host-time budget, times each layer from outside
// (spans around the calls into it), checks the outputs, and prints one
// JSON object: the metrics with their units, the output checks, and the
// attempted/failed run counts.
//
//   perfbench_harness --kind scenario|sweep --spec FILE --short FILE
//                     --seconds S --trace 0|1 --jobs N
//
// --trace 0 measures the end-to-end metrics with nothing armed; --trace 1
// alternates untraced and traced repetitions (engine profiling plus the
// `stats` counters) and reports the per-layer metrics. run.py builds this
// program, generates the specs and formats the final result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ni_kernel.h"
#include "obs/hub.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/json.h"
#include "verify/monitor.h"

namespace {

using namespace aethereal;
using SteadyClock = std::chrono::steady_clock;

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]), the simulator's own convention.
double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Simulated kilocycles per host second.
double Kcps(double cycles, double seconds) {
  return Ratio(cycles, seconds) / 1e3;
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

struct Options {
  std::string kind;
  std::string spec;
  std::string short_spec;
  double seconds = 10;
  bool trace = false;
  int jobs = 1;
};

/// What a run prints: metrics in emission order, checks, run counts.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Every run (a sweep: each of its points) and every output check is an
  /// attempt; a failed run or check counts once.
  void Attempt(bool ok, const std::string& what, std::int64_t runs = 1) {
    attempted_ += std::max<std::int64_t>(runs, 1);
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: FAILED " << what << "\n";
    }
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    Attempt(ok, "check " + name + ": " + detail);
  }

  /// One line of JSON; metric values keep every digit (%.17g).
  std::string ToJson() const {
    std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) +
                      ", \"compiler\": \"" + JsonWriter::Escape(__VERSION__) +
                      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
    out += ", \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      const CheckEntry& c = checks_[i];
      out += (i ? ", " : "") + std::string("{\"name\": \"") + c.name +
             "\", \"ok\": " + (c.ok ? "true" : "false") +
             ", \"detail\": \"" + JsonWriter::Escape(c.detail) + "\"}";
    }
    out += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const MetricEntry& m = metrics_[i];
      char value[32];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      out += (i ? ", " : "") + std::string("\"") + m.name +
             "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct MetricEntry {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<MetricEntry> metrics_;
  std::vector<CheckEntry> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- per-layer counters -----------------------------------------------------

/// Host time per engine stage plus simulated per-layer counts, summed
/// over every traced simulation of a repetition (one scenario, or every
/// point of a sweep).
struct LayerCounts {
  sim::EngineProfile profile;
  std::int64_t router_gt_flits = 0;
  std::int64_t router_be_flits = 0;
  std::int64_t router_be_blocked_credit = 0;
  std::int64_t router_be_blocked_gt = 0;
  std::int64_t router_be_max_occupancy = 0;
  std::int64_t link_busy_slots = 0;
  std::int64_t link_credit_slots = 0;
  std::int64_t link_slots = 0;
  std::int64_t ni_gt_flits = 0;
  std::int64_t ni_be_flits = 0;
  std::int64_t ni_payload_words = 0;
  std::int64_t ni_packets = 0;
  std::int64_t ni_credit_only_packets = 0;
  std::int64_t ni_credits_piggybacked = 0;
  std::int64_t ni_gt_slots_unused = 0;
  double ni_slot_utilization_sum = 0;
  int simulations = 0;
  int ni_source_queue_hwm_max = 0;
  int ni_dest_queue_hwm_max = 0;
  std::int64_t tx_issued = 0;
  std::int64_t tx_completed = 0;
  std::vector<double> tx_latency;
  std::int64_t config_transitions = 0;
  std::int64_t config_messages = 0;
  std::int64_t config_cycles_total = 0;
  std::int64_t config_cycles_max = 0;
  std::int64_t config_setup_max = 0;
  std::int64_t config_teardown_max = 0;
  std::int64_t config_drain_max = 0;
  std::int64_t tdm_slots_allocated = 0;
  std::int64_t tdm_slots_reclaimed = 0;

  void Add(scenario::ScenarioRunner& runner,
           const scenario::ScenarioResult& result) {
    const sim::EngineProfile& p = runner.soc()->sim().profile();
    profile.steps += p.steps;
    profile.evaluate_sec += p.evaluate_sec;
    profile.commit_sec += p.commit_sec;
    profile.park_wake_sec += p.park_wake_sec;
    if (result.obs_stats.has_value()) {
      for (const obs::RouterObservation& r : result.obs_stats->routers) {
        router_gt_flits += r.gt_flits;
        router_be_flits += r.be_flits;
        router_be_blocked_credit += r.be_blocked_credit;
        router_be_blocked_gt += r.be_blocked_gt;
        router_be_max_occupancy =
            std::max(router_be_max_occupancy, r.be_max_occupancy);
      }
      for (const obs::LinkCounters& l : result.obs_stats->links) {
        link_busy_slots += l.gt_flits + l.be_flits;
        link_credit_slots += l.credit_slots;
        link_slots += l.gt_flits + l.be_flits + l.idle_slots;
      }
      for (const obs::NiObservation& n : result.obs_stats->nis) {
        ni_source_queue_hwm_max =
            std::max(ni_source_queue_hwm_max, n.source_queue_hwm);
        ni_dest_queue_hwm_max =
            std::max(ni_dest_queue_hwm_max, n.dest_queue_hwm);
      }
    }
    for (int id = 0; id < result.spec.NumNis(); ++id) {
      const core::NiKernelStats& s = runner.soc()->ni(id)->stats();
      ni_packets += s.gt_packets + s.be_packets;
    }
    ni_gt_flits += result.gt_flits;
    ni_be_flits += result.be_flits;
    ni_payload_words += result.payload_words_sent;
    ni_credit_only_packets += result.credit_only_packets;
    ni_credits_piggybacked += result.credits_piggybacked;
    ni_gt_slots_unused += result.gt_slots_unused;
    ni_slot_utilization_sum += result.slot_utilization;
    ++simulations;
    for (const scenario::FlowResult& f : result.flows) {
      if (f.pattern != "memory") continue;
      tx_issued += f.transactions_issued;
      tx_completed += f.transactions_completed;
      tx_latency.insert(tx_latency.end(), f.latency_samples.begin(),
                        f.latency_samples.end());
    }
    for (const scenario::TransitionResult& t : result.transitions) {
      ++config_transitions;
      config_messages += t.config_messages;
      config_cycles_total += t.config_cycles;
      config_cycles_max =
          std::max<std::int64_t>(config_cycles_max, t.config_cycles);
      config_setup_max =
          std::max<std::int64_t>(config_setup_max, t.setup_latency_max);
      config_teardown_max =
          std::max<std::int64_t>(config_teardown_max, t.teardown_latency_max);
      config_drain_max =
          std::max<std::int64_t>(config_drain_max, t.drain_cycles);
      tdm_slots_allocated += t.slots_allocated;
      tdm_slots_reclaimed += t.slots_reclaimed;
    }
  }

  void Emit(Report* r) const {
    const double gt_slots =
        static_cast<double>(ni_gt_flits + ni_gt_slots_unused);
    r->Metric("router.gt_flits", router_gt_flits, "count");
    r->Metric("router.be_flits", router_be_flits, "count");
    r->Metric("router.be_blocked_credit", router_be_blocked_credit, "count");
    r->Metric("router.be_blocked_gt", router_be_blocked_gt, "count");
    r->Metric("router.be_max_occupancy", router_be_max_occupancy, "flits");
    r->Metric("link.utilization", Ratio(link_busy_slots, link_slots), "frac");
    r->Metric("link.credit_slot_frac", Ratio(link_credit_slots, link_slots),
              "frac");
    r->Metric("ni.gt_flits", ni_gt_flits, "count");
    r->Metric("ni.be_flits", ni_be_flits, "count");
    r->Metric("ni.payload_words", ni_payload_words, "count");
    r->Metric("ni.credit_only_packets", ni_credit_only_packets, "count");
    r->Metric("ni.credits_piggybacked", ni_credits_piggybacked, "count");
    r->Metric("ni.gt_slot_waste_frac", Ratio(ni_gt_slots_unused, gt_slots),
              "frac");
    r->Metric("ni.credit_only_frac", Ratio(ni_credit_only_packets, ni_packets),
              "frac");
    r->Metric("ni.slot_utilization",
              Ratio(ni_slot_utilization_sum, simulations), "frac");
    r->Metric("ni.source_queue_hwm_max", ni_source_queue_hwm_max, "words");
    r->Metric("ni.dest_queue_hwm_max", ni_dest_queue_hwm_max, "words");
    r->Metric("transaction.issued", tx_issued, "count");
    r->Metric("transaction.completed", tx_completed, "count");
    r->Metric("transaction.completion_frac", Ratio(tx_completed, tx_issued),
              "frac");
    r->Metric("transaction.latency_p50_cycles", NearestRank(tx_latency, 0.50),
              "cycles");
    r->Metric("transaction.latency_p99_cycles", NearestRank(tx_latency, 0.99),
              "cycles");
    r->Metric("config.transitions", config_transitions, "count");
    r->Metric("config.messages", config_messages, "count");
    r->Metric("config.cycles_total", config_cycles_total, "cycles");
    r->Metric("config.reconfig_cycles_max", config_cycles_max, "cycles");
    r->Metric("config.setup_latency_max", config_setup_max, "cycles");
    r->Metric("config.teardown_latency_max", config_teardown_max, "cycles");
    r->Metric("config.drain_cycles_max", config_drain_max, "cycles");
    r->Metric("tdm.slots_allocated", tdm_slots_allocated, "count");
    r->Metric("tdm.slots_reclaimed", tdm_slots_reclaimed, "count");
  }
};

/// Engine-stage split of `run_s` seconds of Run() over `counts`.
void EmitSimStages(const LayerCounts& counts, double run_s, Report* r) {
  const sim::EngineProfile& p = counts.profile;
  r->Metric("sim.steps", static_cast<double>(p.steps), "count");
  r->Metric("sim.evaluate_s", p.evaluate_sec, "s");
  r->Metric("sim.commit_s", p.commit_sec, "s");
  r->Metric("sim.park_wake_s", p.park_wake_sec, "s");
  r->Metric("sim.other_s",
            run_s - p.evaluate_sec - p.commit_sec - p.park_wake_sec, "s");
  r->Metric("sim.ns_per_step",
            1e9 * Ratio(run_s, static_cast<double>(p.steps)), "ns");
}

// --- scenario workloads -----------------------------------------------------

/// How a run is armed. Tracing never changes simulated results; the
/// verify-off variant drops the spec's `verify on` (also result-neutral).
struct Arming {
  bool traced = false;
  bool verify_off = false;
  std::optional<sim::EngineConfig> engine;
};

/// Window of the armed `stats` counters: one slot-table rotation's worth
/// of slots at the largest table size (a multiple of the 3-cycle slot).
constexpr Cycle kSampleEvery = 3 * 32;

struct ScenarioRep {
  double parse_s = 0, build_s = 0, run_s = 0, emit_s = 0, wall_s = 0;
  Cycle cycles_run = 0;
  std::int64_t violations = 0;  // monitor total, failed runs included
  /// Hash of the result JSON without the traced-only `stats` section.
  std::uint64_t hash = 0;
  // Kept only when asked for, so retained results do not grow peak RSS.
  std::string json;
  std::optional<scenario::ScenarioResult> result;
  LayerCounts layers;  // traced repetitions only
};

Status RunScenarioOnce(const std::string& path, const Arming& arm, bool keep,
                       ScenarioRep* rep) {
  const auto t0 = SteadyClock::now();
  auto spec = scenario::LoadScenarioFile(path);
  if (!spec.ok()) return spec.status();
  if (arm.traced) spec->obs.sample_every = kSampleEvery;
  if (arm.engine) spec->engine = *arm.engine;
  rep->parse_s = Since(t0);

  const auto t1 = SteadyClock::now();
  scenario::ScenarioRunner runner(std::move(*spec));
  if (Status s = runner.Build(); !s.ok()) return s;
  rep->build_s = Since(t1);

  if (arm.traced) runner.soc()->sim().EnableProfiling();
  const auto t2 = SteadyClock::now();
  auto result = runner.Run();
  rep->run_s = Since(t2);
  if (const verify::Monitor* m = runner.soc()->monitor()) {
    rep->violations = m->total_violations();
  }
  if (!result.ok()) return result.status();

  const auto t3 = SteadyClock::now();
  std::string json = result->ToJson();
  rep->emit_s = Since(t3);
  rep->wall_s = Since(t0);

  rep->cycles_run = result->cycles_run;
  if (arm.traced) {
    rep->layers.Add(runner, *result);
    result->obs_stats.reset();
    json = result->ToJson();
  }
  rep->hash = Fnv1a(json);
  if (keep) {
    rep->json = std::move(json);
    rep->result = std::move(*result);
  }
  return OkStatus();
}

struct LatencyClasses {
  std::vector<double> gt, be;
};

/// Per-word stream latency samples split by service class (memory flows
/// report transaction round trips and are counted per layer instead).
LatencyClasses StreamLatencies(const scenario::ScenarioResult& result) {
  LatencyClasses c;
  for (const scenario::FlowResult& f : result.flows) {
    if (f.pattern == "memory") continue;
    auto& dst = f.gt ? c.gt : c.be;
    dst.insert(dst.end(), f.latency_samples.begin(), f.latency_samples.end());
  }
  return c;
}

/// Default engine vs naive on the shortened copy, byte for byte.
void CheckNaive(const std::string& short_path, Report* r) {
  ScenarioRep fast, naive;
  Status a = RunScenarioOnce(short_path, {}, true, &fast);
  const Arming naive_engine{false, false,
                            sim::EngineConfig(sim::EngineKind::kNaive)};
  Status b = RunScenarioOnce(short_path, naive_engine, true, &naive);
  r->Check("naive_identical", a.ok() && b.ok() && fast.json == naive.json,
           a.ok() && b.ok() ? "short copy, default vs naive engine"
                            : a.ok() ? b.ToString() : a.ToString());
}

/// Measured GT max latency of every static GT stream within the
/// analytical worst case of its hop (ComputeGtBounds).
void CheckGtBounds(const std::string& path,
                   const scenario::ScenarioResult& res, Report* r) {
  if (res.spec.Phased()) return;
  auto spec = scenario::LoadScenarioFile(path);
  if (!spec.ok()) {
    return r->Check("gt_within_bound", false, spec.status().ToString());
  }
  scenario::ScenarioRunner runner(std::move(*spec));
  auto bounds = runner.ComputeGtBounds();
  if (!bounds.ok()) {
    return r->Check("gt_within_bound", false, bounds.status().ToString());
  }
  int checked = 0;
  std::string worst;
  bool ok = true;
  for (const scenario::FlowResult& f : res.flows) {
    if (!f.gt || f.pattern == "memory" || f.pattern == "video") continue;
    for (const scenario::GtFlowBound& b : *bounds) {
      if (b.group != f.group || b.src != f.src || b.dst != f.dst) continue;
      ++checked;
      if (f.latency.max > static_cast<double>(b.bound.worst_case_latency)) {
        ok = false;
        worst = std::to_string(f.src) + "->" + std::to_string(f.dst) +
                " max " + std::to_string(f.latency.max) + " > bound " +
                std::to_string(b.bound.worst_case_latency);
      }
    }
  }
  if (checked == 0) return;
  r->Check("gt_within_bound", ok,
           ok ? std::to_string(checked) + " GT streams within bound" : worst);
}

void CheckSame(const std::string& name,
               const std::vector<std::uint64_t>& hashes, Report* r) {
  bool same = !hashes.empty();
  for (std::uint64_t h : hashes) same = same && h == hashes[0];
  r->Check(name, same, std::to_string(hashes.size()) + " result JSON hashes");
}

/// Runs `rep_fn` until at least `min_reps` ran and the budget is spent.
template <typename Fn>
void Repeat(SteadyClock::time_point start, double budget, int min_reps,
            Fn rep_fn) {
  for (int n = 0; n < min_reps || Since(start) < budget; ++n) {
    if (!rep_fn()) return;
  }
}

/// Share of the --seconds budget spent on measured repetitions; the output
/// checks after them take the rest.
constexpr double kMeasureShare = 0.9;

/// Extra set-ups (parse + build, no run) timed before every measured
/// repetition, so the set-up median is steady even when a run fits few
/// repetitions, and spans the same host conditions as they do.
constexpr int kSetupsPerRep = 5;

void ScenarioEndToEnd(const Options& o, Report* r) {
  const auto start = SteadyClock::now();
  std::vector<double> setup;
  std::vector<ScenarioRep> reps;
  Repeat(start, kMeasureShare * o.seconds, 3, [&] {
    for (int k = 0; k < kSetupsPerRep; ++k) {
      const auto t0 = SteadyClock::now();
      auto spec = scenario::LoadScenarioFile(o.spec);
      if (!spec.ok()) {
        r->Attempt(false, spec.status().ToString());
        return false;
      }
      scenario::ScenarioRunner runner(std::move(*spec));
      Status s = runner.Build();
      setup.push_back(Since(t0));
      r->Attempt(s.ok(), "build: " + s.ToString());
      if (!s.ok()) return false;
    }
    ScenarioRep rep;
    Status s = RunScenarioOnce(o.spec, {}, reps.empty(), &rep);
    r->Attempt(s.ok(), "run: " + s.ToString());
    if (!s.ok()) return false;
    setup.push_back(rep.parse_s + rep.build_s);
    reps.push_back(std::move(rep));
    return true;
  });
  if (reps.empty()) return;

  std::vector<double> wall, kcps, per_s;
  std::vector<std::uint64_t> hashes;
  for (const ScenarioRep& rep : reps) {
    wall.push_back(rep.wall_s);
    kcps.push_back(Kcps(rep.cycles_run, rep.run_s));
    per_s.push_back(1.0 / rep.wall_s);
    hashes.push_back(rep.hash);
  }
  CheckSame("reps_identical", hashes, r);
  CheckNaive(o.short_spec, r);
  CheckGtBounds(o.spec, *reps[0].result, r);

  const scenario::ScenarioResult& res = *reps[0].result;
  const LatencyClasses lat = StreamLatencies(res);
  r->Metric("setup_s", Median(setup), "s");
  r->Metric("wall_s", Median(wall), "s");
  r->Metric("sim_kcycles_per_s", Median(kcps), "kcycles/s");
  r->Metric("points_per_s", Median(per_s), "1/s");
  r->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  r->Metric("gt_latency_p50_cycles", NearestRank(lat.gt, 0.50), "cycles");
  r->Metric("gt_latency_p99_cycles", NearestRank(lat.gt, 0.99), "cycles");
  r->Metric("be_latency_p50_cycles", NearestRank(lat.be, 0.50), "cycles");
  r->Metric("be_latency_p99_cycles", NearestRank(lat.be, 0.99), "cycles");
  r->Metric("delivered_wpc", res.throughput_wpc, "words/cycle");
}

void ScenarioPerLayer(const Options& o, Report* r) {
  const auto start = SteadyClock::now();
  std::vector<ScenarioRep> plain, traced;
  std::int64_t violations = 0;
  auto run = [&](const Arming& arm, std::vector<ScenarioRep>* into) {
    ScenarioRep rep;
    Status s = RunScenarioOnce(o.spec, arm, into->empty(), &rep);
    r->Attempt(s.ok(), "run: " + s.ToString());
    violations += rep.violations;
    if (s.ok()) into->push_back(std::move(rep));
    return s.ok();
  };
  Repeat(start, kMeasureShare * o.seconds, 2, [&] {
    return run(Arming{}, &plain) &&
           run(Arming{true, false, std::nullopt}, &traced);
  });
  if (plain.empty() || traced.empty()) return;

  std::vector<std::uint64_t> hashes;
  std::vector<double> parse, build, run_s, emit, wall, plain_kcps, traced_kcps;
  for (const ScenarioRep& rep : plain) {
    hashes.push_back(rep.hash);
    plain_kcps.push_back(Kcps(rep.cycles_run, rep.run_s));
  }
  for (const ScenarioRep& rep : traced) {
    hashes.push_back(rep.hash);
    parse.push_back(rep.parse_s);
    build.push_back(rep.build_s);
    run_s.push_back(rep.run_s);
    emit.push_back(rep.emit_s);
    wall.push_back(rep.wall_s);
    traced_kcps.push_back(Kcps(rep.cycles_run, rep.run_s));
  }
  // Plain and traced repetitions must agree byte for byte.
  CheckSame("traced_identical", hashes, r);
  CheckNaive(o.short_spec, r);
  CheckGtBounds(o.spec, *plain[0].result, r);
  const double spans =
      Median(parse) + Median(build) + Median(run_s) + Median(emit);
  r->Check("spans_cover_wall", spans >= 0.95 * Median(wall),
           "parse+build+run+emit = " + std::to_string(spans) + " s of " +
               std::to_string(Median(wall)) + " s");

  r->Metric("scenario.parse_s", Median(parse), "s");
  r->Metric("scenario.build_s", Median(build), "s");
  r->Metric("scenario.run_s", Median(run_s), "s");
  r->Metric("scenario.emit_s", Median(emit), "s");
  // The stage split of the median-run repetition.
  std::size_t mid = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i].run_s == NearestRank(run_s, 0.5)) mid = i;
  }
  EmitSimStages(traced[mid].layers, traced[mid].run_s, r);
  traced[mid].layers.Emit(r);
  r->Metric("verify.violations", static_cast<double>(violations), "count");
  r->Metric("verify.overhead_ratio", 0, "ratio");  // scenario runs unverified
  for (const char* name :
       {"sweep.run_s", "sweep.point_build_s_p50", "sweep.point_build_s_p90",
        "sweep.point_run_s_p50", "sweep.point_run_s_p90"}) {
    r->Metric(name, 0, "s");
  }
  r->Metric("sweep.pool_efficiency", 0, "ratio");
  r->Metric("trace.overhead_ratio",
            Ratio(Median(plain_kcps), Median(traced_kcps)), "ratio");
}

// --- sweep workload ---------------------------------------------------------

/// Simulated cycles of one point: warmup plus the measured window.
double PointCycles(const sweep::SweepSpec& spec, const sweep::PointResult& p) {
  return static_cast<double>(spec.base.warmup + p.duration);
}

/// The traced sweep path: every point serially through MaterializePoint
/// and its own ScenarioRunner, with a span around each call, then the same
/// summarise-and-emit the pool does.
struct SerialPass {
  double parse_s = 0, emit_s = 0, wall_s = 0;
  std::vector<double> build_s, run_s;
  double cycles = 0;
  std::int64_t violations = 0;
  LayerCounts layers;
  std::uint64_t hash = 0;
};

Status RunSweepSerial(const std::string& path, const Arming& arm,
                      SerialPass* out) {
  const auto t0 = SteadyClock::now();
  auto spec = sweep::LoadSweepFile(path);
  if (!spec.ok()) return spec.status();
  out->parse_s = Since(t0);
  sweep::SweepResult result;
  for (const sweep::GridPoint& gp : sweep::ExpandGrid(*spec)) {
    const auto tb = SteadyClock::now();
    auto point_spec = sweep::MaterializePoint(*spec, gp);
    if (!point_spec.ok()) return point_spec.status();
    if (arm.traced) point_spec->obs.sample_every = kSampleEvery;
    if (arm.verify_off) point_spec->verify = false;
    scenario::ScenarioRunner runner(std::move(*point_spec));
    if (Status s = runner.Build(); !s.ok()) return s;
    out->build_s.push_back(Since(tb));
    if (arm.traced) runner.soc()->sim().EnableProfiling();
    const auto tr = SteadyClock::now();
    auto run = runner.Run();
    out->run_s.push_back(Since(tr));
    if (const verify::Monitor* m = runner.soc()->monitor()) {
      out->violations += m->total_violations();
    }
    if (!run.ok()) return run.status();
    if (arm.traced) out->layers.Add(runner, *run);
    out->cycles += static_cast<double>(run->cycles_run);
    const auto te = SteadyClock::now();
    sweep::PointResult point;
    point.index = gp.index;
    point.values = gp.Values(*spec);
    sweep::SummarizePoint(*run, &point);
    result.points.push_back(std::move(point));
    out->emit_s += Since(te);
  }
  const auto te = SteadyClock::now();
  result.spec = std::move(*spec);
  out->hash = Fnv1a(result.ToJson());
  out->emit_s += Since(te);
  out->wall_s = Since(t0);
  return OkStatus();
}

struct ParallelRep {
  double parse_s = 0, wall_s = 0, cycles = 0;
  std::size_t points = 0;
  std::uint64_t hash = 0;
  std::string json;  // kept only when asked for, like the result
  std::optional<sweep::SweepResult> result;
};

Status RunSweepParallel(const std::string& path, int jobs,
                        std::optional<sim::EngineConfig> engine, bool keep,
                        ParallelRep* rep) {
  const auto t0 = SteadyClock::now();
  auto spec = sweep::LoadSweepFile(path);
  if (!spec.ok()) return spec.status();
  if (engine) spec->base.engine = *engine;
  rep->parse_s = Since(t0);
  rep->points = spec->NumPoints();
  auto result = sweep::SweepRunner(*spec).Run(jobs);
  if (!result.ok()) return result.status();
  std::string json = result->ToJson();
  rep->wall_s = Since(t0);
  rep->hash = Fnv1a(json);
  for (const sweep::PointResult& p : result->points) {
    rep->cycles += PointCycles(result->spec, p);
  }
  if (keep) {
    rep->json = std::move(json);
    rep->result = std::move(*result);
  }
  return OkStatus();
}

void CheckSweepNaive(const Options& o, Report* r) {
  ParallelRep fast, naive;
  Status a = RunSweepParallel(o.short_spec, o.jobs, std::nullopt, true, &fast);
  Status b = RunSweepParallel(o.short_spec, o.jobs,
                              sim::EngineConfig(sim::EngineKind::kNaive), true,
                              &naive);
  r->Check("naive_identical", a.ok() && b.ok() && fast.json == naive.json,
           a.ok() && b.ok() ? "short grid, default vs naive engine"
                            : a.ok() ? b.ToString() : a.ToString());
}

/// Mean over the points with latency samples in class `cls` of its
/// percentile `field`.
double MeanLatency(const sweep::SweepResult& res,
                   sweep::ClassSummary sweep::PointResult::*cls,
                   double sweep::ClassSummary::*field) {
  double sum = 0;
  int n = 0;
  for (const sweep::PointResult& p : res.points) {
    if ((p.*cls).latency_count == 0) continue;
    sum += (p.*cls).*field;
    ++n;
  }
  return n ? sum / n : 0;
}

void SweepEndToEnd(const Options& o, Report* r) {
  const auto start = SteadyClock::now();
  std::vector<double> setup;
  std::vector<ParallelRep> reps;
  Repeat(start, kMeasureShare * o.seconds, 3, [&] {
    for (int k = 0; k < kSetupsPerRep; ++k) {
      const auto t0 = SteadyClock::now();
      auto spec = sweep::LoadSweepFile(o.spec);
      setup.push_back(Since(t0));
      r->Attempt(spec.ok(), "load: " + spec.status().ToString());
      if (!spec.ok()) return false;
    }
    ParallelRep rep;
    Status s =
        RunSweepParallel(o.spec, o.jobs, std::nullopt, reps.empty(), &rep);
    r->Attempt(s.ok(), "sweep: " + s.ToString(),
               static_cast<std::int64_t>(rep.points));
    if (!s.ok()) return false;
    setup.push_back(rep.parse_s);
    reps.push_back(std::move(rep));
    return true;
  });
  if (reps.empty()) return;

  std::vector<double> wall, kcps, pps;
  std::vector<std::uint64_t> hashes;
  for (const ParallelRep& rep : reps) {
    wall.push_back(rep.wall_s);
    kcps.push_back(Kcps(rep.cycles, rep.wall_s));
    pps.push_back(static_cast<double>(rep.points) / rep.wall_s);
    hashes.push_back(rep.hash);
  }
  CheckSame("reps_identical", hashes, r);
  CheckSweepNaive(o, r);

  using P = sweep::PointResult;
  using C = sweep::ClassSummary;
  const sweep::SweepResult& res = *reps[0].result;
  double delivered = 0;
  for (const P& p : res.points) delivered += p.throughput_wpc;
  r->Metric("setup_s", Median(setup), "s");
  r->Metric("wall_s", Median(wall), "s");
  r->Metric("sim_kcycles_per_s", Median(kcps), "kcycles/s");
  r->Metric("points_per_s", Median(pps), "1/s");
  r->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  r->Metric("gt_latency_p50_cycles", MeanLatency(res, &P::gt, &C::latency_p50),
            "cycles");
  r->Metric("gt_latency_p99_cycles", MeanLatency(res, &P::gt, &C::latency_p99),
            "cycles");
  r->Metric("be_latency_p50_cycles", MeanLatency(res, &P::be, &C::latency_p50),
            "cycles");
  r->Metric("be_latency_p99_cycles", MeanLatency(res, &P::be, &C::latency_p99),
            "cycles");
  r->Metric("delivered_wpc", Ratio(delivered, res.points.size()),
            "words/cycle");
}

void SweepPerLayer(const Options& o, Report* r) {
  const auto start = SteadyClock::now();
  auto probe = sweep::LoadSweepFile(o.spec);
  const bool verified = probe.ok() && probe->base.verify;

  std::vector<ParallelRep> parallel;
  std::vector<SerialPass> plain, traced, unverified;
  auto serial = [&](const Arming& arm, std::vector<SerialPass>* into) {
    SerialPass pass;
    Status s = RunSweepSerial(o.spec, arm, &pass);
    r->Attempt(s.ok(), "serial sweep: " + s.ToString(),
               static_cast<std::int64_t>(pass.run_s.size()));
    if (s.ok()) into->push_back(std::move(pass));
    return s.ok();
  };
  Repeat(start, kMeasureShare * o.seconds, 2, [&] {
    ParallelRep rep;
    Status s = RunSweepParallel(o.spec, o.jobs, std::nullopt, false, &rep);
    r->Attempt(s.ok(), "sweep: " + s.ToString(),
               static_cast<std::int64_t>(rep.points));
    if (!s.ok()) return false;
    parallel.push_back(std::move(rep));
    return serial(Arming{}, &plain) &&
           serial(Arming{true, false, std::nullopt}, &traced) &&
           (!verified ||
            serial(Arming{true, true, std::nullopt}, &unverified));
  });
  if (parallel.empty() || plain.empty() || traced.empty()) return;

  std::vector<std::uint64_t> hashes;
  std::vector<double> par_wall, parse, emit, wall, build_pts, run_pts,
      build_sums, run_sums, plain_kcps, traced_kcps, unverified_kcps,
      efficiency;
  for (const ParallelRep& rep : parallel) {
    hashes.push_back(rep.hash);
    par_wall.push_back(rep.wall_s);
  }
  for (const SerialPass& pass : plain) {
    hashes.push_back(pass.hash);
    double point_sum = 0, run_sum = 0;
    for (double t : pass.build_s) point_sum += t;
    for (double t : pass.run_s) run_sum += t;
    point_sum += run_sum;
    plain_kcps.push_back(Kcps(pass.cycles, run_sum));
    efficiency.push_back(point_sum / (o.jobs * Median(par_wall)));
  }
  for (const SerialPass& pass : traced) {
    hashes.push_back(pass.hash);
    parse.push_back(pass.parse_s);
    emit.push_back(pass.emit_s);
    wall.push_back(pass.wall_s);
    double build_sum = 0, run_sum = 0;
    for (double t : pass.build_s) build_sum += t;
    for (double t : pass.run_s) run_sum += t;
    build_sums.push_back(build_sum);
    run_sums.push_back(run_sum);
    traced_kcps.push_back(Kcps(pass.cycles, run_sum));
    build_pts.insert(build_pts.end(), pass.build_s.begin(),
                     pass.build_s.end());
    run_pts.insert(run_pts.end(), pass.run_s.begin(), pass.run_s.end());
  }
  for (const SerialPass& pass : unverified) {
    hashes.push_back(pass.hash);
    double run_sum = 0;
    for (double t : pass.run_s) run_sum += t;
    unverified_kcps.push_back(Kcps(pass.cycles, run_sum));
  }
  // Pool, plain, traced and verify-off serial passes agree byte for byte.
  CheckSame("traced_identical", hashes, r);
  CheckSweepNaive(o, r);
  const double spans = Median(parse) + Median(build_sums) + Median(run_sums) +
                       Median(emit);
  r->Check("spans_cover_wall", spans >= 0.95 * Median(wall),
           "parse+build+run+emit = " + std::to_string(spans) + " s of " +
               std::to_string(Median(wall)) + " s");

  r->Metric("scenario.parse_s", Median(parse), "s");
  r->Metric("scenario.build_s", Median(build_sums), "s");
  r->Metric("scenario.run_s", Median(run_sums), "s");
  r->Metric("scenario.emit_s", Median(emit), "s");
  std::size_t mid = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (run_sums[i] == NearestRank(run_sums, 0.5)) mid = i;
  }
  EmitSimStages(traced[mid].layers, run_sums[mid], r);
  traced[mid].layers.Emit(r);
  std::int64_t violations = 0;
  for (const SerialPass& pass : traced) violations += pass.violations;
  r->Metric("verify.violations", static_cast<double>(violations), "count");
  r->Metric("verify.overhead_ratio",
            verified ? Ratio(Median(unverified_kcps), Median(traced_kcps)) : 0,
            "ratio");
  r->Metric("sweep.run_s", Median(wall), "s");
  r->Metric("sweep.point_build_s_p50", NearestRank(build_pts, 0.5), "s");
  r->Metric("sweep.point_build_s_p90", NearestRank(build_pts, 0.9), "s");
  r->Metric("sweep.point_run_s_p50", NearestRank(run_pts, 0.5), "s");
  r->Metric("sweep.point_run_s_p90", NearestRank(run_pts, 0.9), "s");
  r->Metric("sweep.pool_efficiency", Median(efficiency), "ratio");
  r->Metric("trace.overhead_ratio",
            Ratio(Median(plain_kcps), Median(traced_kcps)), "ratio");
}

int Usage() {
  std::cerr << "usage: perfbench_harness --kind scenario|sweep --spec FILE "
               "--short FILE --seconds S --trace 0|1 --jobs N\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--kind") o.kind = value;
    else if (key == "--spec") o.spec = value;
    else if (key == "--short") o.short_spec = value;
    else if (key == "--seconds") o.seconds = std::atof(value.c_str());
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--jobs") o.jobs = std::max(1, std::atoi(value.c_str()));
    else return Usage();
  }
  if (argc % 2 == 0 || o.spec.empty() || o.short_spec.empty() ||
      o.seconds <= 0 || (o.kind != "scenario" && o.kind != "sweep")) {
    return Usage();
  }
  Report report;
  if (o.kind == "scenario") {
    o.trace ? ScenarioPerLayer(o, &report) : ScenarioEndToEnd(o, &report);
  } else {
    o.trace ? SweepPerLayer(o, &report) : SweepEndToEnd(o, &report);
  }
  std::cout << report.ToJson() << "\n";
  return 0;
}

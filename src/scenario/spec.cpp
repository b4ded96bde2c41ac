#include "scenario/spec.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "core/registers.h"
#include "topology/builders.h"
#include "util/parse.h"

namespace aethereal::scenario {

const char* PatternKindName(PatternKind kind) {
  switch (kind) {
    case PatternKind::kUniform: return "uniform";
    case PatternKind::kTranspose: return "transpose";
    case PatternKind::kBitComplement: return "bitcomp";
    case PatternKind::kBitReversal: return "bitrev";
    case PatternKind::kNeighbor: return "neighbor";
    case PatternKind::kHotspot: return "hotspot";
    case PatternKind::kPairs: return "pairs";
    case PatternKind::kVideo: return "video";
    case PatternKind::kMemory: return "memory";
  }
  return "?";
}

const char* InjectKindName(InjectKind kind) {
  switch (kind) {
    case InjectKind::kPeriodic: return "periodic";
    case InjectKind::kBernoulli: return "bernoulli";
    case InjectKind::kBursty: return "bursty";
    case InjectKind::kClosedLoop: return "closed";
  }
  return "?";
}

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kStar: return "star";
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kRing: return "ring";
  }
  return "?";
}

int ScenarioSpec::NumNis() const {
  switch (topology) {
    case TopologyKind::kStar: return dim_a;
    case TopologyKind::kMesh: return dim_a * dim_b * nis_per_router;
    case TopologyKind::kRing: return dim_a * nis_per_router;
  }
  return 0;
}

int ScenarioSpec::RouterPorts() const {
  switch (topology) {
    case TopologyKind::kStar: return dim_a;
    case TopologyKind::kMesh: return topology::kMeshLocalBase + nis_per_router;
    case TopologyKind::kRing: return topology::kRingLocalBase + nis_per_router;
  }
  return 0;
}

int ScenarioSpec::ConfigChannelsOf(NiId ni) const {
  if (!Phased()) return 0;
  return ni == cfg_ni ? NumNis() - 1 : 1;
}

Cycle ScenarioSpec::TotalDuration() const {
  if (!Phased()) return duration;
  Cycle total = 0;
  for (const PhaseSpec& phase : phases) total += phase.duration;
  return total;
}

std::vector<SpecLine> TokenizeSpec(const std::string& text) {
  std::vector<SpecLine> lines;
  std::istringstream stream(text);
  std::string raw;
  int number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    SpecLine line{number, {}};
    std::string token;
    while (ls >> token) line.tokens.push_back(token);
    if (!line.tokens.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

Status LineError(int line, const std::string& message) {
  return InvalidArgumentError("line " + std::to_string(line) + ": " + message);
}

Result<std::int64_t> ParseInt(const std::string& token) {
  if (const auto value = ParseI64(token)) return *value;
  return InvalidArgumentError("expected a number, got '" + token + "'");
}

Result<std::int64_t> ParseIntIn(const std::string& token, std::int64_t lo,
                                std::int64_t hi) {
  auto value = ParseInt(token);
  if (!value.ok()) return value;
  if (*value < lo || *value > hi) {
    return InvalidArgumentError("'" + token + "' out of range [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

Result<double> ParseDouble(const std::string& token) {
  if (const auto value = ParseF64(token)) return *value;
  return InvalidArgumentError("expected a number, got '" + token + "'");
}

namespace {

/// Largest NI population a scenario may instantiate. Keeps design-time
/// arithmetic far from integer overflow and rejects obviously
/// un-simulatable specs at parse time instead of hanging in allocation.
constexpr std::int64_t kMaxScenarioNis = 4096;

/// Longest cycle count a directive takes: ~12 days of 1 GHz simulation.
/// Anything beyond is a typo, and the bound keeps warmup + duration and
/// the convergence cap (10x the duration) far from Cycle overflow.
constexpr std::int64_t kMaxCycles = std::int64_t{1} << 40;

/// Injection-process ceilings, far beyond any useful workload.
constexpr std::int64_t kMaxPeriod = std::int64_t{1} << 30;
constexpr std::int64_t kMaxBurstWords = std::int64_t{1} << 20;
constexpr std::int64_t kMaxGapCycles = std::int64_t{1} << 30;

constexpr char kPerPhaseDurations[] =
    "phased scenarios take per-phase durations; drop the scenario-level "
    "'duration'";

/// `message` at `line` when the spec records one.
Status AtLine(int line, const std::string& message) {
  return line > 0 ? LineError(line, message) : InvalidArgumentError(message);
}

/// The single integer argument of a scalar directive, in [lo, hi]; the
/// error reads "<directive> must <must>".
Result<std::int64_t> IntArg(const std::vector<std::string>& tokens,
                            std::int64_t lo, std::int64_t hi,
                            const char* must) {
  if (tokens.size() != 2) {
    return InvalidArgumentError("'" + tokens[0] + "' takes one argument");
  }
  auto value = ParseInt(tokens[1]);
  if (!value.ok()) return value;
  if (*value < lo || *value > hi) {
    return InvalidArgumentError(tokens[0] + " must " + must);
  }
  return value;
}

/// Consumes leading NI-id tokens (for hotspot/pairs/video/memory) until a
/// clause keyword appears.
Result<std::size_t> ParseNiList(const std::vector<std::string>& t,
                                std::size_t at, std::vector<NiId>* out) {
  while (at < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[at][0])) != 0 ||
          t[at][0] == '-')) {
    auto v = ParseIntIn(t[at], 0, kMaxScenarioNis);
    if (!v.ok()) return v.status();
    out->push_back(static_cast<NiId>(*v));
    ++at;
  }
  return at;
}

Status ParseTraffic(const SpecLine& line, ScenarioSpec* spec) {
  const auto& t = line.tokens;
  if (t.size() < 2) {
    return InvalidArgumentError("traffic <pattern> [args] [clauses]");
  }
  TrafficSpec traffic;
  traffic.phase = static_cast<int>(spec->phases.size()) - 1;
  traffic.line = line.number;
  const std::string& pattern = t[1];
  std::size_t at = 2;
  if (pattern == "uniform") {
    traffic.pattern = PatternKind::kUniform;
  } else if (pattern == "transpose") {
    traffic.pattern = PatternKind::kTranspose;
  } else if (pattern == "bitcomp") {
    traffic.pattern = PatternKind::kBitComplement;
  } else if (pattern == "bitrev") {
    traffic.pattern = PatternKind::kBitReversal;
  } else if (pattern == "neighbor") {
    traffic.pattern = PatternKind::kNeighbor;
  } else if (pattern == "hotspot") {
    traffic.pattern = PatternKind::kHotspot;
    std::vector<NiId> ids;
    auto next = ParseNiList(t, at, &ids);
    if (!next.ok()) return next.status();
    if (ids.size() != 1) {
      return InvalidArgumentError("hotspot needs exactly one target NI");
    }
    traffic.hotspot = ids[0];
    at = *next;
  } else if (pattern == "pairs") {
    traffic.pattern = PatternKind::kPairs;
    auto next = ParseNiList(t, at, &traffic.nis);
    if (!next.ok()) return next.status();
    if (traffic.nis.empty() || traffic.nis.size() % 2 != 0) {
      return InvalidArgumentError("pairs needs an even NI-id list");
    }
    at = *next;
  } else if (pattern == "video") {
    traffic.pattern = PatternKind::kVideo;
    auto next = ParseNiList(t, at, &traffic.nis);
    if (!next.ok()) return next.status();
    if (traffic.nis.size() < 2) {
      return InvalidArgumentError("video needs a chain of >= 2 NIs");
    }
    at = *next;
  } else if (pattern == "memory") {
    traffic.pattern = PatternKind::kMemory;
    auto next = ParseNiList(t, at, &traffic.nis);
    if (!next.ok()) return next.status();
    if (traffic.nis.size() != 2) {
      return InvalidArgumentError("memory needs <master_ni> <slave_ni>");
    }
    at = *next;
  } else {
    return InvalidArgumentError("unknown pattern '" + pattern + "'");
  }
  if (Status s = ApplyTrafficClauses(t, at, &traffic); !s.ok()) return s;
  spec->traffic.push_back(std::move(traffic));
  return OkStatus();
}

Status ParsePhase(const SpecLine& line, bool have_duration,
                  ScenarioSpec* spec) {
  const auto& t = line.tokens;
  const char kUsage[] = "phase <name> duration <cycles> [warmup <cycles>]";
  if (t.size() != 4 && t.size() != 6) return InvalidArgumentError(kUsage);
  if (have_duration) return InvalidArgumentError(kPerPhaseDurations);
  if (spec->phases.size() >= 64) {
    return InvalidArgumentError("at most 64 phases");
  }
  PhaseSpec phase;
  phase.name = t[1];
  phase.line = line.number;
  for (const PhaseSpec& earlier : spec->phases) {
    if (earlier.name == phase.name) {
      return InvalidArgumentError("duplicate phase name '" + phase.name +
                                  "'");
    }
  }
  if (t[2] != "duration") return InvalidArgumentError(kUsage);
  if (t.size() == 6 && t[4] != "warmup") {
    return InvalidArgumentError("expected 'warmup <cycles>'");
  }
  if (Status s = ApplyPhaseTiming(t, 2, &phase); !s.ok()) return s;
  spec->phases.push_back(std::move(phase));
  return OkStatus();
}

Status ApplyNoc(const std::vector<std::string>& t, ScenarioSpec* spec) {
  if (t.size() < 3) {
    return InvalidArgumentError("noc <star|mesh|ring> <dims...>");
  }
  if (t[1] == "star") {
    if (t.size() != 3) return InvalidArgumentError("noc star NIS");
    auto n = ParseInt(t[2]);
    if (!n.ok()) return n.status();
    if (*n < 1 || *n > kMaxScenarioNis) {
      return InvalidArgumentError(
          "star needs 1.." + std::to_string(kMaxScenarioNis) + " NIs");
    }
    spec->topology = TopologyKind::kStar;
    spec->dim_a = static_cast<int>(*n);
    spec->dim_b = 1;
    spec->nis_per_router = 1;
  } else if (t[1] == "mesh") {
    if (t.size() != 5) {
      return InvalidArgumentError("noc mesh ROWS COLS NIS_PER_ROUTER");
    }
    // Per-dimension bounds first, so the product below cannot overflow.
    auto rows = ParseIntIn(t[2], 1, kMaxScenarioNis);
    auto cols = ParseIntIn(t[3], 1, kMaxScenarioNis);
    auto nis = ParseIntIn(t[4], 1, kMaxScenarioNis);
    if (!rows.ok()) return rows.status();
    if (!cols.ok()) return cols.status();
    if (!nis.ok()) return nis.status();
    if (*rows * *cols * *nis > kMaxScenarioNis) {
      return InvalidArgumentError(
          "mesh gives at most " + std::to_string(kMaxScenarioNis) + " NIs");
    }
    spec->topology = TopologyKind::kMesh;
    spec->dim_a = static_cast<int>(*rows);
    spec->dim_b = static_cast<int>(*cols);
    spec->nis_per_router = static_cast<int>(*nis);
  } else if (t[1] == "ring") {
    if (t.size() != 4) {
      return InvalidArgumentError("noc ring ROUTERS NIS_PER_ROUTER");
    }
    // Per-dimension bounds first, so the product below cannot overflow.
    auto routers = ParseIntIn(t[2], 3, kMaxScenarioNis);
    auto nis = ParseIntIn(t[3], 1, kMaxScenarioNis);
    if (!routers.ok()) return routers.status();
    if (!nis.ok()) return nis.status();
    if (*routers * *nis > kMaxScenarioNis) {
      return InvalidArgumentError(
          "ring gives at most " + std::to_string(kMaxScenarioNis) + " NIs");
    }
    spec->topology = TopologyKind::kRing;
    spec->dim_a = static_cast<int>(*routers);
    spec->dim_b = 1;
    spec->nis_per_router = static_cast<int>(*nis);
  } else {
    return InvalidArgumentError("unknown topology '" + t[1] + "'");
  }
  if (spec->RouterPorts() > kMaxRouterPorts) {
    return InvalidArgumentError(
        "router radix " + std::to_string(spec->RouterPorts()) + " exceeds " +
        std::to_string(kMaxRouterPorts) + " ports");
  }
  return OkStatus();
}

/// converge rel_err E [conf C] [max_duration D] [interval I] [batches B]:
/// key-value clauses in any order. rel_err is mandatory unless the mode is
/// already armed (a stopping rule without a target is meaningless).
Status ApplyConverge(const std::vector<std::string>& t, ScenarioSpec* spec) {
  if (t.size() < 3 || t.size() % 2 == 0) {
    return InvalidArgumentError(
        "converge rel_err <frac> [conf <frac>] [max_duration <cycles>] "
        "[interval <cycles>] [batches <n>]");
  }
  bool have_rel_err = spec->converge.enabled;
  for (std::size_t at = 1; at + 1 < t.size(); at += 2) {
    const std::string& key = t[at];
    const std::string& val = t[at + 1];
    if (key == "rel_err") {
      auto v = ParseDouble(val);
      if (!v.ok()) return v.status();
      if (*v <= 0.0 || *v >= 1.0) {
        return InvalidArgumentError("rel_err must be in (0, 1)");
      }
      spec->converge.rel_err = *v;
      have_rel_err = true;
    } else if (key == "conf") {
      auto v = ParseDouble(val);
      if (!v.ok()) return v.status();
      if (*v <= 0.5 || *v >= 1.0) {
        return InvalidArgumentError("conf must be in (0.5, 1)");
      }
      spec->converge.conf = *v;
    } else if (key == "max_duration") {
      auto v = ParseIntIn(val, 1, kMaxCycles);
      if (!v.ok()) return v.status();
      spec->converge.max_duration = *v;
    } else if (key == "interval") {
      // A check interval shorter than one slot could never close a new
      // sample window.
      auto v = ParseIntIn(val, kFlitWords, kMaxCycles);
      if (!v.ok()) return v.status();
      spec->converge.interval = *v;
    } else if (key == "batches") {
      auto v = ParseIntIn(val, 2, 4096);
      if (!v.ok()) return v.status();
      spec->converge.batches = static_cast<int>(*v);
    } else {
      return InvalidArgumentError("unknown converge clause '" + key + "'");
    }
  }
  if (!have_rel_err) {
    return InvalidArgumentError("converge requires 'rel_err <frac>'");
  }
  spec->converge.enabled = true;
  return OkStatus();
}

}  // namespace

Status ApplyTrafficClauses(const std::vector<std::string>& t, std::size_t at,
                           TrafficSpec* traffic) {
  while (at < t.size()) {
    const std::string& clause = t[at];
    auto need = [&](std::size_t extra) -> Status {
      if (at + extra >= t.size()) {
        return InvalidArgumentError("clause '" + clause +
                                    "' is missing arguments");
      }
      return OkStatus();
    };
    if (clause == "inject") {
      if (Status s = need(1); !s.ok()) return s;
      const std::string& kind = t[at + 1];
      if (kind == "periodic") {
        if (Status s = need(2); !s.ok()) return s;
        auto v = ParseInt(t[at + 2]);
        if (!v.ok()) return v.status();
        if (*v < 1 || *v > kMaxPeriod) {
          return InvalidArgumentError("period must be >= 1 and <= 2^30");
        }
        traffic->inject = InjectKind::kPeriodic;
        traffic->period = *v;
        at += 3;
      } else if (kind == "bernoulli") {
        if (Status s = need(2); !s.ok()) return s;
        auto v = ParseDouble(t[at + 2]);
        if (!v.ok()) return v.status();
        if (*v <= 0.0 || *v > 1.0) {
          return InvalidArgumentError("rate must be in (0, 1]");
        }
        traffic->inject = InjectKind::kBernoulli;
        traffic->rate = *v;
        at += 3;
      } else if (kind == "bursty") {
        if (Status s = need(3); !s.ok()) return s;
        if (traffic->pattern == PatternKind::kMemory) {
          return InvalidArgumentError(
              "memory traffic supports periodic/bernoulli/closed");
        }
        auto words = ParseInt(t[at + 2]);
        auto gap = ParseInt(t[at + 3]);
        if (!words.ok()) return words.status();
        if (!gap.ok()) return gap.status();
        if (*words < 1 || *gap < 0 || *words > kMaxBurstWords ||
            *gap > kMaxGapCycles) {
          return InvalidArgumentError(
              "bursty needs WORDS >= 1, GAP >= 0 (WORDS <= 2^20, "
              "GAP <= 2^30)");
        }
        traffic->inject = InjectKind::kBursty;
        traffic->burst_words = *words;
        traffic->gap_cycles = *gap;
        at += 4;
      } else if (kind == "closed") {
        if (traffic->pattern != PatternKind::kMemory) {
          return InvalidArgumentError("'inject closed' is memory-pattern only");
        }
        traffic->inject = InjectKind::kClosedLoop;
        at += 2;
      } else {
        return InvalidArgumentError("unknown inject kind '" + kind + "'");
      }
    } else if (clause == "qos") {
      if (Status s = need(1); !s.ok()) return s;
      if (t[at + 1] == "be") {
        traffic->gt = false;
        traffic->gt_slots = 0;
        at += 2;
      } else if (t[at + 1] == "gt") {
        if (Status s = need(2); !s.ok()) return s;
        auto v = ParseIntIn(t[at + 2], 1, 1024);
        if (!v.ok()) return v.status();
        traffic->gt = true;
        traffic->gt_slots = static_cast<int>(*v);
        at += 3;
      } else {
        return InvalidArgumentError("qos must be 'be' or 'gt SLOTS'");
      }
    } else if (clause == "data_threshold" || clause == "credit_threshold") {
      if (Status s = need(1); !s.ok()) return s;
      auto v = ParseIntIn(t[at + 1], 1, 1 << 20);
      if (!v.ok()) return v.status();
      (clause[0] == 'd' ? traffic->data_threshold
                        : traffic->credit_threshold) = static_cast<int>(*v);
      at += 2;
    } else if (clause == "persist") {
      traffic->persist = true;
      at += 1;
    } else if (clause == "read_fraction") {
      if (traffic->pattern != PatternKind::kMemory) {
        return InvalidArgumentError("'read_fraction' is memory-only");
      }
      if (Status s = need(1); !s.ok()) return s;
      auto v = ParseDouble(t[at + 1]);
      if (!v.ok()) return v.status();
      if (*v < 0.0 || *v > 1.0) {
        return InvalidArgumentError("read_fraction must be in [0, 1]");
      }
      traffic->read_fraction = *v;
      at += 2;
    } else if (clause == "burst") {
      if (traffic->pattern != PatternKind::kMemory) {
        return InvalidArgumentError("'burst' is memory-only");
      }
      if (Status s = need(1); !s.ok()) return s;
      // Transport ceiling: a write request is 2 header words + payload and
      // must fit the master shell's 64-word sequentializer staging, so
      // bursts above 62 words could never be issued (silent zero traffic).
      auto v = ParseIntIn(t[at + 1], 1, 62);
      if (!v.ok()) return v.status();
      traffic->mem_burst_words = static_cast<int>(*v);
      at += 2;
    } else {
      return InvalidArgumentError("unknown clause '" + clause + "'");
    }
  }
  return OkStatus();
}

Status ApplyPhaseTiming(const std::vector<std::string>& t, std::size_t at,
                        PhaseSpec* phase) {
  if (at >= t.size() || (t.size() - at) % 2 != 0) {
    return InvalidArgumentError("expected 'duration <cycles>' or "
                                "'warmup <cycles>'");
  }
  for (; at < t.size(); at += 2) {
    const bool duration = t[at] == "duration";
    if (!duration && t[at] != "warmup") {
      return InvalidArgumentError("expected 'duration <cycles>' or "
                                  "'warmup <cycles>'");
    }
    auto v = ParseIntIn(t[at + 1], duration ? 1 : 0, kMaxCycles);
    if (!v.ok()) return v.status();
    (duration ? phase->duration : phase->warmup) = *v;
  }
  return OkStatus();
}

Status ApplyScalarDirective(const std::vector<std::string>& t,
                            ScenarioSpec* spec) {
  if (t.empty()) return InvalidArgumentError("empty directive");
  const std::string& kind = t[0];
  if (kind == "scenario") {
    if (t.size() != 2) return InvalidArgumentError("scenario <name>");
    spec->name = t[1];
    return OkStatus();
  }
  if (kind == "noc") return ApplyNoc(t, spec);
  if (kind == "stu") {
    // The NI's SLOTS register is a 32-bit mask, so kMaxStuSlots is a hard
    // hardware limit; values beyond it would abort deep in the NI kernel.
    static const std::string kRange =
        "be in [1, " + std::to_string(core::regs::kMaxStuSlots) + "]";
    auto v = IntArg(t, 1, core::regs::kMaxStuSlots, kRange.c_str());
    if (!v.ok()) return v.status();
    spec->stu_slots = static_cast<int>(*v);
    return OkStatus();
  }
  if (kind == "netmhz") {
    auto v = IntArg(t, 1, 1000000, "be in [1, 1000000]");
    if (!v.ok()) return v.status();
    spec->net_mhz = static_cast<double>(*v);
    return OkStatus();
  }
  if (kind == "queues") {
    auto v = IntArg(t, 1, 1 << 20, "be in [1, 1048576]");
    if (!v.ok()) return v.status();
    spec->queue_words = static_cast<int>(*v);
    return OkStatus();
  }
  if (kind == "seed") {
    // Reproducibility-critical: a negative seed must fail loudly, not
    // silently wrap, and every accepted seed prints back as itself.
    auto v = IntArg(t, 0, std::numeric_limits<std::int64_t>::max(),
                    "be >= 0");
    if (!v.ok()) return v.status();
    spec->seed = static_cast<std::uint64_t>(*v);
    return OkStatus();
  }
  if (kind == "warmup") {
    auto v = IntArg(t, 0, kMaxCycles, "be in [0, 2^40]");
    if (!v.ok()) return v.status();
    spec->warmup = *v;
    return OkStatus();
  }
  if (kind == "duration") {
    if (spec->Phased()) return InvalidArgumentError(kPerPhaseDurations);
    auto v = IntArg(t, 1, kMaxCycles, "be in [1, 2^40]");
    if (!v.ok()) return v.status();
    spec->duration = *v;
    return OkStatus();
  }
  if (kind == "cfgni") {
    auto v = IntArg(t, 0, kMaxScenarioNis, "be a valid NI id");
    if (!v.ok()) return v.status();
    spec->cfg_ni = static_cast<NiId>(*v);
    return OkStatus();
  }
  if (kind == "drain") {
    auto v = IntArg(t, 1, kMaxCycles, "be in [1, 2^40]");
    if (!v.ok()) return v.status();
    spec->drain_cycles = *v;
    return OkStatus();
  }
  if (kind == "engine") {
    // engine <naive|gated>; `optimized` and `soa` parse as gated.
    const std::string usage =
        std::string("engine <") + sim::kEngineKindChoices + ">";
    if (t.size() > 2 && sim::NamesRemovedThreadCount(t[2])) {
      return InvalidArgumentError(
          usage + ": " + sim::UseJobsInstead("an engine thread count"));
    }
    const std::optional<sim::EngineKind> parsed =
        t.size() == 2 ? sim::ParseEngineKind(t[1]) : std::nullopt;
    if (!parsed.has_value()) return InvalidArgumentError(usage);
    spec->engine = *parsed;
    return OkStatus();
  }
  if (kind == "verify") {
    if (t.size() != 2 || (t[1] != "on" && t[1] != "off")) {
      return InvalidArgumentError("verify <on|off>");
    }
    spec->verify = t[1] == "on";
    return OkStatus();
  }
  if (kind == "converge") return ApplyConverge(t, spec);
  if (kind == "stats") {
    if (t.size() != 3 || t[1] != "sample_every") {
      return InvalidArgumentError("stats sample_every <cycles>");
    }
    // Windows close at slot boundaries (the wire-transfer granularity), so
    // a window shorter than one slot could never hold a sample.
    auto v = ParseIntIn(t[2], kFlitWords, kMaxCycles);
    if (!v.ok()) return v.status();
    spec->obs.sample_every = *v;
    return OkStatus();
  }
  if (kind == "trace") {
    if (t.size() != 2 && t.size() != 4) {
      return InvalidArgumentError("trace <file> [cap <events>]");
    }
    spec->obs.trace_path = t[1];
    if (t.size() == 4) {
      if (t[2] != "cap") return InvalidArgumentError("expected 'cap <events>'");
      auto v = ParseIntIn(t[3], 1, std::int64_t{1} << 30);
      if (!v.ok()) return v.status();
      spec->obs.trace_cap = *v;
    }
    return OkStatus();
  }
  return InvalidArgumentError("unknown directive '" + kind + "'");
}

Status ValidateScenario(const ScenarioSpec& spec) {
  if (spec.traffic.empty()) {
    return InvalidArgumentError("scenario has no 'traffic' directives");
  }
  for (const TrafficSpec& traffic : spec.traffic) {
    if (traffic.persist && traffic.phase < 0) {
      return AtLine(traffic.line, "'persist' needs a phase block");
    }
    if (traffic.phase >= 0 &&
        (traffic.data_threshold != 1 || traffic.credit_threshold != 1)) {
      return AtLine(traffic.line,
                    "phased directives require data_threshold 1 and "
                    "credit_threshold 1 (a closing channel must be able to "
                    "drain completely)");
    }
    if (spec.Phased() && traffic.phase < 0) {
      return AtLine(traffic.line,
                    "phased scenario has a traffic directive before the "
                    "first 'phase' block");
    }
  }
  if (!spec.Phased()) {
    if (spec.cfg_ni_line > 0 || spec.drain_line > 0) {
      return AtLine(std::max(spec.cfg_ni_line, spec.drain_line),
                    "'cfgni'/'drain' apply to phased scenarios only");
    }
    if (spec.fault.has_value() &&
        (spec.fault->AnyConfigFaults() || spec.fault->retry.enabled)) {
      return AtLine(spec.fault->line,
                    "config faults and the retry policy act on the runtime "
                    "configuration protocol, which only phased scenarios "
                    "exercise");
    }
    return OkStatus();
  }
  if (spec.cfg_ni >= spec.NumNis()) {
    return AtLine(spec.cfg_ni_line,
                  "cfgni " + std::to_string(spec.cfg_ni) +
                      " is off the topology (" +
                      std::to_string(spec.NumNis()) + " NIs)");
  }
  // Every phase window must observe at least one flow — its own
  // directives or a persistent one from an earlier phase.
  for (std::size_t k = 0; k < spec.phases.size(); ++k) {
    const bool active = std::any_of(
        spec.traffic.begin(), spec.traffic.end(),
        [k](const TrafficSpec& t) { return t.ActiveIn(static_cast<int>(k)); });
    if (!active) {
      return AtLine(spec.phases[k].line,
                    "phase '" + spec.phases[k].name +
                        "' has no active traffic directive");
    }
  }
  return OkStatus();
}

Result<ScenarioSpec> ParseScenario(const std::string& text) {
  ScenarioSpec spec;
  bool have_noc = false;
  bool have_duration = false;
  bool in_fault = false;
  // Every scalar directive may appear at most once: a duplicate almost
  // always means a copy-paste error, and silently keeping the later value
  // would make the earlier line a lie.
  std::set<std::string> seen;
  auto apply = [&](const SpecLine& line) -> Status {
    const std::vector<std::string>& t = line.tokens;
    const std::string& kind = t[0];
    // Inside a `fault` block every line belongs to the fault grammar, so
    // its directive names (seed, link, ...) never collide with the
    // scenario-level ones.
    if (in_fault) {
      if (kind != "end") return fault::ApplyFaultDirective(t, &*spec.fault);
      if (t.size() != 1) return InvalidArgumentError("'end' takes no arguments");
      in_fault = false;
      return OkStatus();
    }
    if (kind != "traffic" && kind != "noc" && kind != "phase" &&
        !seen.insert(kind).second) {
      return InvalidArgumentError("duplicate '" + kind + "' directive");
    }
    if (kind == "traffic") {
      if (!have_noc) {
        return InvalidArgumentError("'noc' must come before 'traffic'");
      }
      return ParseTraffic(line, &spec);
    }
    if (kind == "phase") return ParsePhase(line, have_duration, &spec);
    if (kind == "fault") {
      if (t.size() != 1) {
        return InvalidArgumentError(
            "'fault' opens a block; directives go on the following lines, "
            "closed with 'end'");
      }
      spec.fault.emplace();
      spec.fault->line = line.number;
      in_fault = true;
      return OkStatus();
    }
    if (kind == "noc" && have_noc) return InvalidArgumentError("duplicate 'noc'");
    have_noc = have_noc || kind == "noc";
    have_duration = have_duration || kind == "duration";
    if (kind == "cfgni") spec.cfg_ni_line = line.number;
    if (kind == "drain") spec.drain_line = line.number;
    return ApplyScalarDirective(t, &spec);
  };
  for (const SpecLine& line : TokenizeSpec(text)) {
    if (Status s = apply(line); !s.ok()) {
      return LineError(line.number, s.message());
    }
  }
  if (in_fault) {
    return LineError(spec.fault->line,
                     "'fault' block is never closed with 'end'");
  }
  if (!have_noc) return InvalidArgumentError("scenario has no 'noc' line");
  if (Status s = ValidateScenario(spec); !s.ok()) return s;
  return spec;
}

Result<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  auto spec = ParseScenario(text.str());
  if (!spec.ok()) {
    return Status(spec.status().code(), path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace aethereal::scenario

// Declarative sweep specification — one small text file turns a scenario
// spec into a parameter study: a base .scn workload, fixed overrides, and
// sweep axes whose cartesian product becomes a grid of independent
// scenario runs (sweep/runner.h executes them on a thread pool and folds
// the per-point results into latency–throughput curves).
//
// Line-based format ('#' starts a comment):
//
//   sweep NAME                    # result label (default "sweep")
//   base FILE.scn                 # base scenario, relative to the .swp file
//   set PARAM VALUE               # fixed override applied to every point
//   axis PARAM V1 V2 ...          # sweep axis (>= 1 value); the cartesian
//                                 # product of all axes is the job grid,
//                                 # last axis fastest (odometer order)
//   saturate PARAM LO HI METRIC BOUND [iters N]
//                                 # bisection search per grid point: the
//                                 # largest PARAM value in [LO, HI] whose
//                                 # METRIC (mean|p99|max flow latency, in
//                                 # cycles) stays <= BOUND. N bisection
//                                 # steps after the endpoints (default 8).
//
// A PARAM value is shorthand for a scenario directive: the sweep turns it
// into that directive's tokens and applies them with the scenario parser's
// own appliers (scenario/spec.h), so a value is valid in a sweep exactly
// when the directive is valid in a .scn file. Traffic knobs apply to
// every directive of the matching injection/QoS kind (and fail if none
// matches), or to one directive with a `gN.` prefix (N = directive index
// in the base file):
//
//   scenario level:  stu queues seed warmup duration netmhz engine
//                                 # `stu 16` -> stu 16, and so on
//                    noc          # star7 -> noc star 7,
//                                 # mesh4x4x1 -> noc mesh 4 4 1,
//                                 # ring6x1 -> noc ring 6 1
//   traffic level:   rate         # 0.05 -> inject bernoulli 0.05
//                                 #   (bernoulli directives)
//                    period       # 8 -> inject periodic 8 (periodic ones)
//                    burst        # 4/48 -> inject bursty 4 48 (bursty ones)
//                    gtslots      # 2 -> qos gt 2 (GT directives)
//                    qos          # be -> qos be, gt2 -> qos gt 2 (any)
//   fault level:     fault.seed     # 7 -> seed 7
//                    fault.corrupt  # 0.001 -> link corrupt 0.001
//                    fault.drop     # 0.001 -> link drop 0.001
//                    fault.cfgdrop  # 0.01 -> config drop 0.01
//       fault keys apply inside the base's fault block, creating it on
//       first use, so a fault-free .scn can be swept straight into a
//       resilience study
//   phase level:     pN.duration / pN.warmup (phased base scenarios; N =
//       phase index) -> the `duration` / `warmup` of phase N's line.
//       Directive indices gN are global across phases, so traffic knobs
//       already scope to one phase's directives — e.g.
//       `axis g2.gtslots 1 2 4` sweeps the slot budget of phase 2's
//       directive when g2 lives in phase 2.
//
// The engine steps on one thread, so a sweep uses cores through its
// worker count (noc_sweep --jobs N), never per point. Every `set`, axis
// value, saturation endpoint and materialized grid point ends in
// scenario::ValidateScenario, so a bad value fails with a line number
// before any job runs and cross-axis combinations are re-validated at
// materialization. Axis order and value order are part of the sweep's
// deterministic identity: the same .swp always expands to the same job
// grid, and the aggregated output is byte-identical for any worker count.
#ifndef AETHEREAL_SWEEP_SPEC_H
#define AETHEREAL_SWEEP_SPEC_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "util/status.h"

namespace aethereal::sweep {

/// Identifies one swept parameter, optionally scoped to a single traffic
/// directive of the base scenario.
struct ParamRef {
  enum class Key {
    // Scenario level.
    kStu,
    kQueues,
    kSeed,
    kWarmup,
    kDuration,
    kNetMhz,
    kNoc,
    kEngine,
    // Traffic level (scoped by `group`, or all matching directives).
    kRate,
    kPeriod,
    kBurst,
    kGtSlots,
    kQos,
    // Fault level (creates the base's fault block on demand).
    kFaultSeed,
    kFaultCorrupt,
    kFaultDrop,
    kFaultCfgDrop,
  };

  Key key = Key::kSeed;
  int group = -1;  // traffic directive index; -1 = all matching directives
  int phase = -1;  // phase index (kDuration/kWarmup of a phased base)

  bool IsTrafficKey() const;
  bool IsFaultKey() const;
  /// Canonical spelling, e.g. "rate", "g0.rate", or "p1.duration".
  std::string Name() const;

  friend bool operator==(const ParamRef&, const ParamRef&) = default;
};

/// Every sweep key, in ParamRef::Key order (the key table behind
/// ParseParamRef and DirectiveTokens).
std::vector<ParamRef::Key> AllParamKeys();

/// Parses "rate", "g2.qos", "stu", ... Fails on unknown keys or a scope
/// prefix on a scenario-level key.
Result<ParamRef> ParseParamRef(const std::string& token);

/// The scenario directive tokens a value of `key` stands for (see the
/// header comment), e.g. burst "4/48" -> {"inject", "bursty", "4", "48"}.
/// Fails only on the sweep's own value syntax; the directive's ranges are
/// the scenario parser's.
Result<std::vector<std::string>> DirectiveTokens(ParamRef::Key key,
                                                 const std::string& value);

/// Applies one parameter value to a scenario spec: its directive tokens go
/// through the scenario parser's appliers on the targeted directive(s),
/// then the result through scenario::ValidateScenario.
Status ApplyParam(const ParamRef& param, const std::string& value,
                  scenario::ScenarioSpec* spec);

/// Full single-value validation: applies `value` to a copy of `base` and
/// dry-runs every pattern expansion, so structurally impossible values
/// (transpose on a non-square mesh, ids off the topology) fail before
/// any job runs. This is what file axes get at parse time; the CLI's
/// --axis overrides go through the same gate.
Status ValidateAxisValue(const ParamRef& param, const std::string& value,
                         const scenario::ScenarioSpec& base);

struct Axis {
  ParamRef param;
  std::vector<std::string> values;  // raw tokens, applied via ApplyParam
  int line = 0;                     // source line (diagnostics only)
};

struct SaturationSpec {
  bool enabled = false;
  ParamRef param;        // must be continuous (rate)
  double lo = 0;
  double hi = 0;
  std::string metric;    // "mean" | "p99" | "max"
  double bound = 0;      // cycles
  int iters = 8;         // bisection steps after probing both endpoints
  int line = 0;          // source line (diagnostics only)
};

struct SweepSpec {
  std::string name = "sweep";
  std::string base_path;          // as written in the .swp file
  scenario::ScenarioSpec base;    // loaded base with `set` overrides applied
  std::vector<Axis> axes;
  SaturationSpec saturation;

  /// Number of grid points (product of axis sizes; 1 with no axes).
  std::size_t NumPoints() const;
};

/// One grid point: the value index chosen on each axis, odometer order
/// (last axis fastest).
struct GridPoint {
  std::size_t index = 0;
  std::vector<std::size_t> choice;  // one entry per axis

  /// The chosen raw value per axis, in axis order.
  std::vector<std::string> Values(const SweepSpec& spec) const;
};

/// Expands the full job grid in deterministic order.
std::vector<GridPoint> ExpandGrid(const SweepSpec& spec);

/// Base spec + this point's axis values -> a runnable scenario spec.
Result<scenario::ScenarioSpec> MaterializePoint(const SweepSpec& spec,
                                                const GridPoint& point);

/// Parses the text form. `load_base` resolves the `base` path to a parsed
/// scenario (the CLI resolves relative to the .swp file's directory).
Result<SweepSpec> ParseSweep(
    const std::string& text,
    const std::function<Result<scenario::ScenarioSpec>(const std::string&)>&
        load_base);

/// Reads and parses a .swp file; `base` paths resolve relative to it.
Result<SweepSpec> LoadSweepFile(const std::string& path);

}  // namespace aethereal::sweep

#endif  // AETHEREAL_SWEEP_SPEC_H

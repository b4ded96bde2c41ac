// Fault model description: what to break, where, and how hard.
//
// A FaultSpec is a declarative, seeded description of the faults injected
// into one run. It deliberately contains no state: the same spec plus the
// same seed produces the same fault pattern on both engines (decisions are
// taken by a stateless hash at engine-invariant points; see injector.h).
//
// Fault models (DESIGN.md §12):
//  * link corrupt RATE          — per delivered flit, flip a payload bit
//  * link drop RATE             — per GT packet on a tapped link, drop whole
//  * router R stall START LEN   — router R accepts no new packets in window
//  * ni N stall START LEN       — NI N grants no scheduler slots in window
//  * config drop RATE           — per CNIP request, discard it
//  * config delay RATE CYCLES   — per CNIP request, hold it CYCLES cycles
//  * retry timeout T max R backoff B — ack timeout/bounded-retry policy for
//    runtime configuration writes (connection_manager)
//
// Scoping notes: wire-level drops are restricted to GT packets because a
// BE flit lost on a link would leak link-level credits and wedge the
// upstream buffer forever (BE loss is modeled by router stall windows,
// which return credits for the flits they discard). Injection links
// (NI -> router) are not tapped: the monitor observes injected traffic on
// those wires, so a fault there would be invisible by construction.
#ifndef AETHEREAL_FAULT_SPEC_H
#define AETHEREAL_FAULT_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/types.h"

namespace aethereal::fault {

/// A half-open cycle window [start, start + length) in which component `id`
/// (a router or NI) is stalled. Cycles are network-clock cycles.
struct StallWindow {
  std::int32_t id = 0;
  Cycle start = 0;
  Cycle length = 0;

  bool Contains(Cycle now) const {
    return now >= start && now < start + length;
  }
};

/// Ack timeout / bounded retry / exponential backoff policy for runtime
/// configuration writes. When enabled, the connection manager issues every
/// register write acknowledged and re-issues any write whose ack has not
/// arrived within timeout * backoff^attempt cycles, up to max_retries
/// re-issues per write.
struct RetryPolicy {
  bool enabled = false;
  Cycle timeout = 512;   // cycles before the first re-issue
  int max_retries = 4;   // re-issues per write after the initial attempt
  int backoff = 2;       // timeout multiplier per attempt (exponential)
};

struct FaultSpec {
  std::uint64_t seed = 1;

  // Link fault models (applied on tapped wires; see scoping notes above).
  double link_corrupt_rate = 0.0;  // per driven data flit with payload
  double link_drop_rate = 0.0;     // per GT packet (header decides)

  // Deterministic stall/freeze windows.
  std::vector<StallWindow> router_stalls;
  std::vector<StallWindow> ni_stalls;

  // CNIP config-message faults (applied per request at the agent).
  double config_drop_rate = 0.0;
  double config_delay_rate = 0.0;
  Cycle config_delay_cycles = 0;

  RetryPolicy retry;

  /// Source line of the `fault` block in a .scn file (diagnostics only; 0
  /// when loaded from a fault file or synthesized).
  int line = 0;

  bool AnyLinkFaults() const {
    return link_corrupt_rate > 0.0 || link_drop_rate > 0.0;
  }
  bool AnyStalls() const {
    return !router_stalls.empty() || !ni_stalls.empty();
  }
  bool AnyNetworkFaults() const { return AnyLinkFaults() || AnyStalls(); }
  bool AnyConfigFaults() const {
    return config_drop_rate > 0.0 || config_delay_rate > 0.0;
  }
  /// True when the spec actually injects or recovers from anything. A spec
  /// that is present but !Enabled() still installs the taps (useful for
  /// byte-identity checks) but records nothing and emits no result section.
  bool Enabled() const {
    return AnyNetworkFaults() || AnyConfigFaults() || retry.enabled;
  }
};

/// Applies one fault directive (a tokenized line from a `fault` block or a
/// fault file) to `spec`. Returns InvalidArgument with a message (no line
/// prefix; the caller owns line numbering) on unknown directives, malformed
/// clauses, or out-of-range values.
Status ApplyFaultDirective(const std::vector<std::string>& tokens,
                           FaultSpec* spec);

/// Parses a standalone fault file: one directive per line, '#' comments,
/// same grammar as the `.scn` fault block (without `fault` / `end`).
/// Errors carry "line N:" prefixes.
Result<FaultSpec> ParseFaultText(const std::string& text);
Result<FaultSpec> LoadFaultFile(const std::string& path);

/// One-line human-readable summary ("corrupt 0.001, drop 0.0005, ...").
std::string Describe(const FaultSpec& spec);

/// Deterministic random fault config for the nightly soak: network faults
/// only (no config faults — those need a phased workload), rates low enough
/// that a small stream scenario stays live. `index` selects the variant.
FaultSpec RandomFaultSpec(std::uint64_t seed, int index, int num_routers,
                          int num_nis, Cycle duration);

}  // namespace aethereal::fault

#endif  // AETHEREAL_FAULT_SPEC_H

// Engine selection for the simulation kernel.
//
// The kernel ships two engine kinds that produce bit-identical results
// (proven by tests/engine_determinism_test.cpp) at different simulation
// speeds:
//
//  * kNaive — the reference semantics: every module evaluates on every
//             edge. Slow, obviously correct; the baseline the gated engine
//             is checked against.
//  * kGated — idle-module gating (DESIGN.md §7): parked modules drop out
//             of flat per-clock activity bitmaps scanned 64 modules per
//             word, so per-edge cost tracks *activity*, not instantiated
//             hardware. The default.
//
// The two differ only in which modules they evaluate: neither has a
// commit phase, since every staged element is stamped (DESIGN.md §6).
//
// Both engines step on one thread. To use several cores, run independent
// simulations side by side with `noc_sweep --jobs N` (DESIGN.md §7.6).
//
// EngineConfig is the engine-selection currency across the stack:
// SocOptions, scenario specs (`engine naive|gated`), the sweep `engine`
// axis and the CLI tools (--engine) all speak it.
#ifndef AETHEREAL_SIM_ENGINE_H
#define AETHEREAL_SIM_ENGINE_H

#include <optional>
#include <string>
#include <string_view>

namespace aethereal::sim {

enum class EngineKind {
  kNaive,
  kGated,
};

/// The engine selection. An alias, not a struct: the kind is the whole
/// selection.
using EngineConfig = EngineKind;

/// Stable lowercase name, matching the spec grammar and --engine values.
constexpr const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kGated:
      return "gated";
  }
  return "unknown";
}

/// Inverse of EngineKindName; nullopt for anything else. `optimized` and
/// `soa` — the names of two earlier gated engines that made the same
/// park/wake decisions — stay accepted as aliases of `gated`, so existing
/// specs and command lines still run.
inline std::optional<EngineKind> ParseEngineKind(std::string_view text) {
  if (text == "naive") return EngineKind::kNaive;
  if (text == "gated" || text == "optimized" || text == "soa") {
    return EngineKind::kGated;
  }
  return std::nullopt;
}

/// The --engine / spec-grammar value set, for help text and error messages.
inline constexpr const char* kEngineKindChoices = "naive|gated";

/// True when `text` is the removed per-run engine thread count as an input
/// spelled it: the spec-grammar keyword and sweep axis, or the CLI flag.
inline bool NamesRemovedThreadCount(std::string_view text) {
  return text == "threads" || text == "--threads";  // see UseJobsInstead
}

/// The error for inputs that still ask for a per-run engine thread count
/// (`what` describes the removed knob). Every input layer — spec grammar,
/// sweep axes, CLI flags — reports the same pointer to the parallelism that
/// does pay off.
inline std::string UseJobsInstead(std::string_view what) {
  std::string message(what);
  message += " is no longer supported (the engine steps on one thread); use "
             "`noc_sweep --jobs N` to run independent simulations on N cores";
  return message;
}

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_ENGINE_H

// Shared CLI layer of the NoC tools (noc_sim, noc_sweep, noc_verify).
//
// The three tools are front-ends over the same scenario stack and must
// speak the same dialect: one --engine grammar (the sim::EngineKind
// choices), one --verify / --fault / -o surface, one way to override a
// scenario field, one usage formatter, and one failure-to-exit-code
// mapping. This header is that
// dialect; each tool keeps only its genuinely tool-specific flags.
//
// Structure:
//  * ArgReader       — argv cursor with the shared "needs a value"
//                      diagnostics and checked integer parsing;
//  * CommonOptions   — the flags every tool accepts, filled by
//                      MatchCommonArg() from inside the tool's arg loop
//                      (tri-state: matched / no match / error);
//  * spec overrides  — flags that override a scenario field (--seed,
//                      --duration, --converge*, ...), kept as raw strings
//                      by MatchSpecFlag() and applied by ApplyOverrides()
//                      as the scenario directives they stand for, so the
//                      scenario parser is their only validator;
//  * PrintUsage      — the one usage formatter (wrapped, aligned);
//  * ExitCodeOf      — consistent exit codes: 0 success, 1 generic
//                      failure, 3 bounded-wait expiry, 4 retry budget
//                      exhausted;
//  * output helpers  — result-document assembly ('-' streams to stdout;
//                      several documents form a JSON array).
#ifndef AETHEREAL_TOOLS_CLI_COMMON_H
#define AETHEREAL_TOOLS_CLI_COMMON_H

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/spec.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "util/parse.h"
#include "util/status.h"

namespace aethereal::cli {

/// Cursor over argv. Owns the shared diagnostics so every tool reports
/// missing or malformed option values with identical wording.
class ArgReader {
 public:
  ArgReader(const char* prog, int argc, char** argv)
      : prog_(prog), argc_(argc), argv_(argv) {}

  const char* prog() const { return prog_; }

  /// Advances to the next argument; false when argv is exhausted.
  bool Next() {
    if (index_ + 1 >= argc_) return false;
    arg_ = argv_[++index_];
    return true;
  }

  /// The current argument.
  const std::string& Arg() const { return arg_; }

  /// True when the current argument looks like an option.
  bool IsOption() const { return !arg_.empty() && arg_[0] == '-'; }

  /// Consumes the next argument as the current option's value; nullptr
  /// (with the shared diagnostic) when argv is exhausted.
  const char* Value() {
    if (index_ + 1 >= argc_) {
      std::cerr << prog_ << ": " << arg_ << " needs a value\n";
      return nullptr;
    }
    return argv_[++index_];
  }

  /// Value() parsed as an unsigned integer in [min, max]; nullopt (with a
  /// diagnostic naming `what`) on anything else.
  std::optional<std::uint64_t> U64Value(
      const char* what, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    const char* v = Value();
    if (v == nullptr) return std::nullopt;
    const auto parsed = ParseU64(v);
    if (!parsed || *parsed < min || *parsed > max) {
      std::cerr << prog_ << ": " << arg_ << " needs " << what << ", got '"
                << v << "'\n";
      return std::nullopt;
    }
    return parsed;
  }

 private:
  const char* prog_;
  int argc_;
  char** argv_;
  int index_ = 0;
  std::string arg_;
};

/// The option surface every tool shares; the grammar and diagnostics are
/// identical everywhere.
struct CommonOptions {
  std::optional<sim::EngineKind> engine;  // --engine (one specific engine)
  bool engine_all = false;                // --engine all (cross-check mode)
  bool verify = false;                    // --verify
  std::string fault_path;                 // --fault FILE ("" = none)
  std::string output_path;                // -o/--output FILE ("" = none)
  /// Raw values of the spec-override flags given (see kSpecFlags), keyed
  /// by flag; a repeated flag keeps its last value.
  std::map<std::string, std::string> spec_flags;
};

enum class Match {
  kNo,     // not a common option; the tool's own loop handles it
  kYes,    // consumed (including any value)
  kError,  // consumed but malformed; diagnostics already printed
};

/// Matches the current argument of `args` against the common option set.
/// `allow_engine_all` admits `--engine all` (noc_verify's cross-check
/// mode, with `both` kept as a deprecated alias for one release).
inline Match MatchCommonArg(ArgReader& args, CommonOptions* out,
                            bool allow_engine_all = false) {
  const std::string& arg = args.Arg();
  if (arg == "-o" || arg == "--output") {
    const char* v = args.Value();
    if (v == nullptr) return Match::kError;
    out->output_path = v;
    return Match::kYes;
  }
  if (arg == "--engine") {
    const char* v = args.Value();
    if (v == nullptr) return Match::kError;
    const std::string engine = v;
    if (allow_engine_all && (engine == "all" || engine == "both")) {
      out->engine_all = true;
      out->engine.reset();
      return Match::kYes;
    }
    const auto parsed = sim::ParseEngineKind(engine);
    if (!parsed.has_value()) {
      std::cerr << args.prog() << ": --engine must be one of "
                << sim::kEngineKindChoices
                << (allow_engine_all ? "|all" : "") << ", got '" << engine
                << "'\n";
      return Match::kError;
    }
    out->engine = *parsed;
    out->engine_all = false;
    return Match::kYes;
  }
  if (sim::NamesRemovedThreadCount(arg)) {
    std::cerr << args.prog() << ": " << sim::UseJobsInstead(arg) << "\n";
    return Match::kError;
  }
  if (arg == "--verify") {
    out->verify = true;
    return Match::kYes;
  }
  if (arg == "--fault") {
    const char* v = args.Value();
    if (v == nullptr) return Match::kError;
    out->fault_path = v;
    return Match::kYes;
  }
  return Match::kNo;
}

/// A flag that overrides one scenario field, and the directive it stands
/// for: `--seed 3` applies as `seed 3`, `--sample-every 300` as `stats
/// sample_every 300`. Listed in the order they apply, so --converge arms
/// the mode before the flags that tune it.
struct SpecFlag {
  const char* flag;
  const char* directive;
};

inline constexpr SpecFlag kSpecFlags[] = {
    {"--seed", "seed"},
    {"--duration", "duration"},
    {"--trace", "trace"},
    {"--sample-every", "stats sample_every"},
    {"--converge", "converge rel_err"},
    {"--converge-conf", "converge conf"},
    {"--converge-max-duration", "converge max_duration"},
    {"--converge-interval", "converge interval"},
    {"--converge-batches", "converge batches"},
};

/// Matches the current argument against the spec-override flags a tool
/// accepts (`accepted`, names from kSpecFlags) and keeps its raw value.
inline Match MatchSpecFlag(ArgReader& args,
                           std::initializer_list<std::string_view> accepted,
                           CommonOptions* out) {
  const std::string& arg = args.Arg();
  if (std::find(accepted.begin(), accepted.end(), arg) == accepted.end()) {
    return Match::kNo;
  }
  const char* v = args.Value();
  if (v == nullptr) return Match::kError;
  out->spec_flags[arg] = v;
  return Match::kYes;
}

/// Applies the command-line overrides to a loaded spec the way the spec's
/// own lines apply: each kept spec-flag value as its directive through
/// scenario::ApplyScalarDirective, then the --fault file's block in place
/// of the spec's, each followed by scenario::ValidateScenario; then
/// --engine and --verify. Errors are prefixed with the flag.
inline Status ApplyOverrides(const CommonOptions& options,
                             const std::optional<fault::FaultSpec>& fault,
                             scenario::ScenarioSpec* spec) {
  const auto checked = [spec](const std::string& flag, Status status) {
    if (status.ok()) status = scenario::ValidateScenario(*spec);
    if (status.ok()) return status;
    return Status(status.code(), flag + ": " + status.message());
  };
  for (const SpecFlag& spec_flag : kSpecFlags) {
    const auto it = options.spec_flags.find(spec_flag.flag);
    if (it == options.spec_flags.end()) continue;
    std::vector<std::string> tokens;
    std::istringstream directive(spec_flag.directive);
    for (std::string token; directive >> token;) tokens.push_back(token);
    tokens.push_back(it->second);
    if (Status s = checked(spec_flag.flag,
                           scenario::ApplyScalarDirective(tokens, spec));
        !s.ok()) {
      return s;
    }
  }
  if (fault.has_value()) {
    spec->fault = fault;
    if (Status s = checked("--fault " + options.fault_path, OkStatus());
        !s.ok()) {
      return s;
    }
  }
  if (options.engine) spec->engine = *options.engine;
  if (options.verify) spec->verify = true;
  return OkStatus();
}

/// The one usage formatter: "usage: PROG PIECE PIECE ...", wrapped at 78
/// columns with continuation lines aligned under the first piece.
inline void PrintUsage(std::ostream& os, const char* prog,
                       const std::vector<std::string>& pieces) {
  const std::string head = std::string("usage: ") + prog + " ";
  const std::string indent(head.size(), ' ');
  std::string line = head;
  bool line_has_piece = false;
  for (const std::string& piece : pieces) {
    if (line_has_piece && line.size() + 1 + piece.size() > 78) {
      os << line << "\n";
      line = indent;
      line_has_piece = false;
    }
    if (line_has_piece) line += " ";
    line += piece;
    line_has_piece = true;
  }
  os << line << "\n";
}

/// CLI exit code of a failed run: bounded-wait expiries and exhausted
/// retry budgets get their own codes so scripts can tell "the workload is
/// wedged" from "the spec is wrong" without parsing stderr.
inline int ExitCodeOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kTimeout:
      return 3;
    case StatusCode::kRetriesExhausted:
      return 4;
    default:
      return 1;
  }
}

/// Loads a --fault FILE override; nullopt (diagnostics printed) on error.
inline std::optional<fault::FaultSpec> LoadFaultOverride(
    const char* prog, const std::string& path) {
  auto loaded = fault::LoadFaultFile(path);
  if (!loaded.ok()) {
    std::cerr << prog << ": --fault " << path << ": " << loaded.status()
              << "\n";
    return std::nullopt;
  }
  return std::move(*loaded);
}

/// Assembles the output document: a single result stays a bare object; a
/// batch becomes a JSON array of them.
inline std::string JoinJsonDocuments(const std::vector<std::string>& jsons) {
  if (jsons.size() == 1) return jsons.front();
  std::string document = "[\n";
  for (std::size_t i = 0; i < jsons.size(); ++i) {
    std::string entry = jsons[i];
    if (!entry.empty() && entry.back() == '\n') entry.pop_back();
    document += entry;
    document += i + 1 < jsons.size() ? ",\n" : "\n";
  }
  document += "]\n";
  return document;
}

/// Writes `content` to `path`; '-' streams to stdout. Returns false (with
/// diagnostics) on I/O failure; announces the file unless quiet.
inline bool WriteOutput(const char* prog, const std::string& path,
                        const std::string& content, bool quiet) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(path);
  out << content;
  out.flush();
  if (!out.good()) {
    std::cerr << prog << ": failed writing '" << path << "'\n";
    return false;
  }
  if (!quiet) std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace aethereal::cli

#endif  // AETHEREAL_TOOLS_CLI_COMMON_H

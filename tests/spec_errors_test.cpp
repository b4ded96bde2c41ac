// Error-path coverage for the scenario (and sweep) spec parsers: malformed
// keys, out-of-range values, and duplicate directives must produce clear
// diagnostics with line numbers — never silent defaults. A scenario file
// is the experiment record; a typo that parses is a corrupted experiment.
// A generated test at the end checks that every sweep key accepts exactly
// the values its .scn directive accepts, with the parser's message.
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/patterns.h"
#include "scenario/spec.h"
#include "sweep/spec.h"
#include "util/rng.h"

namespace aethereal::scenario {
namespace {

/// Asserts `text` fails to parse and the message carries `needle` (and a
/// line number when `line` >= 0).
void ExpectError(const std::string& text, const std::string& needle,
                 int line = -1) {
  auto spec = ParseScenario(text);
  ASSERT_FALSE(spec.ok()) << "expected failure containing '" << needle
                          << "' for:\n"
                          << text;
  EXPECT_NE(spec.status().message().find(needle), std::string::npos)
      << spec.status();
  if (line >= 0) {
    EXPECT_NE(spec.status().message().find("line " + std::to_string(line)),
              std::string::npos)
        << spec.status();
  }
}

constexpr char kValid[] = R"(
scenario ok
noc star 4
traffic neighbor inject periodic 8 qos be
)";

TEST(SpecErrorsTest, ValidBaselineParses) {
  auto spec = ParseScenario(kValid);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "ok");
  EXPECT_EQ(spec->traffic.size(), 1u);
}

TEST(SpecErrorsTest, UnknownDirective) {
  ExpectError("scenario x\nnock star 4\n", "unknown directive 'nock'", 2);
}

TEST(SpecErrorsTest, UnknownPatternAndClause) {
  ExpectError("noc star 4\ntraffic uniformm\n", "unknown pattern", 2);
  ExpectError("noc star 4\ntraffic uniform qis be\n", "unknown clause", 2);
}

TEST(SpecErrorsTest, MissingStructure) {
  ExpectError("scenario x\n", "no 'noc' line");
  ExpectError("noc star 4\n", "no 'traffic' directives");
  ExpectError("traffic uniform\n", "'noc' must come before 'traffic'", 1);
}

TEST(SpecErrorsTest, DuplicateDirectives) {
  ExpectError("noc star 4\nnoc star 5\ntraffic uniform\n", "duplicate 'noc'",
              2);
  ExpectError("scenario a\nscenario b\nnoc star 4\ntraffic uniform\n",
              "duplicate 'scenario' directive", 2);
  ExpectError("seed 1\nnoc star 4\nseed 2\ntraffic uniform\n",
              "duplicate 'seed' directive", 3);
  ExpectError("stu 8\nstu 16\nnoc star 4\ntraffic uniform\n",
              "duplicate 'stu' directive", 2);
  ExpectError("duration 100\nnoc star 4\nduration 200\ntraffic uniform\n",
              "duplicate 'duration' directive", 3);
}

TEST(SpecErrorsTest, MalformedNumbers) {
  ExpectError("noc star four\ntraffic uniform\n", "expected a number", 1);
  ExpectError("noc star 4\nseed 12x\ntraffic uniform\n", "expected a number",
              2);
  ExpectError("noc star 4\ntraffic uniform inject bernoulli fast\n",
              "expected a number", 2);
}

// Regression: router radix above 32 used to parse, then abort on the
// router's 32-bit port-mask CHECK at build time.
TEST(SpecErrorsTest, RouterRadixAbove32) {
  ExpectError("noc star 40\ntraffic uniform\n", "router radix 40 exceeds 32",
              1);
  ExpectError("scenario x\nnoc mesh 2 2 30\ntraffic uniform\n",
              "router radix 34 exceeds 32", 2);
  ExpectError("noc ring 3 31\ntraffic neighbor\n",
              "router radix 33 exceeds 32", 1);
  // The largest legal radix of each topology still parses.
  for (const char* noc : {"noc star 32", "noc mesh 1 2 28", "noc ring 3 30"}) {
    auto spec = ParseScenario(std::string(noc) + "\ntraffic uniform\n");
    EXPECT_TRUE(spec.ok()) << noc << ": " << spec.status();
  }
}

TEST(SpecErrorsTest, SweepRouterRadixAbove32) {
  const auto load_base = [](const std::string&) {
    return ParseScenario("noc star 4\ntraffic uniform\n");
  };
  const auto expect = [&](const std::string& text, const std::string& needle,
                          int line) {
    auto sweep = sweep::ParseSweep(text, load_base);
    ASSERT_FALSE(sweep.ok()) << text;
    EXPECT_NE(sweep.status().message().find(needle), std::string::npos)
        << sweep.status();
    EXPECT_NE(sweep.status().message().find("line " + std::to_string(line)),
              std::string::npos)
        << sweep.status();
  };
  expect("sweep s\nbase b.scn\naxis noc star7 star40\n",
         "router radix 40 exceeds 32", 3);
  expect("sweep s\nbase b.scn\nset noc mesh2x2x30\n",
         "router radix 34 exceeds 32", 3);
  auto ok = sweep::ParseSweep("sweep s\nbase b.scn\naxis noc star7 star32\n",
                              load_base);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(SpecErrorsTest, SweepSaturateEndpointNamesItsLine) {
  const auto load_base = [](const std::string&) {
    return ParseScenario("noc star 4\ntraffic uniform\n");
  };
  auto sweep = sweep::ParseSweep(
      "sweep s\nbase b.scn\nsaturate rate 0 1 p99 100\n", load_base);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find(
                "saturate endpoint: rate must be in (0, 1]"),
            std::string::npos)
      << sweep.status();
  EXPECT_NE(sweep.status().message().find("line 3"), std::string::npos)
      << sweep.status();
}

TEST(SpecErrorsTest, OutOfRangeScalars) {
  ExpectError("noc star 0\ntraffic uniform\n", "star needs 1..", 1);
  ExpectError("noc star 9999\ntraffic uniform\n", "star needs 1..", 1);
  ExpectError("noc mesh 100 100 100\ntraffic uniform\n", "at most", 1);
  ExpectError("noc ring 2 1\ntraffic neighbor\n", "out of range", 1);
  ExpectError("stu 0\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  ExpectError("stu 2048\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  // Regression (found by the verification fuzzing work): 33..1024 used to
  // parse, then abort on the NI kernel's 32-bit SLOTS-mask CHECK — a crash
  // reachable from any spec file, even under --validate.
  ExpectError("stu 64\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  ExpectError("stu 33\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  ExpectError("queues 0\nnoc star 4\ntraffic uniform\n", "queues must be in",
              1);
  ExpectError("seed -1\nnoc star 4\ntraffic uniform\n", "seed must be >= 0",
              1);
  ExpectError("warmup -5\nnoc star 4\ntraffic uniform\n", "warmup must be in",
              1);
  ExpectError("duration 0\nnoc star 4\ntraffic uniform\n",
              "duration must be in", 1);
  ExpectError("duration 1099511627777\nnoc star 4\ntraffic uniform\n",
              "duration must be in", 1);
  ExpectError("netmhz 0\nnoc star 4\ntraffic uniform\n", "netmhz must be in",
              1);
}

TEST(SpecErrorsTest, OutOfRangeClauses) {
  ExpectError("noc star 4\ntraffic uniform inject periodic 0\n",
              "period must be >= 1", 2);
  ExpectError("noc star 4\ntraffic uniform inject bernoulli 0\n",
              "rate must be in (0, 1]", 2);
  ExpectError("noc star 4\ntraffic uniform inject bernoulli 1.5\n",
              "rate must be in (0, 1]", 2);
  ExpectError("noc star 4\ntraffic uniform inject bursty 0 10\n",
              "bursty needs WORDS >= 1", 2);
  ExpectError("noc star 4\ntraffic uniform qos gt 0\n", "out of range", 2);
  ExpectError("noc star 4\ntraffic uniform data_threshold 0\n",
              "out of range", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 burst 63\n", "out of range", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 read_fraction 1.5\n",
              "read_fraction must be in [0, 1]", 2);
}

TEST(SpecErrorsTest, MissingClauseArguments) {
  ExpectError("noc star 4\ntraffic uniform inject\n", "missing arguments", 2);
  ExpectError("noc star 4\ntraffic uniform inject periodic\n",
              "missing arguments", 2);
  ExpectError("noc star 4\ntraffic uniform qos\n", "missing arguments", 2);
  ExpectError("noc star 4\ntraffic uniform qos gt\n", "missing arguments", 2);
}

TEST(SpecErrorsTest, PatternArgumentConstraints) {
  ExpectError("noc star 4\ntraffic hotspot\n", "exactly one target NI", 2);
  ExpectError("noc star 4\ntraffic hotspot 1 2\n", "exactly one target NI",
              2);
  ExpectError("noc star 4\ntraffic pairs 0 1 2\n", "even NI-id list", 2);
  ExpectError("noc star 4\ntraffic video 0\n", "chain of >= 2 NIs", 2);
  ExpectError("noc star 4\ntraffic memory 0\n", "<master_ni> <slave_ni>", 2);
}

TEST(SpecErrorsTest, PatternClauseMismatches) {
  ExpectError("noc star 4\ntraffic uniform inject closed\n",
              "memory-pattern only", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 inject bursty 4 64\n",
              "memory traffic supports", 2);
  ExpectError("noc star 4\ntraffic uniform read_fraction 0.5\n",
              "memory-only", 2);
  ExpectError("noc star 4\ntraffic uniform burst 4\n", "memory-only", 2);
}

TEST(SpecErrorsTest, FaultBlockErrors) {
  const std::string head = "noc star 4\ntraffic uniform\n";
  // Unknown directives and malformed clauses inside the block carry the
  // offending line's number, not the block's.
  ExpectError(head + "fault\nzap 0.1\nend\n",
              "unknown fault directive 'zap'", 4);
  ExpectError(head + "fault\nlink corrupt 1.5\nend\n",
              "link corrupt rate must be a number in [0, 1]", 4);
  ExpectError(head + "fault\nlink melt 0.5\nend\n",
              "expected 'link corrupt RATE' or 'link drop RATE'", 4);
  ExpectError(head + "fault\nrouter 0 stall 10 0\nend\n",
              "stall length must be a positive cycle", 4);
  ExpectError(head + "fault\nretry timeout 0 max 4 backoff 2\nend\n",
              "retry timeout must be a positive cycle", 4);
  ExpectError(head + "fault\nconfig drop 0.1 extra\nend\n",
              "expected 'config drop RATE' or 'config delay RATE CYCLES'",
              4);
  // Block-structure errors point at the structural line.
  ExpectError(head + "fault now\n",
              "'fault' opens a block", 3);
  ExpectError(head + "fault\nseed 7\n",
              "'fault' block is never closed with 'end'", 3);
  ExpectError(head + "fault\nend\nfault\nend\n", "duplicate 'fault'", 5);
  ExpectError(head + "fault\nend extra\n", "'end' takes no arguments", 4);
  // Config faults and the retry policy need a phased scenario.
  ExpectError(head + "fault\nconfig drop 0.1\nend\n",
              "only phased scenarios", 3);
  ExpectError(head + "fault\nretry timeout 512 max 4 backoff 2\nend\n",
              "only phased scenarios", 3);
}

TEST(SpecErrorsTest, FaultBlockParses) {
  auto spec = ParseScenario(
      "noc star 4\ntraffic neighbor qos gt 1\n"
      "fault\n"
      "seed 7\n"
      "link corrupt 0.001\n"
      "link drop 0.0005\n"
      "router 0 stall 1000 64\n"
      "ni 2 stall 500 32\n"
      "end\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_TRUE(spec->fault.has_value());
  EXPECT_EQ(spec->fault->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->fault->link_corrupt_rate, 0.001);
  EXPECT_DOUBLE_EQ(spec->fault->link_drop_rate, 0.0005);
  ASSERT_EQ(spec->fault->router_stalls.size(), 1u);
  EXPECT_EQ(spec->fault->router_stalls[0].id, 0);
  ASSERT_EQ(spec->fault->ni_stalls.size(), 1u);
  EXPECT_EQ(spec->fault->ni_stalls[0].start, 500);
  EXPECT_TRUE(spec->fault->Enabled());
}

TEST(SpecErrorsTest, FileErrorsCarryPath) {
  auto spec = LoadScenarioFile("/nonexistent/missing.scn");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
  EXPECT_NE(spec.status().message().find("missing.scn"), std::string::npos);
}

TEST(SpecErrorsTest, MalformedStatsDirective) {
  ExpectError("noc star 4\nstats\ntraffic uniform\n",
              "stats sample_every <cycles>", 2);
  ExpectError("noc star 4\nstats every 10\ntraffic uniform\n",
              "stats sample_every <cycles>", 2);
  // Windows shorter than one slot (kFlitWords cycles) cannot close on a
  // slot boundary.
  ExpectError("noc star 4\nstats sample_every 1\ntraffic uniform\n",
              "out of range", 2);
  ExpectError("noc star 4\nstats sample_every ten\ntraffic uniform\n",
              "expected a number", 2);
  ExpectError(
      "noc star 4\nstats sample_every 30\nstats sample_every 60\n"
      "traffic uniform\n",
      "duplicate 'stats' directive", 3);
}

TEST(SpecErrorsTest, MalformedTraceDirective) {
  ExpectError("noc star 4\ntrace\ntraffic uniform\n",
              "trace <file> [cap <events>]", 2);
  ExpectError("noc star 4\ntrace t.json cap\ntraffic uniform\n",
              "trace <file> [cap <events>]", 2);
  ExpectError("noc star 4\ntrace t.json limit 10\ntraffic uniform\n",
              "expected 'cap <events>'", 2);
  ExpectError("noc star 4\ntrace t.json cap 0\ntraffic uniform\n",
              "out of range", 2);
  ExpectError(
      "noc star 4\ntrace a.json\ntrace b.json\ntraffic uniform\n",
      "duplicate 'trace' directive", 3);
}

TEST(SpecErrorsTest, StatsAndTraceParse) {
  auto spec = ParseScenario(
      "noc star 4\nstats sample_every 30\ntrace t.json cap 512\n"
      "traffic uniform\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->obs.sample_every, 30);
  EXPECT_EQ(spec->obs.trace_path, "t.json");
  EXPECT_EQ(spec->obs.trace_cap, 512);
  EXPECT_TRUE(spec->obs.SamplingEnabled());
  EXPECT_TRUE(spec->obs.TracingEnabled());
  EXPECT_TRUE(spec->obs.Enabled());
  // The kill switch: no stats/trace lines -> fully disabled.
  auto off = ParseScenario("noc star 4\ntraffic uniform\n");
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_FALSE(off->obs.Enabled());
}

TEST(SpecErrorsTest, EngineDirectiveParses) {
  auto naive = ParseScenario("noc star 4\nengine naive\ntraffic uniform\n");
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(naive->engine, sim::EngineKind::kNaive);
  // `optimized` and `soa` are kept as aliases of gated so existing specs
  // still run.
  for (const char* name : {"gated", "optimized", "soa"}) {
    auto spec = ParseScenario(std::string("noc star 4\nengine ") + name +
                              "\ntraffic uniform\n");
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status();
    EXPECT_EQ(spec->engine, sim::EngineKind::kGated) << name;
  }
  // No engine line: the gated engine.
  auto fallback = ParseScenario("noc star 4\ntraffic uniform\n");
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_EQ(fallback->engine, sim::EngineKind::kGated);
}

TEST(SpecErrorsTest, EngineDirectiveErrors) {
  ExpectError("noc star 4\nengine warp\ntraffic uniform\n",
              "engine <naive|gated>", 2);
  ExpectError("noc star 4\nengine soa 4\ntraffic uniform\n",
              "engine <naive|gated>", 2);
  ExpectError("noc star 4\nengine\ntraffic uniform\n",
              "engine <naive|gated>", 2);
  // The removed per-run thread count fails cleanly, on any engine and at
  // any count, and points to whole-run parallelism instead.
  ExpectError("noc star 4\nengine soa threads 4\n", "noc_sweep --jobs", 2);
  ExpectError("noc star 4\nengine gated threads 1\n", "noc_sweep --jobs", 2);
  ExpectError("noc star 4\nengine naive threads 0\n", "noc_sweep --jobs", 2);
}

// ---------------------------------------------------------------------------
// Sweep keys and .scn directives agree
// ---------------------------------------------------------------------------

/// A sweep value is shorthand for a directive, so `set KEY V` / `axis KEY
/// V` and the directive written in a .scn file must accept the same values
/// and reject the rest with the parser's text. The cases come from the
/// sweep key table: each key's value range is found by searching what the
/// .scn side accepts, then lo-1, lo, hi, hi+1 and a non-number are checked
/// on both sides, on a static and on a phased base.
class SweepAgreement {
 public:
  SweepAgreement(const sweep::ParamRef& param, bool phased)
      : param_(param), phased_(phased) {}

  /// The .scn verdict for `value`: parse plus the pattern dry-run the sweep
  /// gives its base and every axis value.
  Status Scn(const std::string& value) const {
    auto tokens = sweep::DirectiveTokens(param_.key, value);
    if (!tokens.ok()) return tokens.status();
    auto spec = ParseScenario(Text(&*tokens));
    if (!spec.ok()) return spec.status();
    Rng rng(spec->seed);
    for (const TrafficSpec& traffic : spec->traffic) {
      if (auto flows = ExpandPattern(*spec, traffic, rng); !flows.ok()) {
        return flows.status();
      }
    }
    return OkStatus();
  }

  void ExpectAgreement(const std::string& value) const {
    const Status scn = Scn(value);
    std::string parser_text = scn.message();
    if (parser_text.rfind("line ", 0) == 0) {
      parser_text.erase(0, parser_text.find(": ") + 2);
    }
    for (const std::string form : {"set", "axis"}) {
      auto sweep = sweep::ParseSweep(
          "sweep s\nbase b.scn\n" + form + " " + param_.Name() + " " +
              value + "\n",
          [&](const std::string&) { return ParseScenario(Text(nullptr)); });
      const std::string where = form + " " + param_.Name() + " " + value +
                                (phased_ ? " (phased base)" : "");
      EXPECT_EQ(sweep.ok(), scn.ok())
          << where << "\n  .scn: " << scn << "\n  .swp: " << sweep.status();
      if (!sweep.ok() && !scn.ok()) {
        EXPECT_NE(sweep.status().message().find(parser_text),
                  std::string::npos)
            << where << "\n  .scn: " << scn << "\n  .swp: " << sweep.status();
      }
    }
  }

 private:
  /// The base scenario, with `tokens` (the value's directive) written
  /// where the key's directive goes; nullptr gives the base itself.
  std::string Text(const std::vector<std::string>* tokens) const {
    const auto join = [](const std::vector<std::string>& t) {
      std::string out;
      for (const std::string& token : t) out += " " + token;
      return out;
    };
    const bool noc = param_.key == sweep::ParamRef::Key::kNoc;
    std::string text = tokens != nullptr && noc ? join(*tokens).substr(1)
                                                : "noc star 4";
    if (phased_) {
      text += "\nphase a duration 100";
      if (param_.phase >= 0 && tokens != nullptr) {
        const bool warmup = (*tokens)[0] == "warmup";
        text = text.substr(0, text.rfind("duration")) +
               (warmup ? "duration 100" : "") + join(*tokens);
      }
    }
    // The directive a traffic key targets, then the key's own clause.
    text += "\ntraffic pairs 0 1 inject periodic 8";
    if (param_.IsTrafficKey()) {
      const std::string sample =
          param_.key == sweep::ParamRef::Key::kBurst ? "1/48"
          : param_.key == sweep::ParamRef::Key::kQos ? "gt1"
                                                     : "1";
      text += join(*sweep::DirectiveTokens(param_.key, sample));
      if (tokens != nullptr) text += join(*tokens);
    }
    if (tokens != nullptr && param_.IsFaultKey()) {
      text += "\nfault\n" + join(*tokens).substr(1) + "\nend";
    } else if (tokens != nullptr && !noc && !param_.IsTrafficKey() &&
               param_.phase < 0) {
      text += "\n" + join(*tokens).substr(1);
    }
    return text + "\n";
  }

  sweep::ParamRef param_;
  bool phased_;
};

/// The integer interval [lo, hi] `accepts` takes around one of a few
/// samples; nullopt when it takes none of them.
std::optional<std::pair<std::int64_t, std::int64_t>> AcceptedRange(
    const std::function<bool(std::int64_t)>& accepts) {
  std::optional<std::int64_t> sample;
  for (std::int64_t n : {1, 0, 3, 8, 100}) {
    if (accepts(n)) {
      sample = n;
      break;
    }
  }
  if (!sample.has_value()) return std::nullopt;
  const auto edge = [&](std::int64_t good, std::int64_t bad) {
    if (accepts(bad)) return bad;
    while ((bad > good ? bad - good : good - bad) > 1) {
      const std::int64_t mid = good + (bad - good) / 2;
      (accepts(mid) ? good : bad) = mid;
    }
    return good;
  };
  return std::pair{edge(*sample, -(std::int64_t{1} << 62)),
                   edge(*sample, std::numeric_limits<std::int64_t>::max())};
}

/// How a number is written as a value of `key` ({} marks the number).
std::vector<std::string> ValueForms(sweep::ParamRef::Key key) {
  switch (key) {
    case sweep::ParamRef::Key::kNoc:
      return {"star{}", "ring{}x1", "mesh{}x1x1"};
    case sweep::ParamRef::Key::kBurst:
      return {"{}/48", "4/{}"};
    case sweep::ParamRef::Key::kQos:
      return {"gt{}"};
    default:
      return {"{}"};
  }
}

std::string Fill(const std::string& form, const std::string& number) {
  std::string value = form;
  return value.replace(value.find("{}"), 2, number);
}

TEST(SpecErrorsTest, SweepKeysAcceptWhatTheirDirectiveAccepts) {
  std::vector<sweep::ParamRef> params;
  for (sweep::ParamRef::Key key : sweep::AllParamKeys()) {
    params.push_back({key, -1, -1});
    if (key == sweep::ParamRef::Key::kDuration ||
        key == sweep::ParamRef::Key::kWarmup) {
      params.push_back({key, -1, 0});  // p0.duration / p0.warmup
    }
  }
  for (const sweep::ParamRef& param : params) {
    for (bool phased : {false, true}) {
      if (param.phase >= 0 && !phased) continue;
      const SweepAgreement agreement(param, phased);
      for (const std::string& form : ValueForms(param.key)) {
        std::vector<std::string> numbers = {"1", "8"};
        const auto range = AcceptedRange([&](std::int64_t n) {
          return agreement.Scn(Fill(form, std::to_string(n))).ok();
        });
        if (range.has_value()) {
          const auto [lo, hi] = *range;
          numbers = {std::to_string(lo - 1), std::to_string(lo),
                     std::to_string(hi),
                     std::to_string(static_cast<std::uint64_t>(hi) + 1)};
        }
        numbers.push_back("x");
        for (const std::string& number : numbers) {
          agreement.ExpectAgreement(Fill(form, number));
        }
      }
      // A router radix above 32 on every topology, and the named values.
      for (const char* value : {"mesh1x2x29", "ring3x31", "naive", "be"}) {
        if ((param.key == sweep::ParamRef::Key::kNoc && value[0] != 'n' &&
             value[0] != 'b') ||
            (param.key == sweep::ParamRef::Key::kEngine &&
             value[0] == 'n') ||
            (param.key == sweep::ParamRef::Key::kQos && value[0] == 'b')) {
          agreement.ExpectAgreement(value);
        }
      }
    }
  }
}

}  // namespace
}  // namespace aethereal::scenario

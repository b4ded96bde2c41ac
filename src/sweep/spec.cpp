#include "sweep/spec.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "scenario/patterns.h"
#include "util/json.h"
#include "util/rng.h"

namespace aethereal::sweep {

using scenario::InjectKind;
using scenario::LineError;
using scenario::ScenarioSpec;
using scenario::TrafficSpec;

namespace {

/// One row of the sweep key table: the key's spelling and the scenario
/// directive its values stand for (the tokens the value follows). Traffic
/// keys also say which directives they apply to.
struct KeySyntax {
  const char* name;
  const char* directive;
  const char* targets = nullptr;
  bool (*matches)(const TrafficSpec&) = nullptr;
};

/// Indexed by ParamRef::Key.
constexpr KeySyntax kKeys[] = {
    {"stu", "stu"},
    {"queues", "queues"},
    {"seed", "seed"},
    {"warmup", "warmup"},
    {"duration", "duration"},
    {"netmhz", "netmhz"},
    {"noc", "noc"},
    {"engine", "engine"},
    {"rate", "inject bernoulli", "a bernoulli directive",
     [](const TrafficSpec& t) { return t.inject == InjectKind::kBernoulli; }},
    {"period", "inject periodic", "a periodic directive",
     [](const TrafficSpec& t) { return t.inject == InjectKind::kPeriodic; }},
    {"burst", "inject bursty", "a bursty directive",
     [](const TrafficSpec& t) { return t.inject == InjectKind::kBursty; }},
    {"gtslots", "qos gt", "a GT directive",
     [](const TrafficSpec& t) { return t.gt; }},
    {"qos", "qos", "a traffic directive",
     [](const TrafficSpec&) { return true; }},
    {"fault.seed", "seed"},
    {"fault.corrupt", "link corrupt"},
    {"fault.drop", "link drop"},
    {"fault.cfgdrop", "config drop"},
};

const KeySyntax& SyntaxOf(ParamRef::Key key) {
  return kKeys[static_cast<std::size_t>(key)];
}

/// Applies directive tokens to the traffic directives a traffic key
/// targets: the scoped one, or every matching one. Fails when nothing
/// matches, so a sweep never silently leaves the workload unchanged.
Status ApplyToTargets(const ParamRef& param,
                      const std::vector<std::string>& tokens,
                      ScenarioSpec* spec) {
  const KeySyntax& syntax = SyntaxOf(param.key);
  // A bad value is reported as such even when no directive matches.
  const auto no_target = [&](const std::string& message) {
    TrafficSpec scratch;
    Status s = scenario::ApplyTrafficClauses(tokens, 0, &scratch);
    return s.ok() ? InvalidArgumentError(message) : s;
  };
  if (param.group >= 0) {
    if (static_cast<std::size_t>(param.group) >= spec->traffic.size()) {
      return no_target(param.Name() + ": base scenario has " +
                       std::to_string(spec->traffic.size()) +
                       " traffic directives");
    }
    TrafficSpec* traffic = &spec->traffic[static_cast<std::size_t>(param.group)];
    if (!syntax.matches(*traffic)) {
      return no_target(param.Name() + ": directive g" +
                       std::to_string(param.group) + " is not " +
                       syntax.targets);
    }
    return scenario::ApplyTrafficClauses(tokens, 0, traffic);
  }
  bool any = false;
  for (TrafficSpec& traffic : spec->traffic) {
    if (!syntax.matches(traffic)) continue;
    if (Status s = scenario::ApplyTrafficClauses(tokens, 0, &traffic);
        !s.ok()) {
      return s;
    }
    any = true;
  }
  if (!any) {
    return no_target("'" + param.Name() + "': no traffic directive is " +
                     syntax.targets);
  }
  return OkStatus();
}

}  // namespace

bool ParamRef::IsTrafficKey() const {
  return SyntaxOf(key).matches != nullptr;
}

bool ParamRef::IsFaultKey() const {
  return std::string_view(SyntaxOf(key).name).starts_with("fault.");
}

std::string ParamRef::Name() const {
  std::string name;
  if (group >= 0) name = "g" + std::to_string(group) + ".";
  if (phase >= 0) name = "p" + std::to_string(phase) + ".";
  name += SyntaxOf(key).name;
  return name;
}

std::vector<ParamRef::Key> AllParamKeys() {
  std::vector<ParamRef::Key> keys;
  for (std::size_t k = 0; k < std::size(kKeys); ++k) {
    keys.push_back(static_cast<ParamRef::Key>(k));
  }
  return keys;
}

Result<ParamRef> ParseParamRef(const std::string& token) {
  ParamRef param;
  std::string key = token;
  const auto dot = token.find('.');
  if (token.size() >= 2 && (token[0] == 'g' || token[0] == 'p') &&
      std::isdigit(static_cast<unsigned char>(token[1])) != 0 &&
      dot != std::string::npos) {
    // Out-of-range indices fail when the key is applied to a base.
    auto index = scenario::ParseIntIn(token.substr(1, dot - 1), 0,
                                      std::numeric_limits<int>::max());
    if (!index.ok()) return index.status();
    (token[0] == 'g' ? param.group : param.phase) = static_cast<int>(*index);
    key = token.substr(dot + 1);
  }
  for (ParamRef::Key candidate : AllParamKeys()) {
    if (key != SyntaxOf(candidate).name) continue;
    param.key = candidate;
    if (param.group >= 0 && !param.IsTrafficKey()) {
      return InvalidArgumentError("'" + key +
                                  "' is scenario-level; it cannot be "
                                  "scoped to a traffic directive");
    }
    if (param.phase >= 0 && param.key != ParamRef::Key::kDuration &&
        param.key != ParamRef::Key::kWarmup) {
      return InvalidArgumentError(
          "only duration/warmup can be scoped to a phase, not '" + key + "'");
    }
    return param;
  }
  if (sim::NamesRemovedThreadCount(key)) {
    return InvalidArgumentError(
        sim::UseJobsInstead("the engine thread-count sweep axis '" + token +
                            "'"));
  }
  return InvalidArgumentError("unknown sweep parameter '" + token + "'");
}

Result<std::vector<std::string>> DirectiveTokens(ParamRef::Key key,
                                                 const std::string& value) {
  // The directive's own tokens: one word, or two split at the space.
  const std::string_view directive = SyntaxOf(key).directive;
  const std::size_t space = std::min(directive.find(' '), directive.size());
  std::vector<std::string> tokens;
  tokens.reserve(5);
  tokens.emplace_back(directive.substr(0, space));
  if (space < directive.size()) {
    tokens.emplace_back(directive.substr(space + 1));
  }
  switch (key) {
    case ParamRef::Key::kNoc: {
      // star7 -> noc star 7; mesh4x4x1 -> noc mesh 4 4 1; ring6x1 -> ...
      std::size_t at = 0;
      while (at < value.size() &&
             std::isalpha(static_cast<unsigned char>(value[at])) != 0) {
        ++at;
      }
      tokens.push_back(value.substr(0, at));
      while (at < value.size()) {
        const std::size_t x = std::min(value.find('x', at), value.size());
        tokens.push_back(value.substr(at, x - at));
        at = x + 1;
      }
      return tokens;
    }
    case ParamRef::Key::kBurst: {
      // 4/48 -> inject bursty 4 48
      const auto slash = value.find('/');
      if (slash == std::string::npos) {
        return InvalidArgumentError("burst value must be WORDS/GAP, got '" +
                                    value + "'");
      }
      tokens.push_back(value.substr(0, slash));
      tokens.push_back(value.substr(slash + 1));
      return tokens;
    }
    case ParamRef::Key::kQos:
      // be -> qos be; gt2 -> qos gt 2
      if (value == "be") {
        tokens.push_back(value);
      } else if (value.size() > 2 && value.compare(0, 2, "gt") == 0) {
        tokens.push_back("gt");
        tokens.push_back(value.substr(2));
      } else {
        return InvalidArgumentError("qos value must be 'be' or 'gtN', got '" +
                                    value + "'");
      }
      return tokens;
    default:
      tokens.push_back(value);
      return tokens;
  }
}

Status ApplyParam(const ParamRef& param, const std::string& value,
                  ScenarioSpec* spec) {
  auto tokens = DirectiveTokens(param.key, value);
  if (!tokens.ok()) return tokens.status();
  Status applied;
  if (param.phase >= 0) {
    if (static_cast<std::size_t>(param.phase) >= spec->phases.size()) {
      return InvalidArgumentError(param.Name() + ": base scenario has " +
                                  std::to_string(spec->phases.size()) +
                                  " phases");
    }
    applied = scenario::ApplyPhaseTiming(
        *tokens, 0, &spec->phases[static_cast<std::size_t>(param.phase)]);
  } else if (param.IsTrafficKey()) {
    applied = ApplyToTargets(param, *tokens, spec);
  } else if (param.IsFaultKey()) {
    if (!spec->fault.has_value()) spec->fault.emplace();
    applied = fault::ApplyFaultDirective(*tokens, &*spec->fault);
  } else {
    applied = scenario::ApplyScalarDirective(*tokens, spec);
  }
  if (!applied.ok()) return applied;
  // A line a cross-directive rule names is the base file's.
  Status valid = scenario::ValidateScenario(*spec);
  if (valid.ok()) return valid;
  return Status(valid.code(), "in the base scenario, " + valid.message());
}

std::size_t SweepSpec::NumPoints() const {
  std::size_t n = 1;
  for (const Axis& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::string> GridPoint::Values(const SweepSpec& spec) const {
  std::vector<std::string> values;
  values.reserve(choice.size());
  for (std::size_t a = 0; a < choice.size(); ++a) {
    values.push_back(spec.axes[a].values[choice[a]]);
  }
  return values;
}

std::vector<GridPoint> ExpandGrid(const SweepSpec& spec) {
  std::vector<GridPoint> grid;
  grid.reserve(spec.NumPoints());
  GridPoint point;
  point.choice.assign(spec.axes.size(), 0);
  for (std::size_t i = 0; i < spec.NumPoints(); ++i) {
    point.index = i;
    grid.push_back(point);
    // Odometer increment, last axis fastest.
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++point.choice[a] < spec.axes[a].values.size()) break;
      point.choice[a] = 0;
    }
  }
  return grid;
}

Result<scenario::ScenarioSpec> MaterializePoint(const SweepSpec& spec,
                                                const GridPoint& point) {
  ScenarioSpec materialized = spec.base;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const Axis& axis = spec.axes[a];
    if (Status s = ApplyParam(axis.param, axis.values[point.choice[a]],
                              &materialized);
        !s.ok()) {
      return Status(s.code(), "point " + std::to_string(point.index) + ", " +
                                  axis.param.Name() + ": " + s.message());
    }
  }
  return materialized;
}

namespace {

/// Dry-runs a materialized spec's pattern expansion so structurally
/// impossible grids (transpose on a non-square mesh, bit patterns on a
/// non-power-of-two population, NI ids off the new topology) fail at
/// parse time with a line number instead of mid-sweep.
Status CheckPatterns(const ScenarioSpec& spec) {
  Rng rng(spec.seed);
  for (const TrafficSpec& traffic : spec.traffic) {
    if (auto flows = scenario::ExpandPattern(spec, traffic, rng);
        !flows.ok()) {
      return flows.status();
    }
  }
  return OkStatus();
}

}  // namespace

Status ValidateAxisValue(const ParamRef& param, const std::string& value,
                         const scenario::ScenarioSpec& base) {
  scenario::ScenarioSpec probe = base;
  if (Status s = ApplyParam(param, value, &probe); !s.ok()) return s;
  return CheckPatterns(probe);
}

Result<SweepSpec> ParseSweep(
    const std::string& text,
    const std::function<Result<scenario::ScenarioSpec>(const std::string&)>&
        load_base) {
  SweepSpec spec;
  bool have_base = false;
  bool have_name = false;
  std::vector<ParamRef> set_params;
  for (const scenario::SpecLine& line : scenario::TokenizeSpec(text)) {
    const std::string& kind = line.tokens[0];
    if (kind == "sweep") {
      if (have_name) return LineError(line.number, "duplicate 'sweep'");
      if (line.tokens.size() != 2) {
        return LineError(line.number, "sweep <name>");
      }
      spec.name = line.tokens[1];
      have_name = true;
    } else if (kind == "base") {
      if (have_base) return LineError(line.number, "duplicate 'base'");
      if (line.tokens.size() != 2) {
        return LineError(line.number, "base <scenario-file>");
      }
      spec.base_path = line.tokens[1];
      auto base = load_base(spec.base_path);
      if (!base.ok()) {
        return LineError(line.number, "base '" + spec.base_path +
                                          "': " + base.status().message());
      }
      spec.base = std::move(*base);
      have_base = true;
    } else if (kind == "set" || kind == "axis") {
      if (!have_base) {
        return LineError(line.number,
                         "'base' must come before '" + kind + "'");
      }
      if (line.tokens.size() < 3) {
        return LineError(line.number, kind + " <param> <value...>");
      }
      auto param = ParseParamRef(line.tokens[1]);
      if (!param.ok()) {
        return LineError(line.number, param.status().message());
      }
      if (kind == "set") {
        if (line.tokens.size() != 3) {
          return LineError(line.number, "set <param> <value>");
        }
        // A duplicate `set` is an error: silently keeping the later value
        // would make the earlier line a lie.
        for (const ParamRef& earlier : set_params) {
          if (earlier == *param) {
            return LineError(line.number,
                             "duplicate 'set " + param->Name() + "'");
          }
        }
        set_params.push_back(*param);
        // Sets fold into the stored base, in file order.
        if (Status s = ApplyParam(*param, line.tokens[2], &spec.base);
            !s.ok()) {
          return LineError(line.number, "set " + param->Name() +
                                            " value '" + line.tokens[2] +
                                            "': " + s.message());
        }
      } else {
        for (const Axis& axis : spec.axes) {
          if (axis.param == *param) {
            return LineError(line.number, "duplicate axis on '" +
                                              param->Name() + "'");
          }
        }
        Axis axis;
        axis.param = *param;
        axis.values.assign(line.tokens.begin() + 2, line.tokens.end());
        axis.line = line.number;
        spec.axes.push_back(std::move(axis));
      }
    } else if (kind == "saturate") {
      if (!have_base) {
        return LineError(line.number, "'base' must come before 'saturate'");
      }
      if (spec.saturation.enabled) {
        return LineError(line.number, "duplicate 'saturate'");
      }
      if (line.tokens.size() != 6 && line.tokens.size() != 8) {
        return LineError(
            line.number,
            "saturate <param> <lo> <hi> <mean|p99|max> <bound> [iters N]");
      }
      auto param = ParseParamRef(line.tokens[1]);
      if (!param.ok()) {
        return LineError(line.number, param.status().message());
      }
      if (param->key != ParamRef::Key::kRate) {
        return LineError(line.number,
                         "saturate needs a continuous parameter (rate)");
      }
      auto lo = scenario::ParseDouble(line.tokens[2]);
      auto hi = scenario::ParseDouble(line.tokens[3]);
      if (!lo.ok()) return LineError(line.number, lo.status().message());
      if (!hi.ok()) return LineError(line.number, hi.status().message());
      if (!(*lo < *hi)) {
        return LineError(line.number, "saturate needs LO < HI");
      }
      const std::string& metric = line.tokens[4];
      if (metric != "mean" && metric != "p99" && metric != "max") {
        return LineError(line.number,
                         "saturate metric must be mean, p99, or max");
      }
      auto bound = scenario::ParseDouble(line.tokens[5]);
      if (!bound.ok()) return LineError(line.number, bound.status().message());
      if (*bound <= 0) {
        return LineError(line.number, "saturate bound must be > 0");
      }
      spec.saturation.enabled = true;
      spec.saturation.line = line.number;
      spec.saturation.param = *param;
      spec.saturation.lo = *lo;
      spec.saturation.hi = *hi;
      spec.saturation.metric = metric;
      spec.saturation.bound = *bound;
      if (line.tokens.size() == 8) {
        if (line.tokens[6] != "iters") {
          return LineError(line.number, "expected 'iters N'");
        }
        auto iters = scenario::ParseIntIn(line.tokens[7], 1, 32);
        if (!iters.ok()) {
          return LineError(line.number, iters.status().message());
        }
        spec.saturation.iters = static_cast<int>(*iters);
      }
    } else {
      return LineError(line.number, "unknown directive '" + kind + "'");
    }
  }
  if (!have_base) return InvalidArgumentError("sweep has no 'base' line");

  // Validate every axis value against the base (independently; cross-axis
  // combinations are validated again when the point is materialized).
  for (const Axis& axis : spec.axes) {
    for (const std::string& value : axis.values) {
      if (Status s = ValidateAxisValue(axis.param, value, spec.base);
          !s.ok()) {
        return LineError(axis.line, "axis " + axis.param.Name() +
                                        " value '" + value +
                                        "': " + s.message());
      }
    }
    if (spec.saturation.enabled && axis.param == spec.saturation.param) {
      return LineError(axis.line, "'" + axis.param.Name() +
                                      "' is both an axis and the saturate "
                                      "parameter");
    }
  }
  if (spec.saturation.enabled) {
    ScenarioSpec probe = spec.base;
    for (double endpoint : {spec.saturation.lo, spec.saturation.hi}) {
      if (Status s = ApplyParam(spec.saturation.param,
                                FormatDouble(endpoint), &probe);
          !s.ok()) {
        return LineError(spec.saturation.line,
                         "saturate endpoint: " + s.message());
      }
    }
  }
  if (Status s = CheckPatterns(spec.base); !s.ok()) {
    return InvalidArgumentError("base scenario: " + s.message());
  }
  return spec;
}

Result<SweepSpec> LoadSweepFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const auto dir = std::filesystem::path(path).parent_path();
  auto spec = ParseSweep(text.str(), [&](const std::string& base) {
    return scenario::LoadScenarioFile((dir / base).string());
  });
  if (!spec.ok()) {
    return Status(spec.status().code(), path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace aethereal::sweep

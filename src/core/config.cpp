#include "core/config.hpp"

#include <array>
#include <charconv>

#include "fault/fault.hpp"
#include "pass/seq.hpp"
#include "plim/allocator.hpp"
#include "plim/selector.hpp"
#include "util/enum_names.hpp"
#include "util/error.hpp"

namespace rlim::core {

namespace {

constexpr util::EnumTable kStrategyNames{
    std::string_view("strategy"),
    std::array{
        util::EnumName<Strategy>{Strategy::Naive, "naive"},
        util::EnumName<Strategy>{Strategy::Plim21, "plim21-compiler"},
        util::EnumName<Strategy>{Strategy::MinWrite, "min-write"},
        util::EnumName<Strategy>{Strategy::MinWriteEnduranceRewrite,
                                 "min-write+endurance-rewrite"},
        util::EnumName<Strategy>{Strategy::FullEndurance, "full-endurance"},
    }};

/// The single source of the short preset aliases (CLI / spec-grammar names);
/// parse_strategy consults this before the long names above.
constexpr std::array<std::pair<std::string_view, Strategy>, 5> kAliases{{
    {"naive", Strategy::Naive},
    {"plim21", Strategy::Plim21},
    {"min-write", Strategy::MinWrite},
    {"endurance-rewrite", Strategy::MinWriteEnduranceRewrite},
    {"full", Strategy::FullEndurance},
}};

/// True iff `rest` (the text following a comma) starts a new config clause:
/// a known field name immediately followed by '='. Policy parameter values
/// may themselves contain commas (the seq flow's `passes=maj,dist,...`
/// list), so a comma alone does not separate clauses — only a comma followed
/// by `field=`. Pass keys are [a-z0-9_]+ identifiers distinct from the five
/// field names, so the two grammars cannot collide.
bool starts_clause(std::string_view rest) {
  const auto delim = rest.find_first_of("=,:");
  if (delim == std::string_view::npos || rest[delim] != '=') {
    return false;
  }
  const auto field = rest.substr(0, delim);
  return field == "rewrite" || field == "select" || field == "alloc" ||
         field == "fault" || field == "cap";
}

std::uint64_t parse_cap(std::string_view text, std::string_view spec) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                         value);
  require(ec == std::errc() && ptr == text.data() + text.size(),
          "config spec '" + std::string(spec) + "': cap '" + std::string(text) +
              "' is not an unsigned integer");
  require(value >= 3, "config spec '" + std::string(spec) + "': cap " +
                          std::string(text) +
                          " is below 3 (the compiler's copy idioms need up to "
                          "3 writes on one cell)");
  return value;
}

}  // namespace

std::string to_string(Strategy strategy) {
  return std::string(kStrategyNames.name(strategy));
}

Strategy parse_strategy(std::string_view name) {
  for (const auto& [alias, strategy] : kAliases) {
    if (alias == name) {
      return strategy;
    }
  }
  return kStrategyNames.parse(name);
}

std::span<const std::pair<std::string_view, Strategy>> strategy_aliases() {
  return kAliases;
}

std::string_view strategy_alias(Strategy strategy) {
  for (const auto& [alias, value] : kAliases) {
    if (value == strategy) {
      return alias;
    }
  }
  throw Error("strategy_alias: unknown strategy");
}

int PipelineConfig::effort() const {
  const auto it = rewrite.params.find("effort");
  if (it == rewrite.params.end()) {
    return 0;
  }
  return util::param_int(rewrite.params, "effort");
}

void PipelineConfig::set_effort(int effort) {
  for (const auto& param : pass::rewrites().describe(rewrite.key).params) {
    if (param.name == "effort") {
      rewrite.params["effort"] = std::to_string(effort);
      return;
    }
  }
  // Flow without an effort knob (e.g. "none") — nothing to set.
}

std::string PipelineConfig::canonical_key() const {
  std::string key = "rewrite=" + rewrite.canonical() +
                    ",select=" + selection.canonical() +
                    ",alloc=" + allocation.canonical();
  // rlim::fault:: in full — the `fault` member shadows the namespace here.
  if (rlim::fault::active(fault)) {
    key += ",fault=" + fault.canonical();
  }
  if (max_writes) {
    key += ",cap=" + std::to_string(*max_writes);
  }
  return key;
}

PipelineConfig PipelineConfig::normalized() const {
  rlim::fault::ensure_registered();
  PipelineConfig out = *this;
  out.rewrite = pass::rewrites().normalize(rewrite);
  out.selection = plim::selectors().normalize(selection);
  out.allocation = plim::allocators().normalize(allocation);
  out.fault = rlim::fault::models().normalize(fault);
  if (out.max_writes) {
    require(*out.max_writes >= 3,
            "PipelineConfig: max_writes cap must be at least 3 (the "
            "compiler's copy idioms need up to 3 writes on one cell)");
  }
  return out;
}

PipelineConfig PipelineConfig::parse(std::string_view spec) {
  require(!spec.empty(), "config spec is empty");
  PipelineConfig config;
  bool first = true;
  bool seen_rewrite = false;
  bool seen_select = false;
  bool seen_alloc = false;
  bool seen_fault = false;
  bool seen_cap = false;

  std::size_t start = 0;
  while (start <= spec.size()) {
    // The next clause-separating comma — commas inside a parameter value
    // (e.g. rewrite=seq:passes=maj,dist,...) belong to the clause.
    auto end = spec.find(',', start);
    while (end != std::string_view::npos &&
           !starts_clause(spec.substr(end + 1))) {
      end = spec.find(',', end + 1);
    }
    if (end == std::string_view::npos) {
      end = spec.size();
    }
    const auto clause = spec.substr(start, end - start);
    const auto eq = clause.find('=');
    if (eq == std::string_view::npos) {
      // A bare token is a preset alias — only allowed as the first clause.
      require(first, "config spec '" + std::string(spec) + "': preset alias '" +
                         std::string(clause) + "' must come first");
      bool found = false;
      for (const auto& [alias, strategy] : kAliases) {
        if (alias == clause) {
          config = make_config(strategy);
          found = true;
          break;
        }
      }
      if (!found) {
        std::string aliases;
        for (const auto& [alias, strategy] : kAliases) {
          (void)strategy;
          if (!aliases.empty()) {
            aliases += ", ";
          }
          aliases += alias;
        }
        throw Error("config spec '" + std::string(spec) + "': '" +
                    std::string(clause) +
                    "' is neither a field=value clause nor a preset alias (" +
                    aliases + ")");
      }
    } else {
      const auto field = clause.substr(0, eq);
      const auto value = clause.substr(eq + 1);
      const auto claim = [&](bool& seen) {
        require(!seen, "config spec '" + std::string(spec) + "': duplicate '" +
                           std::string(field) + "' clause");
        seen = true;
      };
      if (field == "rewrite") {
        claim(seen_rewrite);
        config.rewrite = util::PolicySpec::parse(value);
      } else if (field == "select") {
        claim(seen_select);
        config.selection = util::PolicySpec::parse(value);
      } else if (field == "alloc") {
        claim(seen_alloc);
        config.allocation = util::PolicySpec::parse(value);
      } else if (field == "fault") {
        claim(seen_fault);
        config.fault = util::PolicySpec::parse(value);
      } else if (field == "cap") {
        claim(seen_cap);
        config.max_writes = parse_cap(value, spec);
      } else {
        throw Error("config spec '" + std::string(spec) + "': unknown field '" +
                    std::string(field) +
                    "' (expected rewrite, select, alloc, fault, cap)");
      }
    }
    first = false;
    if (end == spec.size()) {
      break;
    }
    start = end + 1;
  }

  config = config.normalized();
  // Constructing each policy validates parameter values up front, so a bad
  // spec fails here with a clear message instead of deep inside a batch.
  (void)pass::make_rewrite(config.rewrite);
  (void)plim::make_selector(config.selection);
  (void)plim::make_allocator(config.allocation);
  (void)rlim::fault::make_sweep(config.fault);
  return config;
}

PipelineConfig make_config(Strategy strategy,
                           std::optional<std::uint64_t> max_writes) {
  PipelineConfig config;
  config.max_writes = max_writes;
  switch (strategy) {
    case Strategy::Naive:
      config.rewrite = {"none", {}};
      config.selection = {"naive", {}};
      config.allocation = {"lifo", {}};
      break;
    case Strategy::Plim21:
      config.rewrite = {"plim21", {}};
      config.selection = {"plim21", {}};
      // [21] does not publish its free-list discipline; we model it as a
      // rotating scan over the free devices (round-robin), distinct from the
      // worst-case LIFO of the naive baseline and from this paper's
      // min-write strategy. See EXPERIMENTS.md for the sensitivity of the
      // Table-I "[21]" column to this choice.
      config.allocation = {"round_robin", {}};
      break;
    case Strategy::MinWrite:
      config.rewrite = {"plim21", {}};
      config.selection = {"plim21", {}};
      config.allocation = {"min_write", {}};
      break;
    case Strategy::MinWriteEnduranceRewrite:
      config.rewrite = {"endurance", {}};
      config.selection = {"plim21", {}};
      config.allocation = {"min_write", {}};
      break;
    case Strategy::FullEndurance:
      config.rewrite = {"endurance", {}};
      config.selection = {"endurance", {}};
      config.allocation = {"min_write", {}};
      break;
  }
  return config.normalized();
}

}  // namespace rlim::core

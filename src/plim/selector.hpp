#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/registry.hpp"
#include "util/spec.hpp"

namespace rlim::plim {

/// Context the compiler exposes when ranking a candidate node.
struct CandidateInfo {
  std::uint32_t gate = 0;          ///< topological node index
  std::uint32_t releasing = 0;     ///< RRAMs freed by computing it (0..3)
  std::uint32_t fanout_level = 0;  ///< farthest consumer's level index
};

/// Priority returned by a Selector: the candidate with the smallest key
/// (lexicographic) compiles next. The compiler appends the node index as a
/// final tiebreaker, so equal keys still resolve deterministically.
using SelectionKey = std::array<std::uint32_t, 3>;

/// Node-selection policy object. The compiler constructs one fresh instance
/// per compilation (factory-constructed), so implementations may keep
/// arbitrary state across priority() calls.
class Selector {
public:
  virtual ~Selector() = default;

  [[nodiscard]] virtual SelectionKey priority(const CandidateInfo& info) = 0;

  /// Called once after `info` has been translated. Return true to make the
  /// compiler recompute every pending candidate's key — for stateful
  /// policies whose ranking just shifted globally (see WearQuotaSelector).
  virtual bool on_compiled(const CandidateInfo& info) {
    (void)info;
    return false;
  }
};

using SelectorPtr = std::unique_ptr<Selector>;
using SelectorFactory = std::function<SelectorPtr(const util::Params&)>;

/// Registry of node-selection policies — the order in which computable MIG
/// nodes are translated to RM3 instructions. Built-ins:
///   naive       construction (topological index) order; the paper's
///               "naive" configurations use this
///   plim21      [21]: most releasing RRAMs first, ties broken by the
///               smaller fanout level index (greedy for area)
///   endurance   paper Algorithm 3: smallest fanout level index first
///               (shortest storage duration ⇒ cells cycle through the free
///               list with similar frequency), then most releasing RRAMs
///   wear_quota  (parameter `quota`, default 8) endurance ordering under a
///               per-level quota — a fanout level that has charged `quota`
///               compiled nodes is demoted behind every fresher level,
///               rotating selection pressure across levels instead of
///               draining one level's long-lived cells at a time
[[nodiscard]] util::Registry<SelectorFactory>& selectors();

/// Normalizes `spec` against selectors() and constructs the policy object.
[[nodiscard]] SelectorPtr make_selector(const util::PolicySpec& spec);

}  // namespace rlim::plim

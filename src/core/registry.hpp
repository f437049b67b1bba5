#pragma once

#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "pass/pass.hpp"
#include "pass/seq.hpp"
#include "plim/allocator.hpp"
#include "plim/selector.hpp"

/// Unified, string-keyed view over the policy registries behind a
/// core::PipelineConfig — the discovery surface of the pluggable-policy API
/// (`rlim policies` renders it). Kinds are named after the config-spec
/// grammar fields: "rewrite" (pass::rewrites()), "select" (plim::selectors()),
/// "alloc" (plim::allocators()), "fault" (fault::models()) — plus "pass"
/// (pass::passes()), the building blocks of the `rewrite=seq:` flow, listed
/// right after "rewrite" since passes configure that dimension.
namespace rlim::registry {

/// The policy dimensions of a PipelineConfig, in spec-grammar field order
/// ("pass" follows "rewrite", the field its entries plug into).
[[nodiscard]] std::vector<std::string_view> kinds();

/// Every registered policy of one kind, sorted by key (throws rlim::Error
/// for an unknown kind).
[[nodiscard]] std::vector<util::PolicyInfo> list(std::string_view kind);

/// Metadata of one policy (throws for unknown kind or key).
[[nodiscard]] const util::PolicyInfo& describe(std::string_view kind,
                                               std::string_view key);

/// Typed `make`: normalize `spec` against the kind's registry and
/// factory-construct the policy, validating key and parameter values.
[[nodiscard]] pass::RewriteFn make_rewrite(const util::PolicySpec& spec);
[[nodiscard]] pass::PassPtr make_pass(const util::PolicySpec& spec);
[[nodiscard]] plim::SelectorPtr make_selector(const util::PolicySpec& spec);
[[nodiscard]] plim::AllocatorPtr make_allocator(const util::PolicySpec& spec);
[[nodiscard]] fault::SweepSpec make_sweep(const util::PolicySpec& spec);

}  // namespace rlim::registry

#include "core/registry.hpp"

#include "util/error.hpp"

namespace rlim::registry {

std::vector<std::string_view> kinds() {
  return {"rewrite", "pass", "select", "alloc", "fault"};
}

std::vector<util::PolicyInfo> list(std::string_view kind) {
  // The fault library adds its allocator decorators lazily; register them
  // first so discovery sees the full set regardless of call order.
  fault::ensure_registered();
  if (kind == "rewrite") {
    return pass::rewrites().list();
  }
  if (kind == "pass") {
    return pass::passes().list();
  }
  if (kind == "select") {
    return plim::selectors().list();
  }
  if (kind == "alloc") {
    return plim::allocators().list();
  }
  if (kind == "fault") {
    return fault::models().list();
  }
  throw Error("unknown policy kind '" + std::string(kind) +
              "' (expected rewrite, pass, select, alloc, fault)");
}

const util::PolicyInfo& describe(std::string_view kind, std::string_view key) {
  fault::ensure_registered();  // as in list()
  if (kind == "rewrite") {
    return pass::rewrites().describe(key);
  }
  if (kind == "pass") {
    return pass::passes().describe(key);
  }
  if (kind == "select") {
    return plim::selectors().describe(key);
  }
  if (kind == "alloc") {
    return plim::allocators().describe(key);
  }
  if (kind == "fault") {
    return fault::models().describe(key);
  }
  throw Error("unknown policy kind '" + std::string(kind) +
              "' (expected rewrite, pass, select, alloc, fault)");
}

pass::RewriteFn make_rewrite(const util::PolicySpec& spec) {
  return pass::make_rewrite(spec);
}

pass::PassPtr make_pass(const util::PolicySpec& spec) {
  return pass::make_pass(spec);
}

plim::SelectorPtr make_selector(const util::PolicySpec& spec) {
  return plim::make_selector(spec);
}

plim::AllocatorPtr make_allocator(const util::PolicySpec& spec) {
  fault::ensure_registered();
  return plim::make_allocator(spec);
}

fault::SweepSpec make_sweep(const util::PolicySpec& spec) {
  return fault::make_sweep(spec);
}

}  // namespace rlim::registry

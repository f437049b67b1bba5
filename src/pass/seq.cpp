#include "pass/seq.hpp"

#include <memory>
#include <utility>

#include "pass/pass.hpp"
#include "util/error.hpp"

namespace rlim::pass {

std::vector<std::string> split_pass_list(std::string_view list) {
  require(!list.empty(), "pass list is empty");
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    auto end = list.find(',', start);
    if (end == std::string_view::npos) {
      end = list.size();
    }
    const auto element = list.substr(start, end - start);
    require(!element.empty(), "pass list '" + std::string(list) +
                                  "' has an empty element");
    out.emplace_back(element);
    if (end == list.size()) {
      break;
    }
    start = end + 1;
  }
  return out;
}

PassManager make_manager(std::string_view list, std::string_view until) {
  PassManager manager;
  for (const auto& key : split_pass_list(list)) {
    manager.add(make_pass(util::PolicySpec{key, {}}));
  }
  if (!until.empty()) {
    bool found = false;
    for (const auto& pass : manager.sequence()) {
      if (pass->name() == until) {
        found = true;
        break;
      }
    }
    require(found, "pass list '" + std::string(list) + "': until='" +
                       std::string(until) + "' names no pass in the list");
    manager.until(std::string(until));
  }
  return manager;
}

std::string_view paper_flow_passes(std::string_view key) {
  for (const auto& flow : kPaperFlows) {
    if (flow.key == key) {
      return flow.passes;
    }
  }
  throw Error("no paper flow named '" + std::string(key) + "'");
}

namespace {

/// Reads and validates the `effort` parameter every flow but `none` declares.
int effort_of(const util::Params& params, std::string_view flow) {
  const int effort = util::param_int(params, "effort");
  require(effort >= 0, "rewrite flow '" + std::string(flow) +
                           "': effort must be non-negative");
  return effort;
}

RewriteFn bind(std::shared_ptr<const PassManager> manager, int effort) {
  return [manager = std::move(manager), effort](const mig::Mig& graph,
                                                mig::RewriteStats* stats) {
    return manager->run(graph, effort, stats);
  };
}

}  // namespace

util::Registry<RewriteFactory>& rewrites() {
  static auto* registry = [] {
    auto* reg = new util::Registry<RewriteFactory>("rewrite flow");
    const util::ParamInfo effort{"effort", "5",
                                 "rewriting cycles before the fixpoint check"};
    // The naive baseline: no PassManager, and the stats report the input's
    // own size on both sides.
    reg->add({"none", "compile the MIG as constructed (cleanup only)", {}},
             [](const util::Params&) -> RewriteFn {
               return [](const mig::Mig& graph, mig::RewriteStats* stats) {
                 if (stats != nullptr) {
                   *stats = mig::RewriteStats{};
                   stats->initial_gates = stats->final_gates =
                       graph.num_gates();
                   stats->initial_complement_edges =
                       stats->final_complement_edges =
                           graph.complement_edge_count();
                 }
                 return graph.cleanup();
               };
             });
    for (const auto& flow : kPaperFlows) {
      // Paper flows always run their passes with default parameters, so one
      // immutable manager per flow serves every instance.
      auto manager =
          std::make_shared<const PassManager>(make_manager(flow.passes));
      reg->add({std::string(flow.key), std::string(flow.summary), {effort}},
               [key = flow.key, manager](const util::Params& params) {
                 return bind(manager, effort_of(params, key));
               });
    }
    reg->add(
        {"seq",
         "ordered pass sequence — the pass-manager flow (`rlim policies` "
         "lists the passes)",
         {{"passes", std::string(paper_flow_passes("endurance")),
           "comma-separated pass keys, run in order each cycle"},
          effort,
          {"until", "",
           "limit every cycle to the prefix ending at this pass (empty: run "
           "the whole sequence)"}}},
        [](const util::Params& params) {
          const int cycles = effort_of(params, "seq");
          return bind(std::make_shared<const PassManager>(make_manager(
                          params.at("passes"), params.at("until"))),
                      cycles);
        });
    return reg;
  }();
  return *registry;
}

RewriteFn make_rewrite(const util::PolicySpec& spec) {
  return rewrites().make(spec);
}

}  // namespace rlim::pass

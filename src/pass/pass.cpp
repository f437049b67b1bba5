#include "pass/pass.hpp"

#include <string>
#include <utility>

#include "mig/axioms.hpp"
#include "util/error.hpp"

namespace rlim::pass {

namespace {

/// Built-in passes wrap the mig axiom functions: every axiom pass rebuilds
/// the graph and reports its rule firings, which is exactly the Pass
/// contract.
class AxiomPass final : public Pass {
public:
  AxiomPass(std::string_view name, mig::PassResult (*fn)(const mig::Mig&),
            util::Params params)
      : name_(name), fn_(fn), params_(std::move(params)) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] const util::Params& params() const override { return params_; }

  void run(mig::Mig& graph, PassStats& stats) const override {
    auto result = fn_(graph);
    stats.applications += result.applications;
    graph = std::move(result.mig);
  }

private:
  std::string_view name_;
  mig::PassResult (*fn_)(const mig::Mig&);
  util::Params params_;
};

/// Dead-node elimination + re-strash; `applications` = gates removed.
class CleanupPass final : public Pass {
public:
  explicit CleanupPass(util::Params params) : params_(std::move(params)) {}

  [[nodiscard]] std::string_view name() const override { return "cleanup"; }
  [[nodiscard]] const util::Params& params() const override { return params_; }

  void run(mig::Mig& graph, PassStats& stats) const override {
    const auto before = graph.num_gates();
    graph = graph.cleanup();
    if (graph.num_gates() < before) {
      stats.applications += before - graph.num_gates();
    }
  }

private:
  util::Params params_;
};

PassFactory axiom_factory(std::string_view name,
                          mig::PassResult (*fn)(const mig::Mig&)) {
  return [name, fn](const util::Params& params) -> PassPtr {
    return std::make_shared<AxiomPass>(name, fn, params);
  };
}

}  // namespace

util::Registry<PassFactory>& passes() {
  static auto* registry = [] {
    auto* reg = new util::Registry<PassFactory>("rewriting pass");
    reg->add({"maj", "Ω.M — majority-axiom local rules + re-strashing", {}},
             axiom_factory("maj", mig::pass_majority));
    reg->add({"dist", "Ω.D (R→L) — distributivity, merges shared child gates",
              {}},
             axiom_factory("dist", mig::pass_distributivity_rl));
    reg->add({"assoc",
              "Ω.A — associativity-rebalance, applied when the swap "
              "simplifies or shares",
              {}},
             axiom_factory("assoc", mig::pass_associativity));
    reg->add({"comp",
              "Ψ.C — complement-canonicalize (complementary associativity; "
              "Algorithm 1 only)",
              {}},
             axiom_factory("comp", mig::pass_comp_assoc));
    reg->add({"inv",
              "Ω.I (R→L, variants 1–3) — inverter-propagate toward ≤1 "
              "complemented fanin",
              {}},
             axiom_factory("inv", mig::pass_inv_reduce));
    reg->add({"inv3",
              "Ω.I (R→L) — flip only fully-complemented gates ⟨x̄ȳz̄⟩",
              {}},
             axiom_factory("inv3", mig::pass_inv_three));
    reg->add({"relief",
              "Ω.A wear-target relief — level balancing, the paper's "
              "§III-B.4 objective",
              {}},
             axiom_factory("relief", mig::pass_level_balance));
    reg->add({"cleanup", "dead-node elimination + re-strash", {}},
             [](const util::Params& params) -> PassPtr {
               return std::make_shared<CleanupPass>(params);
             });
    return reg;
  }();
  return *registry;
}

PassPtr make_pass(const util::PolicySpec& spec) { return passes().make(spec); }

}  // namespace rlim::pass

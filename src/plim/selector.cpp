#include "plim/selector.hpp"

#include <vector>

#include "util/error.hpp"

namespace rlim::plim {

namespace {

/// Construction order — the paper's naive configurations.
class NaiveOrderSelector final : public Selector {
public:
  SelectionKey priority(const CandidateInfo& info) override {
    return {info.gate, 0, 0};
  }
};

/// [21]: most releasing RRAMs first (stored inverted so smaller = better),
/// then smallest fanout level index.
class Plim21Selector final : public Selector {
public:
  SelectionKey priority(const CandidateInfo& info) override {
    return {3u - info.releasing, info.fanout_level, 0};
  }
};

/// Paper Algorithm 3: smallest fanout level index first, then most
/// releasing RRAMs.
class EnduranceAwareSelector final : public Selector {
public:
  SelectionKey priority(const CandidateInfo& info) override {
    return {info.fanout_level, 3u - info.releasing, 0};
  }
};

/// Endurance-aware ordering under a per-level wear quota: every compiled
/// node charges its fanout level; a level that has consumed a full quota
/// moves into the next "epoch" and sorts behind every level still in an
/// earlier one. The effect is a rotation across fanout levels (bounded
/// bursts per level) instead of Algorithm 3's strict level ascent.
class WearQuotaSelector final : public Selector {
public:
  explicit WearQuotaSelector(std::uint64_t quota) : quota_(quota) {}

  SelectionKey priority(const CandidateInfo& info) override {
    return {epoch(info.fanout_level), info.fanout_level, 3u - info.releasing};
  }

  bool on_compiled(const CandidateInfo& info) override {
    auto& charge = charge_at(info.fanout_level);
    ++charge;
    // Crossing an epoch boundary reorders the whole candidate set — ask the
    // compiler for a global key refresh so the rotation stays exact.
    return charge % quota_ == 0;
  }

private:
  [[nodiscard]] std::uint32_t epoch(std::uint32_t level) {
    return static_cast<std::uint32_t>(charge_at(level) / quota_);
  }

  std::uint64_t& charge_at(std::uint32_t level) {
    if (level >= charge_.size()) {
      charge_.resize(level + 1, 0);
    }
    return charge_[level];
  }

  std::uint64_t quota_;
  std::vector<std::uint64_t> charge_;
};

}  // namespace

util::Registry<SelectorFactory>& selectors() {
  static auto* registry = [] {
    auto* reg = new util::Registry<SelectorFactory>("selection policy");
    reg->add({"naive", "construction (topological index) order", {}},
             [](const util::Params&) -> SelectorPtr {
               return std::make_unique<NaiveOrderSelector>();
             });
    reg->add({"plim21",
              "[21]: most releasing RRAMs first, then smallest fanout level",
              {}},
             [](const util::Params&) -> SelectorPtr {
               return std::make_unique<Plim21Selector>();
             });
    reg->add({"endurance",
              "paper Algorithm 3: smallest fanout level first, then most "
              "releasing RRAMs",
              {}},
             [](const util::Params&) -> SelectorPtr {
               return std::make_unique<EnduranceAwareSelector>();
             });
    reg->add({"wear_quota",
              "endurance ordering with a per-level compile quota — rotates "
              "selection pressure across fanout levels",
              {{"quota", "8", "nodes a level may charge before demotion"}}},
             [](const util::Params& params) -> SelectorPtr {
               const auto quota = util::param_u64(params, "quota");
               require(quota >= 1,
                       "selection policy 'wear_quota': quota must be >= 1");
               return std::make_unique<WearQuotaSelector>(quota);
             });
    return reg;
  }();
  return *registry;
}

SelectorPtr make_selector(const util::PolicySpec& spec) {
  return selectors().make(spec);
}

}  // namespace rlim::plim

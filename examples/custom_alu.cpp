// Building a custom in-memory compute kernel with the word-level builder:
// an 8-bit, 4-operation ALU (ADD / SUB / AND / XOR selected by a 2-bit
// opcode), compiled naively, with full endurance management, and with a
// *custom allocation policy registered by this example* — all three
// configurations as one flow::Service::run batch over a shared Source.
// Shows the end-to-end flow a downstream user follows for their own logic,
// including how to plug a new policy into the registries.
//
//   $ ./build/examples/custom_alu

#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "benchmarks/wordlib.hpp"
#include "core/lifetime.hpp"
#include "flow/service.hpp"
#include "plim/controller.hpp"
#include "util/table.hpp"

int main() {
  using namespace rlim;

  // 1. Describe the ALU with the word-level netlist builder.
  mig::Mig graph;
  bench::WordBuilder builder(graph);
  const auto a = builder.input(8, "a");
  const auto b = builder.input(8, "b");
  const auto op = builder.input(2, "op");

  mig::Signal carry = mig::Mig::get_constant(false);
  const auto add = builder.add(a, b, mig::Mig::get_constant(false), &carry);
  const auto sub = builder.sub(a, b);
  const auto conj = builder.bitwise_and(a, b);
  const auto parity = builder.bitwise_xor(a, b);

  // result = op[1] ? (op[0] ? XOR : AND) : (op[0] ? SUB : ADD)
  const auto arith = builder.mux_word(op[0], sub, add);
  const auto logic = builder.mux_word(op[0], parity, conj);
  builder.output(builder.mux_word(op[1], logic, arith), "y");

  std::cout << "ALU MIG: " << graph.num_gates() << " majority gates, depth "
            << graph.depth() << "\n\n";

  // 2. The policy registries are open: plug in a deliberately wear-hostile
  //    allocation policy — most-written free cell first, the mirror image of
  //    the paper's min-write strategy — and it immediately composes with
  //    every other pipeline dimension through the config-spec grammar.
  class MostWriteAllocator final : public plim::Allocator {
  public:
    void push(plim::Cell cell, std::uint64_t writes) override {
      by_writes_.emplace(writes, cell);
    }
    std::optional<plim::Cell> pop() override {
      if (by_writes_.empty()) {
        return std::nullopt;
      }
      const auto it = std::prev(by_writes_.end());
      const auto cell = it->second;
      by_writes_.erase(it);
      return cell;
    }
    [[nodiscard]] std::size_t size() const override {
      return by_writes_.size();
    }

  private:
    std::multimap<std::uint64_t, plim::Cell> by_writes_;
  };
  plim::allocators().add(
      {"most_write", "anti-policy demo: most-written free cell first", {}},
      [](const util::Params&) -> plim::AllocatorPtr {
        return std::make_unique<MostWriteAllocator>();
      });

  // 3. Compile the extremes and the custom policy as one batch and compare.
  const auto source = flow::Source::graph(graph, "alu");
  const std::pair<const char*, const char*> cases[] = {
      {"naive", "naive"},
      {"full-endurance", "full"},
      {"full + most_write", "full,alloc=most_write"},
  };
  std::vector<flow::Job> jobs;
  for (const auto& [label, spec] : cases) {
    (void)label;
    jobs.push_back({source, core::PipelineConfig::parse(spec), {}});
  }
  flow::Service service;
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  util::Table table({"flow", "#I", "#R", "min/max writes", "STDEV",
                     "executions @1e10"});
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& report = results[i].report;
    const auto lifetime = core::estimate_lifetime(report.writes);
    table.add_row({cases[i].first,
                   std::to_string(report.instructions),
                   std::to_string(report.rrams),
                   std::to_string(report.writes.min) + "/" +
                       std::to_string(report.writes.max),
                   util::Table::fixed(report.writes.stdev),
                   std::to_string(lifetime.executions_to_first_failure)});
  }
  std::cout << table.to_string() << '\n';

  // 4. All programs must behave identically on the crossbar; check a few
  //    thousand random vectors (64 per word x 32 rounds x 3 programs). The
  //    rewritten graph each job compiled ships with its result.
  bool all_match = true;
  for (const auto& result : results) {
    all_match &= plim::program_matches_mig(result.report.program,
                                           *result.prepared, 32, 7);
  }
  std::cout << "functional cross-check on the crossbar simulator: "
            << (all_match ? "passed" : "FAILED") << '\n';
  std::cout << "endurance flow lifetime gain: "
            << util::Table::fixed(
                   static_cast<double>(
                       core::estimate_lifetime(results[1].report.writes)
                           .executions_to_first_failure) /
                   static_cast<double>(
                       core::estimate_lifetime(results[0].report.writes)
                           .executions_to_first_failure),
                   2)
            << "x\n";
  return 0;
}

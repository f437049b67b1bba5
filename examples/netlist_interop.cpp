// Netlist interoperability: export an MIG to BLIF (for external logic
// tools), read a BLIF produced elsewhere, and run the endurance pipeline on
// it. Also demonstrates the plain-text .mig exchange format.
//
//   $ ./build/examples/netlist_interop

#include <iostream>
#include <sstream>

#include "benchmarks/control.hpp"
#include "flow/service.hpp"
#include "mig/io.hpp"
#include "mig/simulate.hpp"

int main() {
  using namespace rlim;

  // A function another tool might hand us: 16-line priority encoder.
  const auto original = bench::make_priority_encoder(16);

  // Round-trip through BLIF…
  std::stringstream blif;
  mig::write_blif(original, blif, "priority16");
  const auto text = blif.str();
  std::cout << "BLIF export: " << text.size() << " bytes, first lines:\n";
  std::istringstream head(text);
  std::string line;
  for (int i = 0; i < 5 && std::getline(head, line); ++i) {
    std::cout << "  " << line << '\n';
  }
  std::istringstream reparse(text);
  const auto imported = mig::read_blif(reparse);
  std::cout << "re-imported: " << imported.num_gates() << " gates (original "
            << original.num_gates() << ")\n";
  std::cout << "functions equivalent: "
            << (mig::equivalent_random(original, imported, 16, 42) ? "yes" : "NO")
            << "\n\n";

  // …and through the .mig text format.
  std::stringstream migtext;
  mig::write_mig(original, migtext);
  const auto reread = mig::read_mig(migtext);
  std::cout << ".mig round-trip equivalent: "
            << (mig::equivalent_random(original, reread, 16, 43) ? "yes" : "NO")
            << "\n\n";

  // Imported netlists drop straight into the endurance pipeline as flow
  // Sources (files would use flow::Source::netlist("path.blif") instead).
  const auto result = flow::run_job(
      {flow::Source::graph(imported, "imported"),
       core::PipelineConfig::parse("full"),
       {}});
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.error << '\n';
    return 1;
  }
  std::cout << "compiled imported netlist: " << result.report.instructions
            << " instructions, " << result.report.rrams
            << " cells, write stdev " << result.report.writes.stdev << '\n';
  return 0;
}

#include "pass/dump.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <utility>

#include "util/error.hpp"

namespace rlim::pass {

namespace {

void print_signal(std::ostream& os, mig::Signal signal) {
  if (signal.is_constant()) {
    os << (signal.constant_value() ? '1' : '0');
    return;
  }
  os << 'n' << signal.index();
  if (signal.is_complemented()) {
    os << '\'';
  }
}

std::string pad2(std::size_t value) {
  std::string text = std::to_string(value);
  return text.size() < 2 ? "0" + text : text;
}

}  // namespace

void dump_graph(const mig::Mig& graph, std::ostream& os) {
  os << "# MIG: " << graph.num_pis() << " PIs, " << graph.num_pos()
     << " POs, " << graph.num_gates() << " gates, depth " << graph.depth()
     << ", complemented edges " << graph.complement_edge_count() << '\n';
  const auto& levels = graph.levels();
  const auto fanouts = graph.fanout_counts();
  for (std::uint32_t pi = 0; pi < graph.num_pis(); ++pi) {
    os << "pi n" << (pi + 1) << ' ' << graph.pi_name(pi) << " fanout="
       << fanouts[pi + 1] << '\n';
  }
  for (std::uint32_t gate = graph.first_gate(); gate < graph.num_nodes();
       ++gate) {
    const auto& fanin = graph.fanins(gate);
    os << "gate n" << gate << " = MAJ(";
    print_signal(os, fanin[0]);
    os << ", ";
    print_signal(os, fanin[1]);
    os << ", ";
    print_signal(os, fanin[2]);
    os << ") level=" << levels[gate] << " fanout=" << fanouts[gate] << '\n';
  }
  for (std::uint32_t po = 0; po < graph.num_pos(); ++po) {
    os << "po " << graph.po_name(po) << " = ";
    print_signal(os, graph.pos()[po]);
    os << '\n';
  }
}

DumpHook dump_to_stream(std::ostream& os) {
  return [&os](const mig::Mig& graph, const DumpContext& where) {
    os << "== cycle " << where.cycle << " step " << where.step << ": "
       << where.pass << " ==\n";
    dump_graph(graph, os);
  };
}

DumpHook dump_to_directory(std::string directory) {
  return [directory = std::move(directory)](const mig::Mig& graph,
                                            const DumpContext& where) {
    std::filesystem::create_directories(directory);
    const auto path = std::filesystem::path(directory) /
                      ("cycle" + pad2(static_cast<std::size_t>(where.cycle)) +
                       "_step" + pad2(where.step) + "_" +
                       std::string(where.pass) + ".txt");
    std::ofstream os(path, std::ios::trunc);
    require(os.good(), "dump_to_directory: cannot open " + path.string());
    dump_graph(graph, os);
    require(os.good(), "dump_to_directory: write failed for " + path.string());
  };
}

}  // namespace rlim::pass

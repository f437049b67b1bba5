#include "plim/program.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace rlim::plim {

void Program::cover(Cell cell) {
  require(cell != std::numeric_limits<Cell>::max(),
          "Program: cell index out of range");
  num_cells_ = std::max(num_cells_, cell + 1);
}

void Program::append(const Instruction& instruction) {
  Cell top = instruction.z;
  if (!instruction.a.is_constant()) {
    top = std::max(top, instruction.a.cell_index());
  }
  if (!instruction.b.is_constant()) {
    top = std::max(top, instruction.b.cell_index());
  }
  cover(top);
  instructions_.push_back(instruction);
}

void Program::set_num_cells(Cell count) {
  require(count >= num_cells_, "Program::set_num_cells: cannot shrink below references");
  num_cells_ = count;
}

void Program::bind_pi(Cell cell) {
  cover(cell);
  pi_cells_.push_back(cell);
}

void Program::bind_po(Cell cell) {
  cover(cell);
  po_cells_.push_back(cell);
}

Program Program::adopt_raw(RawProgram&& raw) {
  const auto in_range = [&raw](Operand operand) {
    return operand.is_constant() || operand.cell_index() < raw.num_cells;
  };
  for (const auto& instruction : raw.instructions) {
    require(instruction.a.is_canonical() && instruction.b.is_canonical(),
            "Program::adopt_raw: non-canonical operand word");
    require(instruction.z < raw.num_cells,
            "Program::adopt_raw: destination out of range");
    require(in_range(instruction.a) && in_range(instruction.b),
            "Program::adopt_raw: operand out of range");
  }
  for (const auto cell : raw.pi_cells) {
    require(cell < raw.num_cells, "Program::adopt_raw: PI binding out of range");
  }
  for (const auto cell : raw.po_cells) {
    require(cell < raw.num_cells, "Program::adopt_raw: PO binding out of range");
  }
  Program program;
  program.instructions_ = std::move(raw.instructions);
  program.pi_cells_ = std::move(raw.pi_cells);
  program.po_cells_ = std::move(raw.po_cells);
  program.num_cells_ = raw.num_cells;
  return program;
}

std::vector<std::uint64_t> Program::static_write_counts() const {
  std::vector<std::uint64_t> counts(num_cells_, 0);
  for (const auto& instruction : instructions_) {
    ++counts[instruction.z];
  }
  return counts;
}

namespace {

std::string operand_to_string(Operand operand, bool negated) {
  std::string text = negated ? "!" : "";
  if (operand.is_constant()) {
    return text + (operand.constant_value() ? "1" : "0");
  }
  return text + "c[" + std::to_string(operand.cell_index()) + "]";
}

}  // namespace

std::string Program::disassemble() const {
  std::ostringstream os;
  os << "# PLiM program: " << instructions_.size() << " instructions, "
     << num_cells_ << " cells\n";
  for (std::size_t i = 0; i < pi_cells_.size(); ++i) {
    os << "# pi " << i << " -> c[" << pi_cells_[i] << "]\n";
  }
  std::size_t pc = 0;
  for (const auto& instruction : instructions_) {
    os << std::to_string(pc++) << ": RM3(" << operand_to_string(instruction.a, false)
       << ", " << operand_to_string(instruction.b, true) << ", c["
       << instruction.z << "])\n";
  }
  for (std::size_t i = 0; i < po_cells_.size(); ++i) {
    os << "# po " << i << " <- c[" << po_cells_[i] << "]\n";
  }
  return os.str();
}

namespace {

std::string serialize_operand(Operand operand) {
  if (operand.is_constant()) {
    return operand.constant_value() ? "1" : "0";
  }
  // Two-step build: GCC bug 105651 (-Wrestrict false positive).
  std::string text(1, 'c');
  text += std::to_string(operand.cell_index());
  return text;
}

Operand parse_operand(const std::string& token, std::size_t line_no) {
  if (token == "0" || token == "1") {
    return Operand::constant(token == "1");
  }
  require(token.size() >= 2 && token[0] == 'c',
          "Program::read: line " + std::to_string(line_no) + ": bad operand '" +
              token + "'");
  return Operand::cell(static_cast<Cell>(std::stoul(token.substr(1))));
}

}  // namespace

void Program::write(std::ostream& os) const {
  os << ".plim " << instructions_.size() << ' ' << num_cells_ << '\n';
  for (const auto cell : pi_cells_) {
    os << ".pi " << cell << '\n';
  }
  for (const auto& instruction : instructions_) {
    os << ".rm3 " << serialize_operand(instruction.a) << ' '
       << serialize_operand(instruction.b) << ' ' << instruction.z << '\n';
  }
  for (const auto cell : po_cells_) {
    os << ".po " << cell << '\n';
  }
  os << ".end\n";
}

Program Program::read(std::istream& is) {
  Program program;
  std::string line;
  std::size_t line_no = 0;
  bool seen_header = false;
  Cell declared_cells = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ss(line);
    std::string token;
    if (!(ss >> token) || token[0] == '#') {
      continue;
    }
    const auto fail = [&](const std::string& message) {
      throw Error("Program::read: line " + std::to_string(line_no) + ": " + message);
    };
    if (token == ".plim") {
      std::size_t instruction_count = 0;
      if (!(ss >> instruction_count >> declared_cells)) {
        fail("malformed .plim header");
      }
      seen_header = true;
    } else if (token == ".pi") {
      Cell cell = 0;
      if (!(ss >> cell)) {
        fail("malformed .pi");
      }
      program.bind_pi(cell);
    } else if (token == ".rm3") {
      std::string a;
      std::string b;
      Cell z = 0;
      if (!(ss >> a >> b >> z)) {
        fail("malformed .rm3");
      }
      program.append(
          Instruction{parse_operand(a, line_no), parse_operand(b, line_no), z});
    } else if (token == ".po") {
      Cell cell = 0;
      if (!(ss >> cell)) {
        fail("malformed .po");
      }
      program.bind_po(cell);
    } else if (token == ".end") {
      break;
    } else {
      fail("unknown directive '" + token + "'");
    }
  }
  require(seen_header, "Program::read: missing .plim header");
  program.set_num_cells(std::max(program.num_cells(), declared_cells));
  return program;
}

void Program::validate() const {
  for (const auto& instruction : instructions_) {
    require(instruction.z < num_cells_, "Program: destination out of range");
    require(instruction.a.is_constant() || instruction.a.cell_index() < num_cells_,
            "Program: operand A out of range");
    require(instruction.b.is_constant() || instruction.b.cell_index() < num_cells_,
            "Program: operand B out of range");
  }
  for (const auto cell : pi_cells_) {
    require(cell < num_cells_, "Program: PI binding out of range");
  }
  for (const auto cell : po_cells_) {
    require(cell < num_cells_, "Program: PO binding out of range");
  }
}

}  // namespace rlim::plim

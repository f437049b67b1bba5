#pragma once

#include <cstdint>

namespace rlim::plim {

/// Index of an RRAM cell in the crossbar array.
using Cell = std::uint32_t;

/// An RM3 source operand: either a constant (0/1) applied directly to the
/// crossbar line, or a value read from a cell by the PLiM controller [11].
class Operand {
public:
  constexpr Operand() = default;

  static constexpr Operand constant(bool value) {
    return Operand(kConstantFlag | (value ? 1u : 0u));
  }
  static constexpr Operand cell(Cell index) { return Operand(index); }

  [[nodiscard]] constexpr bool is_constant() const {
    return (data_ & kConstantFlag) != 0;
  }
  [[nodiscard]] constexpr bool constant_value() const { return (data_ & 1u) != 0; }
  [[nodiscard]] constexpr Cell cell_index() const { return data_; }

  /// The operand as its single storage word — the store's bulk-section
  /// representation. `is_canonical()` distinguishes the two words that
  /// encode real operands from raw()s a damaged entry could carry: a
  /// constant must have no stray bits, a cell index must stay below the
  /// constant flag.
  [[nodiscard]] constexpr std::uint32_t raw() const { return data_; }
  [[nodiscard]] static constexpr Operand from_raw(std::uint32_t data) {
    return Operand(data);
  }
  [[nodiscard]] constexpr bool is_canonical() const {
    return !is_constant() || (data_ & ~(kConstantFlag | 1u)) == 0;
  }

  friend constexpr bool operator==(Operand, Operand) = default;

private:
  explicit constexpr Operand(std::uint32_t data) : data_(data) {}

  static constexpr std::uint32_t kConstantFlag = 0x8000'0000u;
  std::uint32_t data_ = kConstantFlag;  // defaults to constant 0
};

/// The single PLiM instruction: 3-input resistive majority
///
///   RM3(A, B, Z):  Z ← ⟨A B̄ Z⟩ = maj(A, NOT B, Z)
///
/// A and B are read (or constants); the destination cell Z contributes its
/// old value and is overwritten — exactly one cell write per instruction.
struct Instruction {
  Operand a;
  Operand b;
  Cell z = 0;

  friend constexpr bool operator==(const Instruction&, const Instruction&) = default;
};

/// The word a constant operand drives onto its crossbar line (all 64 lanes).
constexpr std::uint64_t constant_word(Operand operand) {
  return operand.constant_value() ? ~0ULL : 0ULL;
}

/// Z ← ⟨A B̄ Z⟩ on 64 lanes, given the already-inverted B.
constexpr std::uint64_t rm3(std::uint64_t a, std::uint64_t not_b, std::uint64_t z) {
  return (a & not_b) | (a & z) | (not_b & z);
}

/// RM3(v, v̄, Z) = ⟨v v Z⟩ = v — writes constant `value` into Z.
constexpr Instruction make_write_const(bool value, Cell z) {
  return Instruction{Operand::constant(value), Operand::constant(!value), z};
}

/// Step 2 of the copy idiom (Z must already hold 0):
/// RM3(src, 0, Z) = ⟨src 1 0⟩ = src.
constexpr Instruction make_copy_step(Cell src, Cell z) {
  return Instruction{Operand::cell(src), Operand::constant(false), z};
}

/// Step 2 of the complement-copy idiom (Z must already hold 1):
/// RM3(0, src, Z) = ⟨0 src̄ 1⟩ = src̄.
constexpr Instruction make_complement_copy_step(Cell src, Cell z) {
  return Instruction{Operand::constant(false), Operand::cell(src), z};
}

}  // namespace rlim::plim

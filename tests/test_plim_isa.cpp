#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "plim/controller.hpp"
#include "plim/instruction.hpp"
#include "plim/program.hpp"
#include "plim/rram_array.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim::plim {
namespace {

TEST(Operand, ConstantsAndCells) {
  const auto zero = Operand::constant(false);
  const auto one = Operand::constant(true);
  const auto c5 = Operand::cell(5);
  EXPECT_TRUE(zero.is_constant());
  EXPECT_FALSE(zero.constant_value());
  EXPECT_TRUE(one.constant_value());
  EXPECT_FALSE(c5.is_constant());
  EXPECT_EQ(c5.cell_index(), 5u);
  EXPECT_EQ(Operand{}, zero);  // default operand is constant 0
}

TEST(Rm3, TruthTableAllEightCases) {
  // Z ← ⟨A B̄ Z⟩ for every (a, b, z) combination, one bit per case.
  for (unsigned a = 0; a < 2; ++a) {
    for (unsigned b = 0; b < 2; ++b) {
      for (unsigned z = 0; z < 2; ++z) {
        RramArray array(3);
        array.preload(0, a ? ~0ULL : 0);
        array.preload(1, b ? ~0ULL : 0);
        array.preload(2, z ? ~0ULL : 0);
        PlimController::execute(
            array, Instruction{Operand::cell(0), Operand::cell(1), 2});
        const unsigned expected = ((a + (1 - b) + z) >= 2) ? 1 : 0;
        EXPECT_EQ(array.read(2) & 1, expected) << "a=" << a << " b=" << b
                                               << " z=" << z;
      }
    }
  }
}

TEST(Rm3, ConstantOperands) {
  RramArray array(1);
  array.preload(0, 0);
  // RM3(1, 0, Z) = ⟨1 1 Z⟩ = 1.
  PlimController::execute(array, make_write_const(true, 0));
  EXPECT_EQ(array.read(0), ~0ULL);
  // RM3(0, 1, Z) = ⟨0 0 Z⟩ = 0.
  PlimController::execute(array, make_write_const(false, 0));
  EXPECT_EQ(array.read(0), 0ULL);
}

TEST(Rm3, CopyIdiom) {
  RramArray array(2);
  array.preload(0, 0xdeadbeefULL);
  PlimController::execute(array, make_write_const(false, 1));
  PlimController::execute(array, make_copy_step(0, 1));
  EXPECT_EQ(array.read(1), 0xdeadbeefULL);
  EXPECT_EQ(array.write_count(1), 2u);
  EXPECT_EQ(array.write_count(0), 0u);  // source untouched
}

TEST(Rm3, ComplementCopyIdiom) {
  RramArray array(2);
  array.preload(0, 0xdeadbeefULL);
  PlimController::execute(array, make_write_const(true, 1));
  PlimController::execute(array, make_complement_copy_step(0, 1));
  EXPECT_EQ(array.read(1), ~0xdeadbeefULL);
}

TEST(RramArray, WriteCountsAndPreload) {
  RramArray array(4);
  array.write(2, 7);
  array.write(2, 9);
  array.preload(3, 5);  // preload does not wear
  EXPECT_EQ(array.write_count(2), 2u);
  EXPECT_EQ(array.write_count(3), 0u);
  EXPECT_EQ(array.read(3), 5u);
  const auto counts = array.write_counts();
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{0, 0, 2, 0}));
}

TEST(RramArray, OutOfRangeThrows) {
  RramArray array(2);
  EXPECT_THROW(static_cast<void>(array.read(2)), Error);
  EXPECT_THROW(array.write(5, 0), Error);
  EXPECT_THROW(static_cast<void>(array.write_count(2)), Error);
}

TEST(RramArray, EnduranceFailureIsStuckAtLastValue) {
  RramArray array(1, RramConfig{.endurance_limit = 3});
  array.write(0, 1);
  array.write(0, 2);
  EXPECT_FALSE(array.is_failed(0));
  array.write(0, 3);
  EXPECT_TRUE(array.is_failed(0));
  array.write(0, 99);  // dropped
  EXPECT_EQ(array.read(0), 3u);
  EXPECT_EQ(array.write_count(0), 3u);
  EXPECT_EQ(array.failed_cell_count(), 1u);
}

TEST(RramArray, FailedCellIgnoresPreloadAndReset) {
  // A hard-failed cell is stuck at its last value for *every* external
  // write path: counted writes, uncounted preloads, and reset_values.
  RramArray array(2, RramConfig{.endurance_limit = 2});
  array.write(0, 1);
  array.write(0, 0xabcdULL);
  ASSERT_TRUE(array.is_failed(0));
  array.preload(0, 7);  // dropped: the cell is stuck
  EXPECT_EQ(array.read(0), 0xabcdULL);
  array.preload(1, 9);  // healthy neighbor still preloads
  EXPECT_EQ(array.read(1), 9u);
  array.reset_values();
  EXPECT_EQ(array.read(0), 0xabcdULL);  // stuck value survives the reset
  EXPECT_EQ(array.read(1), 0u);
}

TEST(RramArray, VariabilityDrawsPerCellLimits) {
  RramArray array(64, RramConfig{.endurance_limit = 1000,
                                 .endurance_sigma = 0.5,
                                 .variation_seed = 9});
  bool saw_below = false;
  bool saw_above = false;
  for (Cell cell = 0; cell < 64; ++cell) {
    const auto limit = array.endurance_of(cell);
    ASSERT_TRUE(limit.has_value());
    EXPECT_GE(*limit, 1u);
    saw_below |= *limit < 1000;
    saw_above |= *limit > 1000;
  }
  EXPECT_TRUE(saw_below);
  EXPECT_TRUE(saw_above);
  // Deterministic per seed.
  RramArray again(64, RramConfig{.endurance_limit = 1000,
                                 .endurance_sigma = 0.5,
                                 .variation_seed = 9});
  for (Cell cell = 0; cell < 64; ++cell) {
    EXPECT_EQ(array.endurance_of(cell), again.endurance_of(cell));
  }
}

TEST(RramArray, VariabilityZeroSigmaIsUniform) {
  RramArray array(8, RramConfig{.endurance_limit = 77});
  EXPECT_TRUE(array.has_endurance_model());
  for (Cell cell = 0; cell < 8; ++cell) {
    EXPECT_EQ(array.endurance_of(cell), 77u);
  }
  // Model disabled: endurance_of is nullopt (unlimited), never a zero limit —
  // the two used to be conflated as 0.
  RramArray unlimited(4);
  EXPECT_FALSE(unlimited.has_endurance_model());
  EXPECT_FALSE(unlimited.endurance_of(0).has_value());
}

TEST(RramArray, WeakCellFailsFirst) {
  RramArray array(32, RramConfig{.endurance_limit = 50,
                                 .endurance_sigma = 0.7,
                                 .variation_seed = 4});
  Cell weakest = 0;
  for (Cell cell = 1; cell < 32; ++cell) {
    if (*array.endurance_of(cell) < *array.endurance_of(weakest)) {
      weakest = cell;
    }
  }
  for (std::uint64_t i = 0; i < *array.endurance_of(weakest); ++i) {
    for (Cell cell = 0; cell < 32; ++cell) {
      array.write(cell, i);
    }
  }
  EXPECT_TRUE(array.is_failed(weakest));
  EXPECT_GE(array.failed_cell_count(), 1u);
  EXPECT_LT(array.failed_cell_count(), 32u);
}

TEST(RramArray, NegativeSigmaThrows) {
  EXPECT_THROW(RramArray(4, RramConfig{.endurance_limit = 10,
                                       .endurance_sigma = -0.1}),
               Error);
}

TEST(RramArray, ResetValuesKeepsWear) {
  RramArray array(2);
  array.write(0, 42);
  array.reset_values();
  EXPECT_EQ(array.read(0), 0u);
  EXPECT_EQ(array.write_count(0), 1u);
}

TEST(RramArray, StatsMatchWriteCounts) {
  RramArray array(3);
  array.write(0, 1);
  array.write(0, 1);
  array.write(1, 1);
  const auto stats = array.stats();
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_EQ(stats.total, 3u);
}

TEST(Program, AppendGrowsCellSpace) {
  Program program;
  program.append(Instruction{Operand::cell(3), Operand::constant(true), 7});
  EXPECT_EQ(program.num_cells(), 8u);
  EXPECT_EQ(program.size(), 1u);
  program.set_num_cells(20);
  EXPECT_EQ(program.num_cells(), 20u);
  EXPECT_THROW(program.set_num_cells(5), Error);
}

TEST(Program, StaticWriteCounts) {
  Program program;
  program.append(make_write_const(true, 0));
  program.append(make_write_const(false, 0));
  program.append(make_write_const(true, 2));
  const auto counts = program.static_write_counts();
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{2, 0, 1}));
}

TEST(Program, DisassembleMentionsEverything) {
  Program program;
  program.bind_pi(0);
  program.append(Instruction{Operand::cell(0), Operand::constant(false), 1});
  program.bind_po(1);
  const auto text = program.disassemble();
  EXPECT_NE(text.find("RM3(c[0], !0, c[1])"), std::string::npos);
  EXPECT_NE(text.find("pi 0 -> c[0]"), std::string::npos);
  EXPECT_NE(text.find("po 0 <- c[1]"), std::string::npos);
}

TEST(Program, SerializationRoundTrip) {
  Program program;
  program.bind_pi(0);
  program.bind_pi(1);
  program.append(make_write_const(true, 2));
  program.append(Instruction{Operand::cell(0), Operand::cell(1), 2});
  program.append(make_copy_step(2, 3));
  program.bind_po(3);
  program.set_num_cells(6);  // cells 4,5 allocated but unwritten

  std::stringstream stream;
  program.write(stream);
  const auto back = Program::read(stream);
  EXPECT_EQ(back.size(), program.size());
  EXPECT_EQ(back.num_cells(), program.num_cells());
  EXPECT_TRUE(std::equal(back.instructions().begin(), back.instructions().end(),
                         program.instructions().begin()));
  EXPECT_TRUE(std::equal(back.pi_cells().begin(), back.pi_cells().end(),
                         program.pi_cells().begin()));
  EXPECT_TRUE(std::equal(back.po_cells().begin(), back.po_cells().end(),
                         program.po_cells().begin()));

  // Both must evaluate identically.
  const std::vector<std::uint64_t> pis{0xff00ff00, 0x0f0f0f0f};
  EXPECT_EQ(evaluate(back, pis), evaluate(program, pis));
}

TEST(Program, EveryConstructionPathKeepsTheCellInvariant) {
  // append/bind_*, adopt_raw and read are the only ways to build a Program;
  // each keeps every reference below num_cells(), so validate() never fires.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto built = test::random_program(seed, 3 + seed % 17, 40, 3, 2);
    EXPECT_NO_THROW(built.validate()) << seed;

    Program::RawProgram raw;
    raw.instructions.assign(built.instructions().begin(), built.instructions().end());
    raw.pi_cells.assign(built.pi_cells().begin(), built.pi_cells().end());
    raw.po_cells.assign(built.po_cells().begin(), built.po_cells().end());
    raw.num_cells = built.num_cells() + 1;
    EXPECT_NO_THROW(Program::adopt_raw(std::move(raw)).validate()) << seed;

    std::stringstream stream;
    built.write(stream);
    EXPECT_NO_THROW(Program::read(stream).validate()) << seed;
  }
}

TEST(Program, RejectsACellIndexTheCellSpaceCannotCover) {
  // num_cells() is one past the largest reference, so the largest Cell value
  // would wrap it to 0 and break the invariant.
  constexpr Cell kTop = std::numeric_limits<Cell>::max();
  Program program;
  EXPECT_THROW(program.append(make_write_const(true, kTop)), Error);
  EXPECT_THROW(program.bind_pi(kTop), Error);
  EXPECT_THROW(program.bind_po(kTop), Error);
  EXPECT_EQ(program.size(), 0u);
  EXPECT_EQ(program.num_cells(), 0u);
  std::stringstream stream(".plim 1 1\n.rm3 0 1 4294967295\n.end\n");
  EXPECT_THROW(Program::read(stream), Error);
}

TEST(Program, ReadRejectsMalformedInput) {
  {
    std::stringstream stream(".rm3 c0 c1 2\n.end\n");  // no header
    EXPECT_THROW(Program::read(stream), Error);
  }
  {
    std::stringstream stream(".plim 1 4\n.rm3 x0 c1 2\n.end\n");  // bad operand
    EXPECT_THROW(Program::read(stream), Error);
  }
  {
    std::stringstream stream(".plim 0 1\n.bogus\n.end\n");
    EXPECT_THROW(Program::read(stream), Error);
  }
}

TEST(Controller, FsmLifecycle) {
  Program program;
  program.append(make_write_const(true, 0));
  program.append(make_write_const(false, 1));
  RramArray array(program.num_cells());
  PlimController controller(array);
  EXPECT_EQ(controller.state(), PlimController::State::Idle);
  controller.start(program);
  EXPECT_EQ(controller.state(), PlimController::State::Running);
  EXPECT_EQ(controller.program_counter(), 0u);
  EXPECT_TRUE(controller.step());
  EXPECT_EQ(controller.program_counter(), 1u);
  EXPECT_FALSE(controller.step());
  EXPECT_EQ(controller.state(), PlimController::State::Done);
  EXPECT_THROW(controller.step(), Error);
}

TEST(Controller, RunExecutesWholeProgram) {
  Program program;
  for (int i = 0; i < 5; ++i) {
    program.append(make_write_const(i % 2 == 0, static_cast<Cell>(i)));
  }
  RramArray array(program.num_cells());
  PlimController controller(array);
  EXPECT_EQ(controller.run(program), 5u);
  EXPECT_EQ(array.read(0), ~0ULL);
  EXPECT_EQ(array.read(1), 0ULL);
}

TEST(Controller, EmptyProgramIsImmediatelyDone) {
  Program program;
  RramArray array(1);
  PlimController controller(array);
  controller.start(program);
  EXPECT_EQ(controller.state(), PlimController::State::Done);
  EXPECT_EQ(controller.run(), 0u);
}

TEST(Controller, ProgramLargerThanArrayThrows) {
  Program program;
  program.append(make_write_const(true, 10));
  RramArray array(4);
  PlimController controller(array);
  EXPECT_THROW(controller.start(program), Error);
}

TEST(Controller, RunFinishesWhatStepStarted) {
  Program program;
  for (int i = 0; i < 6; ++i) {
    program.append(make_write_const(i % 2 == 1, static_cast<Cell>(i)));
  }
  RramArray array(program.num_cells());
  PlimController controller(array);
  controller.start(program);
  EXPECT_TRUE(controller.step());
  EXPECT_TRUE(controller.step());
  EXPECT_EQ(controller.run(), 4u);
  EXPECT_EQ(controller.state(), PlimController::State::Done);
  EXPECT_EQ(controller.program_counter(), 6u);
  EXPECT_EQ(controller.run(), 0u);
  for (Cell cell = 0; cell < 6; ++cell) {
    EXPECT_EQ(array.write_count(cell), 1u);
    EXPECT_EQ(array.read(cell), cell % 2 == 1 ? ~0ULL : 0ULL);
  }
}

TEST(RramArray, ExecuteMatchesPerInstructionSteps) {
  // Differential: the devirtualized kernel against the controller's
  // instruction-at-a-time path through read/write, on arrays whose weakest
  // cells wear out within a few executions.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto program = test::random_program(seed, 24, 300, 4, 3);
    const RramConfig config{.endurance_limit = 40,
                            .endurance_sigma = 0.6,
                            .variation_seed = seed};
    RramArray kernel(program.num_cells(), config);
    RramArray stepped(program.num_cells(), config);
    util::Xoshiro256 rng(seed);
    for (int run = 0; run < 8; ++run) {
      for (const auto cell : program.pi_cells()) {
        const auto word = rng();
        kernel.preload(cell, word);
        stepped.preload(cell, word);
      }
      kernel.execute(program.instructions());
      PlimController controller(stepped);
      controller.start(program);
      while (controller.state() == PlimController::State::Running) {
        controller.step();
      }
      ASSERT_EQ(kernel.write_counts(), stepped.write_counts()) << seed;
      for (Cell cell = 0; cell < program.num_cells(); ++cell) {
        ASSERT_EQ(kernel.read(cell), stepped.read(cell)) << seed << " " << cell;
      }
      ASSERT_EQ(kernel.failed_cell_count(), stepped.failed_cell_count());
    }
    EXPECT_GT(kernel.failed_cell_count(), 0u) << seed;
  }
}

TEST(Evaluate, MajorityProgram) {
  // Hand-written program computing ⟨a b̄ c⟩ into c's cell.
  Program program;
  program.bind_pi(0);
  program.bind_pi(1);
  program.bind_pi(2);
  program.append(Instruction{Operand::cell(0), Operand::cell(1), 2});
  program.bind_po(2);
  const std::vector<std::uint64_t> pis{0b0011, 0b0101, 0b1001};
  const auto out = evaluate(program, pis);
  // maj(a, ¬b, c): rows — a=1100? bit order: value of bit k.
  std::uint64_t expected = 0;
  for (int k = 0; k < 4; ++k) {
    const int a = (0b0011 >> k) & 1;
    const int b = (0b0101 >> k) & 1;
    const int c = (0b1001 >> k) & 1;
    if (a + (1 - b) + c >= 2) {
      expected |= 1ULL << k;
    }
  }
  EXPECT_EQ(out[0] & 0xF, expected);
}

TEST(Evaluate, AccumulatesWearAcrossRuns) {
  Program program;
  program.bind_pi(0);
  program.append(make_write_const(true, 1));
  program.bind_po(1);
  RramArray array(program.num_cells());
  const std::vector<std::uint64_t> pis{0};
  evaluate(program, pis, &array);
  evaluate(program, pis, &array);
  evaluate(program, pis, &array);
  EXPECT_EQ(array.write_count(1), 3u);
}

TEST(Evaluate, DynamicWearMatchesStaticAccounting) {
  // The compiler's static write counts must equal the crossbar's observed
  // wear after execution — per run, and accumulating linearly across runs.
  Program program;
  program.bind_pi(0);
  program.bind_pi(1);
  program.append(make_write_const(false, 2));
  program.append(make_copy_step(0, 2));
  program.append(Instruction{Operand::cell(1), Operand::cell(0), 2});
  program.append(Instruction{Operand::cell(2), Operand::constant(true), 3});
  program.bind_po(3);

  RramArray array(program.num_cells());
  const std::vector<std::uint64_t> pis{0x12345678, 0x9abcdef0};
  const auto static_counts = program.static_write_counts();
  for (int run = 1; run <= 3; ++run) {
    evaluate(program, pis, &array);
    for (Cell cell = 0; cell < program.num_cells(); ++cell) {
      ASSERT_EQ(array.write_count(cell),
                static_cast<std::uint64_t>(run) * static_counts[cell])
          << "run " << run << " cell " << cell;
    }
  }
}

TEST(Evaluate, TooSmallCallerArrayThrows) {
  Program program;
  program.bind_pi(0);
  program.append(make_copy_step(0, 5));
  program.bind_po(5);
  const std::vector<std::uint64_t> pis{7};
  RramArray small(5);
  EXPECT_THROW(evaluate(program, pis, &small), Error);
  RramArray fits(6);
  EXPECT_EQ(evaluate(program, pis, &fits), (std::vector<std::uint64_t>{7}));
}

TEST(Evaluate, PiCountMismatchThrows) {
  Program program;
  program.bind_pi(0);
  const std::vector<std::uint64_t> none{};
  EXPECT_THROW(evaluate(program, none), Error);
}

}  // namespace
}  // namespace rlim::plim

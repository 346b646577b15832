#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scanpower {
namespace {

/// Checks functional equivalence of `a` and `b` (same PI/PO/DFF names) on
/// `vectors` random source assignments: PO values and DFF next states must
/// agree.
void expect_equivalent(const Netlist& a, const Netlist& b, int vectors,
                       std::uint64_t seed) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  ASSERT_EQ(a.dffs().size(), b.dffs().size());
  Simulator sa(a);
  Simulator sb(b);
  Rng rng(seed);
  for (int v = 0; v < vectors; ++v) {
    for (std::size_t k = 0; k < a.inputs().size(); ++k) {
      const Logic val = from_bool(rng.next_bool());
      sa.set_input(a.inputs()[k], val);
      sb.set_input(b.find(a.gate_name(a.inputs()[k])), val);
    }
    for (std::size_t k = 0; k < a.dffs().size(); ++k) {
      const Logic val = from_bool(rng.next_bool());
      sa.set_state(a.dffs()[k], val);
      sb.set_state(b.find(a.gate_name(a.dffs()[k])), val);
    }
    sa.eval_incremental();
    sb.eval_incremental();
    for (std::size_t k = 0; k < a.outputs().size(); ++k) {
      ASSERT_EQ(sa.value(a.outputs()[k]), sb.value(b.outputs()[k]))
          << "PO " << a.gate_name(a.outputs()[k]) << " vector " << v;
    }
    for (std::size_t k = 0; k < a.dffs().size(); ++k) {
      ASSERT_EQ(sa.next_state(a.dffs()[k]),
                sb.next_state(b.find(a.gate_name(a.dffs()[k]))))
          << "DFF " << a.gate_name(a.dffs()[k]) << " vector " << v;
    }
  }
}

TEST(Techmap, S27MapsAndStaysEquivalent) {
  const Netlist nl = make_s27();
  const Netlist mapped = map_to_nand_nor_inv(nl);
  EXPECT_TRUE(is_mapped(mapped));
  expect_equivalent(nl, mapped, 256, 11);
}

TEST(Techmap, MappedLibraryOnly) {
  const Netlist mapped = map_to_nand_nor_inv(make_s27());
  for (GateId id = 0; id < mapped.num_gates(); ++id) {
    const GateType t = mapped.type(id);
    EXPECT_TRUE(t == GateType::Input || t == GateType::Dff ||
                t == GateType::Not || t == GateType::Nand ||
                t == GateType::Nor)
        << gate_type_name(t);
  }
}

TEST(Techmap, XorDecomposition) {
  NetlistBuilder b("x");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Xor, "y", {"a", "b"});
  b.add_output("y");
  const Netlist nl = b.link();
  const Netlist mapped = map_to_nand_nor_inv(nl);
  EXPECT_TRUE(is_mapped(mapped));
  expect_equivalent(nl, mapped, 16, 3);
  // 2-input XOR = exactly 4 NAND2 cells.
  std::size_t nands = 0;
  for (GateId id = 0; id < mapped.num_gates(); ++id) {
    if (mapped.type(id) == GateType::Nand) ++nands;
  }
  EXPECT_EQ(nands, 4u);
}

TEST(Techmap, WideXnorDecomposition) {
  NetlistBuilder b("x");
  for (int i = 0; i < 5; ++i) b.add_input("i" + std::to_string(i));
  b.add_gate(GateType::Xnor, "y", {"i0", "i1", "i2", "i3", "i4"});
  b.add_output("y");
  const Netlist nl = b.link();
  const Netlist mapped = map_to_nand_nor_inv(nl);
  EXPECT_TRUE(is_mapped(mapped));
  expect_equivalent(nl, mapped, 64, 5);
}

TEST(Techmap, MuxDecomposition) {
  NetlistBuilder b("m");
  b.add_input("s");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Mux, "y", {"s", "a", "b"});
  b.add_output("y");
  const Netlist nl = b.link();
  const Netlist mapped = map_to_nand_nor_inv(nl);
  EXPECT_TRUE(is_mapped(mapped));
  expect_equivalent(nl, mapped, 16, 7);
}

TEST(Techmap, BuffersBypassed) {
  NetlistBuilder b("buf");
  b.add_input("a");
  b.add_gate(GateType::Buf, "x", {"a"});
  b.add_gate(GateType::Not, "y", {"x"});
  b.add_output("y");
  const Netlist mapped = map_to_nand_nor_inv(b.link());
  EXPECT_EQ(mapped.find("x"), kInvalidGate);  // buffer gone
  const GateId y = mapped.find("y");
  ASSERT_NE(y, kInvalidGate);
  EXPECT_EQ(mapped.fanins(y)[0], mapped.find("a"));
}

TEST(Techmap, BufferChainsCollapse) {
  NetlistBuilder b("bufchain");
  b.add_input("a");
  b.add_gate(GateType::Buf, "x1", {"a"});
  b.add_gate(GateType::Buf, "x2", {"x1"});
  b.add_gate(GateType::Not, "y", {"x2"});
  b.add_output("y");
  const Netlist mapped = map_to_nand_nor_inv(b.link());
  EXPECT_EQ(mapped.fanins(mapped.find("y"))[0], mapped.find("a"));
}

class TechmapWidthTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TechmapWidthTest, WideGatesSplitCorrectly) {
  const int width = std::get<0>(GetParam());
  const int max_w = std::get<1>(GetParam());
  for (GateType t : {GateType::And, GateType::Or, GateType::Nand, GateType::Nor}) {
    NetlistBuilder b("wide");
    std::vector<std::string> ins;
    for (int i = 0; i < width; ++i) {
      ins.push_back(strprintf("i%d", i));
      b.add_input(ins.back());
    }
    b.add_gate(t, "y", ins);
    b.add_output("y");
    const Netlist nl = b.link();
    TechmapOptions opts;
    opts.max_width = max_w;
    const Netlist mapped = map_to_nand_nor_inv(nl, opts);
    EXPECT_TRUE(is_mapped(mapped, opts))
        << gate_type_name(t) << width << " maxw=" << max_w;
    expect_equivalent(nl, mapped, 128, 17);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, TechmapWidthTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 9, 12),
                       ::testing::Values(2, 3, 4)));

TEST(Techmap, SyntheticCircuitEquivalence) {
  SynthProfile p;
  p.name = "tmx";
  p.num_pi = 6;
  p.num_po = 4;
  p.num_ff = 5;
  p.num_gates = 120;
  p.seed = 99;
  const Netlist nl = generate_synthetic(p);
  const Netlist mapped = map_to_nand_nor_inv(nl);
  EXPECT_TRUE(is_mapped(mapped));
  expect_equivalent(nl, mapped, 256, 23);
}

TEST(Techmap, PreservesInterfaceCounts) {
  const Netlist nl = make_iscas89_like("s344");
  const Netlist mapped = map_to_nand_nor_inv(nl);
  EXPECT_EQ(mapped.inputs().size(), nl.inputs().size());
  EXPECT_EQ(mapped.outputs().size(), nl.outputs().size());
  EXPECT_EQ(mapped.dffs().size(), nl.dffs().size());
}

TEST(Techmap, RejectsMaxWidthBelow2) {
  TechmapOptions opts;
  opts.max_width = 1;
  EXPECT_THROW(map_to_nand_nor_inv(make_s27(), opts), Error);
}

}  // namespace
}  // namespace scanpower

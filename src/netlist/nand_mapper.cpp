#include "netlist/nand_mapper.hpp"

#include <algorithm>
#include <optional>

#include "netlist/kernels.hpp"
#include "util/error.hpp"

namespace mcx {

namespace {

using Fanin = NandNetwork::Fanin;

/// A logical signal during mapping: a network fanin or a known constant
/// (constants appear when factoring non-minimal covers, e.g. the quotient of
/// x1 x2 + x1 !x2 is the tautology x2 + !x2).
struct Signal {
  enum class Kind { Const0, Const1, Wire } kind = Kind::Wire;
  Fanin fanin{};

  static Signal constant(bool v) { return {v ? Kind::Const1 : Kind::Const0, {}}; }
  static Signal wire(Fanin f) { return {Kind::Wire, f}; }
  bool isConst() const { return kind != Kind::Wire; }
  bool constValue() const { return kind == Kind::Const1; }
};

class TreeMapper {
public:
  TreeMapper(NandNetwork& net, std::size_t maxFanin) : net_(net), maxFanin_(maxFanin) {}

  /// The tree's value, complemented iff @p complemented.
  Signal emit(const FactorTree& tree, bool complemented) {
    switch (tree.kind) {
      case FactorTree::Kind::Literal:
        return Signal::wire(Fanin{net_.pi(tree.var), tree.negated != complemented});
      case FactorTree::Kind::And: {
        // NAND(children) is the complement of the AND.
        const Signal nand = nandOf(tree, /*complementChildren=*/false);
        return complemented ? nand : invert(nand);
      }
      case FactorTree::Kind::Or: {
        // NAND(!children) is the OR itself.
        const Signal nand = nandOf(tree, /*complementChildren=*/true);
        return complemented ? invert(nand) : nand;
      }
    }
    throw InvalidArgument("TreeMapper::emit: bad tree kind");
  }

  /// Emit the tree as a network output: {gate, outputInverted}. The OL
  /// inversion is free, so And/Or need exactly one gate at the top.
  std::pair<NodeId, bool> emitOutput(const FactorTree& tree) {
    switch (tree.kind) {
      case FactorTree::Kind::Literal:
        // Wrap in a 1-input NAND; OL inversion recovers the literal.
        return {gate({Fanin{net_.pi(tree.var), tree.negated}}), true};
      case FactorTree::Kind::And: {
        const Signal nand = nandOf(tree, false);
        MCX_REQUIRE(!nand.isConst(), "mapToNand: constant output function");
        return {asGate(nand.fanin), true};
      }
      case FactorTree::Kind::Or: {
        const Signal nand = nandOf(tree, true);
        MCX_REQUIRE(!nand.isConst(), "mapToNand: constant output function");
        return {asGate(nand.fanin), false};
      }
    }
    throw InvalidArgument("TreeMapper::emitOutput: bad tree kind");
  }

private:
  /// NAND over the children (each complemented iff @p complementChildren),
  /// with constant folding: NAND(.., 0, ..) = 1; 1-inputs are dropped;
  /// complementary PI rails short out to 1; NAND() = 0.
  Signal nandOf(const FactorTree& tree, bool complementChildren) {
    std::vector<Fanin> fanins;
    fanins.reserve(tree.children.size());
    for (const FactorTree& c : tree.children) {
      const Signal s = emit(c, complementChildren);
      if (s.isConst()) {
        if (!s.constValue()) return Signal::constant(true);  // NAND with a 0 input
        continue;                                            // drop 1 inputs
      }
      fanins.push_back(s.fanin);
    }
    if (fanins.empty()) return Signal::constant(false);  // NAND of nothing = !1
    std::sort(fanins.begin(), fanins.end());
    fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());
    for (std::size_t i = 0; i + 1 < fanins.size(); ++i)
      if (fanins[i].node == fanins[i + 1].node)
        return Signal::constant(true);  // x AND !x inside the NAND
    return Signal::wire(Fanin{gate(std::move(fanins)), false});
  }

  Signal invert(const Signal& s) {
    if (s.isConst()) return Signal::constant(!s.constValue());
    return Signal::wire(Fanin{gate({s.fanin}), false});
  }

  /// A wire must reference a gate to become a network output; PIs get a
  /// wrapper inverter pair upstream, so this always holds.
  NodeId asGate(const Fanin& f) const {
    MCX_REQUIRE(!f.invert && !net_.isPi(f.node), "mapToNand: output is not a gate");
    return f.node;
  }

  /// Create a NAND gate, decomposing beyond the fan-in bound:
  /// NAND(a1..am) = NAND(AND(a1..ak), a_{k+1}..am) with AND realized as
  /// NAND + inverter.
  NodeId gate(std::vector<Fanin> fanins) {
    if (maxFanin_ >= 2) {
      while (fanins.size() > maxFanin_) {
        std::vector<Fanin> group(fanins.end() - static_cast<std::ptrdiff_t>(maxFanin_),
                                 fanins.end());
        fanins.resize(fanins.size() - maxFanin_);
        const NodeId nandG = net_.addNand(std::move(group));
        const NodeId andG = net_.addNand({Fanin{nandG, false}});  // inverter
        fanins.push_back(Fanin{andG, false});
      }
    }
    return net_.addNand(std::move(fanins));
  }

  NandNetwork& net_;
  std::size_t maxFanin_;
};

FactorTree flatTree(const std::vector<Cube>& cubes, std::size_t nin) {
  std::vector<FactorTree> products;
  products.reserve(cubes.size());
  for (const Cube& c : cubes) {
    std::vector<FactorTree> lits;
    for (std::size_t v = 0; v < nin; ++v) {
      const Lit l = c.lit(v);
      if (l == Lit::Pos) lits.push_back(FactorTree::literal(v, false));
      if (l == Lit::Neg) lits.push_back(FactorTree::literal(v, true));
    }
    MCX_REQUIRE(!lits.empty(), "mapToNand: constant-1 product");
    products.push_back(FactorTree::makeAnd(std::move(lits)));
  }
  return FactorTree::makeOr(std::move(products));
}

}  // namespace

NandNetwork mapToNand(const Cover& cover, const NandMapOptions& opts) {
  MCX_REQUIRE(cover.nout() >= 1, "mapToNand: cover has no outputs");
  NandNetwork net(cover.nin());
  TreeMapper mapper(net, opts.maxFanin);
  for (std::size_t o = 0; o < cover.nout(); ++o) {
    const std::vector<Cube> proj = cover.projection(o);
    MCX_REQUIRE(!proj.empty(), "mapToNand: constant-0 output " + std::to_string(o));
    const FactorTree tree = !opts.factored          ? flatTree(proj, cover.nin())
                            : opts.kernelFactoring  ? goodFactor(proj, cover.nin())
                                                    : factorCover(proj, cover.nin());
    const auto [gate, inverted] = mapper.emitOutput(tree);
    net.addOutput(gate, inverted);
  }
  return net;
}

NandNetwork mapToNandBest(const Cover& cover, std::size_t maxFanin) {
  NandMapOptions flat;
  flat.factored = false;
  flat.maxFanin = maxFanin;
  NandMapOptions quick;
  quick.maxFanin = maxFanin;
  NandMapOptions kernel;
  kernel.kernelFactoring = true;
  kernel.maxFanin = maxFanin;

  NandNetwork best = mapToNand(cover, flat);
  // Crossbar area needs the area model, which lives above this library;
  // compare by the quantities it is monotone in: rows = G + O and cols
  // grow with the interconnect count, so compare (G + C) then G.
  const auto costOf = [](const NandNetwork& net) {
    return std::pair<std::size_t, std::size_t>(net.gateCount() + net.interconnectCount(),
                                               net.gateCount());
  };
  for (const NandMapOptions& opts : {quick, kernel}) {
    NandNetwork candidate = mapToNand(cover, opts);
    if (costOf(candidate) < costOf(best)) best = std::move(candidate);
  }
  return best;
}

}  // namespace mcx

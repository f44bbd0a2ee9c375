// SOP -> NAND network technology mapping (the library's ABC substitute).
//
// Each output of a cover is factored (netlist/factor.hpp) and the factor
// tree is converted to NAND-only gates over double-rail inputs:
//   AND(c1..ck)  ->  NAND(c1..ck) produces the complement (free to consume
//                    where a complement is wanted; otherwise a 1-input NAND
//                    inverter is inserted),
//   OR(c1..ck)   ->  NAND(!c1..!ck) produces the value directly.
// Literal polarity is free (IL provides both rails); output polarity is free
// (OL INR step). Structural hashing shares identical gates across outputs.
//
// An optional fan-in bound decomposes wide gates into NAND+inverter chains,
// matching the paper's "NAND gates with fan-in sizes 2 to n" setup.
#pragma once

#include "logic/cover.hpp"
#include "netlist/factor.hpp"
#include "netlist/nand_network.hpp"

namespace mcx {

struct NandMapOptions {
  /// Maximum NAND fan-in; 0 means unbounded (the paper's default is fan-in
  /// up to n, the function's input count, which is equivalent for SOP-sized
  /// products).
  std::size_t maxFanin = 0;
  /// If false, skip factoring and emit the flat two-level NAND-NAND form
  /// (products -> first-level NANDs, output -> one top NAND).
  bool factored = true;
  /// Use kernel-based factoring (netlist/kernels.hpp goodFactor) instead of
  /// literal-based quick factoring; slower, usually fewer gates.
  bool kernelFactoring = false;
};

/// Map a multi-output cover to a NAND network. Covers with constant outputs
/// (empty or tautological projections) are rejected — the crossbar
/// architecture computes non-trivial functions.
NandNetwork mapToNand(const Cover& cover, const NandMapOptions& opts = {});

/// Try the flat, quick-factored and kernel-factored mappings and keep the
/// one with the smallest multi-level crossbar area (what a technology
/// mapper like ABC effectively does). @p maxFanin as in NandMapOptions.
NandNetwork mapToNandBest(const Cover& cover, std::size_t maxFanin = 0);

}  // namespace mcx

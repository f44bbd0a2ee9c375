// Berkeley PLA format reader / writer (espresso-compatible subset).
//
// Supported directives: .i .o .p .ilb .ob .type {f, fd, fr, fdr} .e/.end.
// Input characters: 0 1 - (and 2/~ as aliases of -). Output characters:
// 1 (ON), 0 (unused for fd; OFF for fr), - / 2 (DC), ~ (unused).
//
// Malformed input is a hard ParseError carrying the line number: bad or
// missing .i/.o counts, cube width mismatches, bad cube characters, unknown
// directives or .type values, and a missing terminating .e/.end — a file
// that parses at all parses exactly.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "logic/cover.hpp"

namespace mcx {

struct PlaFile {
  Cover on;                             ///< ON-set cover
  Cover dc;                             ///< don't-care cover (same arity)
  Cover off;                            ///< OFF-set cover (fr/fdr types)
  std::vector<std::string> inputNames;  ///< empty if the file had no .ilb
  std::vector<std::string> outputNames; ///< empty if the file had no .ob
  std::string type = "fd";
};

/// Parse PLA text. Throws ParseError on malformed input.
PlaFile parsePla(std::istream& in);
PlaFile parsePlaString(const std::string& text);
/// readPlaFileBytes + parsePlaString.
PlaFile readPlaFile(const std::string& path);

/// Largest PLA file readPlaFileBytes accepts.
inline constexpr std::size_t kMaxPlaFileBytes = std::size_t{16} << 20;

/// The bytes of the PLA file at @p path: the one reader behind every
/// file: circuit (declaration check, cache key, parse). Throws ParseError
/// when the path is not a regular file (checked before opening, so a FIFO
/// cannot block and a device cannot stream forever), cannot be read, or
/// holds more than kMaxPlaFileBytes.
std::string readPlaFileBytes(const std::string& path);

/// Serialize as type-fd PLA (ON cubes, then DC cubes rendered with '-'
/// outputs if present).
std::string writePla(const PlaFile& pla);
std::string writePla(const Cover& on);

}  // namespace mcx

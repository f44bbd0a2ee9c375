#include "logic/pla.hpp"

#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace mcx {

namespace {

std::vector<std::string> splitWs(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> out;
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

[[noreturn]] void plaError(std::size_t line, const std::string& message) {
  throw ParseError("PLA line " + std::to_string(line) + ": " + message);
}

/// Strict directive argument: all digits, >= 1. A silently truncated ".i 5x"
/// or an accepted ".i 0" would misparse every cube that follows.
std::size_t parseDirectiveCount(std::size_t line, const std::string& directive,
                                const std::string& text) {
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size())
    plaError(line, directive + ": bad count \"" + text + "\"");
  if (value == 0) plaError(line, directive + " must be at least 1");
  return value;
}

struct BodyLine {
  std::string in;
  std::string out;
  std::size_t line = 0;
};

}  // namespace

PlaFile parsePla(std::istream& in) {
  std::size_t nin = 0, nout = 0;
  bool haveI = false, haveO = false, haveEnd = false;
  PlaFile pla;
  std::vector<BodyLine> bodyLines;

  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments and whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    const auto toks = splitWs(line);
    if (toks.empty()) continue;
    const std::string& head = toks[0];
    if (head[0] == '.') {
      if (head == ".i") {
        if (haveI) plaError(lineNo, "duplicate .i");
        if (toks.size() != 2) plaError(lineNo, ".i needs exactly one argument");
        nin = parseDirectiveCount(lineNo, ".i", toks[1]);
        haveI = true;
      } else if (head == ".o") {
        if (haveO) plaError(lineNo, "duplicate .o");
        if (toks.size() != 2) plaError(lineNo, ".o needs exactly one argument");
        nout = parseDirectiveCount(lineNo, ".o", toks[1]);
        haveO = true;
      } else if (head == ".p") {
        // informational; ignored
      } else if (head == ".ilb") {
        pla.inputNames.assign(toks.begin() + 1, toks.end());
      } else if (head == ".ob") {
        pla.outputNames.assign(toks.begin() + 1, toks.end());
      } else if (head == ".type") {
        if (toks.size() != 2) plaError(lineNo, ".type needs exactly one argument");
        if (toks[1] != "f" && toks[1] != "fd" && toks[1] != "fr" && toks[1] != "fdr")
          plaError(lineNo, "unsupported .type \"" + toks[1] + "\" (f, fd, fr, fdr)");
        pla.type = toks[1];
      } else if (head == ".e" || head == ".end") {
        haveEnd = true;
        break;
      } else {
        plaError(lineNo, "unsupported directive: " + head);
      }
      continue;
    }
    // Body line: input part and output part, possibly space separated.
    if (!haveI || !haveO) plaError(lineNo, "cube before .i/.o");
    std::string inPart, outPart;
    if (toks.size() >= 2) {
      inPart = toks[0];
      for (std::size_t i = 1; i < toks.size(); ++i) outPart += toks[i];
    } else {
      const std::string& all = toks[0];
      if (all.size() != nin + nout)
        plaError(lineNo, "cube width " + std::to_string(all.size()) + ", expected " +
                             std::to_string(nin + nout) + " (.i + .o): \"" + all + "\"");
      inPart = all.substr(0, nin);
      outPart = all.substr(nin);
    }
    // Validate widths here, with the line number in hand; character
    // validation lives in the classification switches below (their default
    // branches, which also carry the recorded line), because ON/DC/OFF
    // classification must wait for the (possibly later) .type anyway.
    if (inPart.size() != nin)
      plaError(lineNo, "input part width " + std::to_string(inPart.size()) + ", expected " +
                           std::to_string(nin) + ": \"" + inPart + "\"");
    if (outPart.size() != nout)
      plaError(lineNo, "output part width " + std::to_string(outPart.size()) +
                           ", expected " + std::to_string(nout) + ": \"" + outPart + "\"");
    bodyLines.push_back({std::move(inPart), std::move(outPart), lineNo});
  }

  // End-of-input checks: no invented line numbers — the missing directive
  // is a property of the whole document, not of a line.
  if (!haveI || !haveO) throw ParseError("PLA: missing .i or .o directive");
  if (!haveEnd) throw ParseError("PLA: missing .e/.end at end of input");
  pla.on = Cover(nin, nout);
  pla.dc = Cover(nin, nout);
  pla.off = Cover(nin, nout);

  const bool offMeaningful = pla.type == "fr" || pla.type == "fdr";
  const bool dcMeaningful = pla.type == "fd" || pla.type == "fdr" || pla.type == "f";

  for (const BodyLine& body : bodyLines) {
    Cube base(nin, nout);
    for (std::size_t i = 0; i < nin; ++i) {
      switch (body.in[i]) {
        case '0': base.setLit(i, Lit::Neg); break;
        case '1': base.setLit(i, Lit::Pos); break;
        case '-': case '2': case '~': base.setLit(i, Lit::DontCare); break;
        default: plaError(body.line, std::string("bad input character '") + body.in[i] + "'");
      }
    }
    Cube onCube = base, dcCube = base, offCube = base;
    bool anyOn = false, anyDc = false, anyOff = false;
    for (std::size_t o = 0; o < nout; ++o) {
      switch (body.out[o]) {
        case '1': case '4':
          onCube.setOut(o);
          anyOn = true;
          break;
        case '0':
          if (offMeaningful) {
            offCube.setOut(o);
            anyOff = true;
          }
          break;
        case '-': case '2':
          if (dcMeaningful) {
            dcCube.setOut(o);
            anyDc = true;
          }
          break;
        case '~':
          break;
        default:
          plaError(body.line, std::string("bad output character '") + body.out[o] + "'");
      }
    }
    if (anyOn) pla.on.add(std::move(onCube));
    if (anyDc) pla.dc.add(std::move(dcCube));
    if (anyOff) pla.off.add(std::move(offCube));
  }
  return pla;
}

PlaFile parsePlaString(const std::string& text) {
  std::istringstream is(text);
  return parsePla(is);
}

PlaFile readPlaFile(const std::string& path) { return parsePlaString(readPlaFileBytes(path)); }

std::string readPlaFileBytes(const std::string& path) {
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (ec || !std::filesystem::exists(status)) throw ParseError("cannot open PLA file: " + path);
  if (!std::filesystem::is_regular_file(status))
    throw ParseError("PLA file is not a regular file: " + path);
  const auto tooLarge = [&] {
    return ParseError("PLA file exceeds " + std::to_string(kMaxPlaFileBytes) +
                      " bytes: " + path);
  };
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw ParseError("cannot open PLA file: " + path);
  if (size > kMaxPlaFileBytes) throw tooLarge();
  std::ifstream file(path, std::ios::binary);
  if (!file) throw ParseError("cannot open PLA file: " + path);
  // The cap holds on the bytes actually read too: the file may grow after
  // the size check.
  std::string bytes;
  char chunk[1 << 14];
  while (file.read(chunk, sizeof chunk) || file.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(file.gcount()));
    if (bytes.size() > kMaxPlaFileBytes) throw tooLarge();
  }
  return bytes;
}

std::string writePla(const PlaFile& pla) {
  std::ostringstream os;
  os << ".i " << pla.on.nin() << "\n.o " << pla.on.nout() << "\n";
  if (!pla.inputNames.empty()) {
    os << ".ilb";
    for (const auto& n : pla.inputNames) os << ' ' << n;
    os << '\n';
  }
  if (!pla.outputNames.empty()) {
    os << ".ob";
    for (const auto& n : pla.outputNames) os << ' ' << n;
    os << '\n';
  }
  os << ".type fd\n";
  os << ".p " << (pla.on.size() + pla.dc.size()) << "\n";
  for (const Cube& c : pla.on.cubes()) os << c.toPlaString() << "\n";
  for (const Cube& c : pla.dc.cubes()) {
    os << c.inputString() << ' ';
    for (std::size_t o = 0; o < pla.dc.nout(); ++o) os << (c.out(o) ? '-' : '0');
    os << "\n";
  }
  os << ".e\n";
  return os.str();
}

std::string writePla(const Cover& on) {
  PlaFile pla;
  pla.on = on;
  pla.dc = Cover(on.nin(), on.nout());
  pla.off = Cover(on.nin(), on.nout());
  return writePla(pla);
}

}  // namespace mcx

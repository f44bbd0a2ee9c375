#include "circuit/spec.hpp"

#include <charconv>

#include "logic/pla.hpp"
#include "util/error.hpp"

namespace mcx {

namespace {

std::string basenameOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::string CircuitSpec::defaultLabel() const {
  switch (source) {
    case Source::Registry: return name;
    case Source::File: return basenameOf(name);
    case Source::InlinePla: return "inline-pla";
    case Source::InlineSop: return "inline-sop";
    case Source::Generator: return name;
    case Source::Cover: return "cover";
  }
  return "circuit";
}

std::string CircuitSpec::synthCanonical() const {
  std::string src;
  switch (source) {
    case Source::Registry: src = "reg:" + name; break;
    case Source::File: src = "file:" + name; break;
    case Source::InlinePla: src = "pla:" + text; break;
    case Source::InlineSop: src = "sop:" + text; break;
    case Source::Generator: src = "gen:" + name; break;
    // The cover's exact cube list is folded in by circuitContentKey; the
    // canonical string only records the source kind.
    case Source::Cover: src = "cover"; break;
  }
  return "circuit{src=" + src + ";synth=" + toString(synth) + "}";
}

std::string CircuitSpec::canonical() const {
  std::string out = synthCanonical();
  out.pop_back();  // reopen the closing '}'
  out += ";realize=" + toString(realize);
  if (realize == Realize::MultiLevel) {
    out += ";factoring=" + toString(factoring);
    out += ";fanin=" + std::to_string(maxFanin);
  }
  return out + "}";
}

std::string toString(CircuitSpec::Synth synth) {
  switch (synth) {
    case CircuitSpec::Synth::None: return "none";
    case CircuitSpec::Synth::Espresso: return "espresso";
    case CircuitSpec::Synth::Qm: return "qm";
    case CircuitSpec::Synth::Isop: return "isop";
  }
  return "?";
}

std::string toString(CircuitSpec::Realize realize) {
  return realize == CircuitSpec::Realize::TwoLevel ? "two-level" : "multilevel";
}

std::string toString(CircuitSpec::Factoring factoring) {
  switch (factoring) {
    case CircuitSpec::Factoring::Quick: return "quick";
    case CircuitSpec::Factoring::Flat: return "flat";
    case CircuitSpec::Factoring::Kernel: return "kernel";
    case CircuitSpec::Factoring::Best: return "best";
  }
  return "?";
}

CircuitSpec::Synth synthFromString(const std::string& text) {
  if (text == "none") return CircuitSpec::Synth::None;
  if (text == "espresso") return CircuitSpec::Synth::Espresso;
  if (text == "qm") return CircuitSpec::Synth::Qm;
  if (text == "isop") return CircuitSpec::Synth::Isop;
  throw ParseError("circuit spec: unknown synth \"" + text +
                   "\" (valid: none, espresso, qm, isop)");
}

CircuitSpec::Realize realizeFromString(const std::string& text) {
  if (text == "two-level") return CircuitSpec::Realize::TwoLevel;
  if (text == "multilevel" || text == "multi-level") return CircuitSpec::Realize::MultiLevel;
  throw ParseError("circuit spec: unknown realize \"" + text +
                   "\" (valid: two-level, multilevel)");
}

CircuitSpec::Factoring factoringFromString(const std::string& text) {
  if (text == "quick") return CircuitSpec::Factoring::Quick;
  if (text == "flat") return CircuitSpec::Factoring::Flat;
  if (text == "kernel") return CircuitSpec::Factoring::Kernel;
  if (text == "best") return CircuitSpec::Factoring::Best;
  throw ParseError("circuit spec: unknown factoring \"" + text +
                   "\" (valid: quick, flat, kernel, best)");
}

GeneratorId parseGeneratorId(const std::string& id) {
  const auto digits = id.find_first_of("0123456789");
  if (digits == 0 || digits == std::string::npos)
    throw ParseError("circuit spec: generator id must be <family><size>, e.g. "
                     "gen:weight5 (got \"" + id + "\")");
  GeneratorId gen;
  gen.family = id.substr(0, digits);
  if (gen.family != "weight" && gen.family != "sqrt" && gen.family != "parity" &&
      gen.family != "majority" && gen.family != "adder" && gen.family != "nn-")
    throw ParseError("circuit spec: unknown generator family \"" + gen.family +
                     "\" (valid: weight, sqrt, parity, majority, adder, nn-)");
  const std::string sizeText = id.substr(digits);
  if (gen.family == "nn-") {
    // Two-dimensional id: nn-<nin>x<nout>, both bounds validated eagerly so
    // a bad declaration fails at parse time, not mid-experiment.
    const auto x = sizeText.find('x');
    if (x == std::string::npos)
      throw ParseError("circuit spec: nn generator id must be nn-<nin>x<nout>, e.g. "
                       "gen:nn-8x4 (got \"" + id + "\")");
    const std::string ninText = sizeText.substr(0, x);
    const std::string noutText = sizeText.substr(x + 1);
    const auto [ninEnd, ninEc] =
        std::from_chars(ninText.data(), ninText.data() + ninText.size(), gen.size);
    if (ninEc != std::errc() || ninEnd != ninText.data() + ninText.size() || gen.size == 0)
      throw ParseError("circuit spec: bad nn input count \"" + ninText + "\"");
    const auto [noutEnd, noutEc] =
        std::from_chars(noutText.data(), noutText.data() + noutText.size(), gen.size2);
    if (noutEc != std::errc() || noutEnd != noutText.data() + noutText.size() ||
        gen.size2 == 0)
      throw ParseError("circuit spec: bad nn output count \"" + noutText + "\"");
    if (gen.size > 16)
      throw ParseError("circuit spec: generator \"" + id + "\" needs " +
                       std::to_string(gen.size) + " inputs, beyond the 16-input bound");
    if (gen.size2 > 16)
      throw ParseError("circuit spec: generator \"" + id + "\" declares " +
                       std::to_string(gen.size2) + " outputs, beyond the 16-output bound");
    return gen;
  }
  const auto [end, ec] =
      std::from_chars(sizeText.data(), sizeText.data() + sizeText.size(), gen.size);
  if (ec != std::errc() || end != sizeText.data() + sizeText.size() || gen.size == 0)
    throw ParseError("circuit spec: bad generator size \"" + sizeText + "\"");
  // Truth tables are explicit 2^n objects; bound the input count so the
  // declaration fails fast instead of mid-experiment.
  const std::size_t inputs = gen.family == "adder" ? 2 * gen.size : gen.size;
  if (inputs > 16)
    throw ParseError("circuit spec: generator \"" + id + "\" needs " +
                     std::to_string(inputs) + " inputs, beyond the 16-input bound");
  return gen;
}

CircuitSpec circuitSourceSpec(const std::string& source) {
  CircuitSpec spec;
  if (source.starts_with("file:")) {
    spec.source = CircuitSpec::Source::File;
    spec.name = source.substr(5);
    if (spec.name.empty()) throw ParseError("circuit spec: empty file: path");
    // Fail at declaration time, not deep inside an experiment run.
    readPlaFileBytes(spec.name);
    return spec;
  }
  if (source.starts_with("pla:")) {
    spec.source = CircuitSpec::Source::InlinePla;
    spec.text = source.substr(4);
    if (spec.text.empty()) throw ParseError("circuit spec: empty pla: text");
    return spec;
  }
  if (source.starts_with("sop:")) {
    spec.source = CircuitSpec::Source::InlineSop;
    spec.text = source.substr(4);
    if (spec.text.empty()) throw ParseError("circuit spec: empty sop: text");
    return spec;
  }
  if (source.starts_with("gen:")) {
    spec.source = CircuitSpec::Source::Generator;
    spec.name = source.substr(4);
    parseGeneratorId(spec.name);  // full validation at declaration time
    return spec;
  }
  spec.source = CircuitSpec::Source::Registry;
  spec.name = source;
  return spec;
}

}  // namespace mcx

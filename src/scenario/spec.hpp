// Minimal JSON parsing for declarative scenario specs.
//
// The scenario registry and the `mcx_bench scenarios` sweep accept small JSON
// documents ({"model": "clustered", "density": 8e-4, ...}); this is the
// read-side companion of util/json_writer.hpp. Deliberately tiny: objects,
// arrays, strings (with the writer's escape set), numbers, booleans, and
// null — no streaming, no comments, no DOM mutation.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mcx {

struct SpecValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<SpecValue> array;
  /// Object members in document order (specs are small; no hashing needed).
  std::vector<std::pair<std::string, SpecValue>> members;

  bool isObject() const { return kind == Kind::Object; }
  bool isArray() const { return kind == Kind::Array; }

  /// Member lookup (objects only); nullptr when absent.
  const SpecValue* find(const std::string& key) const;

  /// Typed member accessors with fallbacks; throw ParseError when the member
  /// exists but has the wrong type (a silently ignored typo'd spec would
  /// run the wrong scenario).
  double numberOr(const std::string& key, double fallback) const;
  std::string stringOr(const std::string& key, const std::string& fallback) const;
  bool boolOr(const std::string& key, bool fallback) const;
};

/// Parse a complete JSON document; throws mcx::ParseError on malformed
/// input or trailing garbage.
SpecValue parseSpec(const std::string& text);

// The name-or-spec resolution the mapper, scenario and circuit registries
// (and the serve request parser) share.

/// True when @p text is an inline JSON spec: its first character after
/// JSON whitespace (space, tab, LF, CR) is '{'.
bool isInlineSpec(const std::string& text);

/// Reject object members not in @p allowed with ParseError
/// "<prefix>unknown member \"key\"": a typo'd option would otherwise be
/// silently dropped and the default would run under the wrong label.
void requireOnlyKeys(const SpecValue& spec, const std::string& prefix,
                     std::initializer_list<const char*> allowed);

/// The entry named @p name of a preset list (any type with a `name`), or
/// nullptr.
template <typename Preset>
const Preset* findPreset(const std::vector<Preset>& presets, const std::string& name) {
  for (const Preset& preset : presets)
    if (preset.name == name) return &preset;
  return nullptr;
}

/// The entry named @p name; otherwise throws ParseError
/// "unknown <kind> \"name\" (known presets: a, b, ...; <otherwise>)".
template <typename Preset>
const Preset& requirePreset(const std::vector<Preset>& presets, const std::string& name,
                            const std::string& kind,
                            const std::string& otherwise = "or pass a JSON spec") {
  if (const Preset* found = findPreset(presets, name)) return *found;
  std::string known;
  for (const Preset& preset : presets) known += (known.empty() ? "" : ", ") + preset.name;
  throw ParseError("unknown " + kind + " \"" + name + "\" (known presets: " + known + "; " +
                   otherwise + ")");
}

}  // namespace mcx

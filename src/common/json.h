// Minimal JSON: a DOM value type, a recursive-descent parser, and a
// serializer.  Used to export experiment results and scenarios and to
// record/replay measurement traces (net/trace_io.h) without external
// dependencies.
//
// Supported: null, bool, finite double, string (with \uXXXX escapes for
// the BMP), array, object.  Numbers serialise with enough digits to
// round-trip doubles.  Parsing rejects trailing garbage, NaN/Inf and
// inputs nested deeper than a fixed limit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace nomloc::common {

class Json;
using JsonArray = std::vector<Json>;
/// std::map keeps key order deterministic — exports are diffable.
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  /// Constructs null.
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}          // NOLINT
  Json(bool b) : value_(b) {}                        // NOLINT
  Json(double d) : value_(d) {}                      // NOLINT
  Json(int i) : value_(double(i)) {}                 // NOLINT
  Json(std::size_t u) : value_(double(u)) {}         // NOLINT
  Json(const char* s) : value_(std::string(s)) {}    // NOLINT
  Json(std::string s) : value_(std::move(s)) {}      // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}        // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}       // NOLINT
  Json(const Json&) = default;
  Json& operator=(const Json&) = default;
  // Moves transfer the held alternative directly, not through <variant>'s
  // own move operations: in those GCC 12 reports -Wmaybe-uninitialized
  // false positives wherever a Json is moved into a container.
  Json(Json&& other) noexcept : value_(MoveOut(other.value_)) {}
  Json& operator=(Json&& other) noexcept {
    std::visit([this](auto& v) { value_ = std::move(v); }, other.value_);
    return *this;
  }

  bool is_null() const noexcept { return Holds<std::nullptr_t>(); }
  bool is_bool() const noexcept { return Holds<bool>(); }
  bool is_number() const noexcept { return Holds<double>(); }
  bool is_string() const noexcept { return Holds<std::string>(); }
  bool is_array() const noexcept { return Holds<JsonArray>(); }
  bool is_object() const noexcept { return Holds<JsonObject>(); }

  /// Typed accessors; contract violation when the type does not match.
  bool AsBool() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  JsonArray& AsArray();
  const JsonObject& AsObject() const;
  JsonObject& AsObject();

  /// Object member lookup; kNotFound when missing or not an object.
  common::Result<Json> Get(std::string_view key) const;
  /// Convenience typed lookups with error propagation.
  common::Result<double> GetDouble(std::string_view key) const;
  common::Result<std::string> GetString(std::string_view key) const;
  common::Result<bool> GetBool(std::string_view key) const;

  /// Compact serialization (no whitespace).
  std::string Dump() const;
  /// Pretty serialization with 2-space indentation.
  std::string DumpPretty() const;

  /// Parses a complete JSON document (rejects trailing garbage).
  static common::Result<Json> Parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  using Value = std::variant<std::nullptr_t, bool, double, std::string,
                             JsonArray, JsonObject>;

  template <typename T>
  bool Holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }
  void DumpTo(std::string& out, int indent, int depth) const;
  /// The held alternative, moved out of `v` (indices follow Value).
  static Value MoveOut(Value& v) noexcept {
    switch (v.index()) {
      case 1: return std::get<1>(v);
      case 2: return std::get<2>(v);
      case 3: return std::move(std::get<3>(v));
      case 4: return std::move(std::get<4>(v));
      case 5: return std::move(std::get<5>(v));
      default: return nullptr;
    }
  }

  Value value_;
};

}  // namespace nomloc::common

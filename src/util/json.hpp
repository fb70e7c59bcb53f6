#ifndef VS2_UTIL_JSON_HPP_
#define VS2_UTIL_JSON_HPP_

/// \file json.hpp
/// The one JSON reader of the codebase: an RFC 8259 parser that writes a
/// flat tape (after simdjson's design — Langdale & Lemire, VLDB J. 2019 —
/// used as an idea only) instead of a tree of heap nodes. Every value is
/// one 16-byte tape entry; a container's entry records its child count and
/// the index one past its last descendant, so skipping a subtree is one
/// load. Strings without escapes are views into the input; escaped strings
/// are decoded into one side buffer. A reused `JsonTape` therefore parses
/// with no allocation per node once its buffers have grown.
///
/// Hardening (DESIGN.md §12.3) lives here, so every reader inherits it:
///  * nesting deeper than `kMaxJsonDepth` is rejected, which also bounds
///    the recursion of the descent (`[[[[...` would otherwise overflow the
///    stack — found by fuzz_doc_json);
///  * strings must be well-formed UTF-8 — no overlongs, no surrogates,
///    nothing past U+10FFFF — and may not hold raw control characters;
///    `\u` escapes must pair surrogates;
///  * duplicate keys in one object are rejected;
///  * numbers follow the RFC grammar exactly (no `+`, no leading zeros, no
///    bare `.5` or `5.`); they are read with `std::from_chars`, values
///    that underflow read as (signed) zero, and overflow is rejected.
///
/// Users: `doc::FromJson` (documents), the serving daemon and the fleet
/// router (envelope keys of every request line), the fleet snapshot
/// scrapers and `vs2_top` (admin responses).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace vs2::util {

/// Nesting cap: a value may sit inside at most this many containers.
/// Document JSON is three levels deep; anything near the cap is hostile.
inline constexpr int kMaxJsonDepth = 64;

enum class JsonType : uint8_t {
  kNull,
  kFalse,
  kTrue,
  kNumber,
  kString,
  kArray,
  kObject,
};

class JsonTape;

/// \brief Read-only view of one value on a `JsonTape`; cheap to copy.
///
/// A default-constructed view — and the result of a failed lookup — is
/// *absent*: `present()` is false, every type test is false and the
/// `...Or` accessors return their fallback, so scrapers can chain lookups
/// without checking each step. Views are valid until the tape parses again
/// (and, for strings, while the parsed text lives).
class JsonValue {
 public:
  JsonValue() = default;

  bool present() const { return tape_ != nullptr; }
  JsonType type() const;
  bool is_number() const { return present() && type() == JsonType::kNumber; }
  bool is_string() const { return present() && type() == JsonType::kString; }
  bool is_bool() const {
    return present() &&
           (type() == JsonType::kTrue || type() == JsonType::kFalse);
  }
  bool is_array() const { return present() && type() == JsonType::kArray; }
  bool is_object() const { return present() && type() == JsonType::kObject; }

  /// Typed reads; each requires the matching type test to hold.
  double number() const;
  bool boolean() const { return type() == JsonType::kTrue; }
  std::string_view string() const;
  /// Items of an array or members of an object.
  size_t size() const;

  /// The number, or `fallback` when absent or not a number.
  double NumberOr(double fallback) const {
    return is_number() ? number() : fallback;
  }
  /// The string, or `fallback` when absent or not a string.
  std::string_view StringOr(std::string_view fallback) const {
    return is_string() ? string() : fallback;
  }

  /// The member named `key` of an object; absent when this is not an
  /// object or has no such member. A linear scan over the members.
  JsonValue operator[](std::string_view key) const;

  /// Walks an array's items or an object's members in order.
  class Iterator {
   public:
    bool operator!=(const Iterator& other) const {
      return index_ != other.index_;
    }
    Iterator& operator++();
    /// The item (arrays) or the member's value (objects).
    JsonValue operator*() const;
    /// The member's key; objects only.
    std::string_view key() const;

   private:
    friend class JsonValue;
    Iterator(const JsonTape* tape, uint32_t index, bool object)
        : tape_(tape), index_(index), object_(object) {}
    const JsonTape* tape_;
    uint32_t index_;  ///< the item, or the member's key
    bool object_;
  };
  /// Empty ranges for anything but arrays and objects.
  Iterator begin() const;
  Iterator end() const;

 private:
  friend class JsonTape;
  JsonValue(const JsonTape* tape, uint32_t index)
      : tape_(tape), index_(index) {}

  const JsonTape* tape_ = nullptr;
  uint32_t index_ = 0;
};

/// \brief A parsed JSON text as a flat tape; reuse one per thread or
/// connection so steady-state parses allocate nothing.
class JsonTape {
 public:
  JsonTape() = default;
  JsonTape(const JsonTape&) = delete;
  JsonTape& operator=(const JsonTape&) = delete;

  /// Parses `text` onto the tape, replacing what it held. Rejects anything
  /// RFC 8259 or the hardening rules above forbid with `kInvalidArgument`.
  /// The tape refers into `text`, which must outlive the views.
  Status Parse(std::string_view text);

  /// The parsed value; absent before a successful `Parse`.
  JsonValue root() const {
    return nodes_.empty() ? JsonValue() : JsonValue(this, 0);
  }

  /// Releases storage beyond what a typical request needs, so one huge
  /// line cannot pin its tape for the life of a connection or a thread.
  void Shrink();

 private:
  friend class JsonValue;

  struct Node {
    JsonType type;
    bool escaped;     ///< string bytes live in `decoded_`, not the text
    uint32_t length;  ///< string bytes, or container items / members
    union {
      double number;
      uint32_t offset;  ///< string: byte offset into text or `decoded_`
      uint32_t end;     ///< container: index one past its last descendant
    };
  };

  /// Index of the value after the one at `index` (skips subtrees).
  uint32_t Next(uint32_t index) const {
    const Node& n = nodes_[index];
    return n.type == JsonType::kArray || n.type == JsonType::kObject
               ? n.end
               : index + 1;
  }
  std::string_view StringAt(uint32_t index) const {
    const Node& n = nodes_[index];
    const char* base = n.escaped ? decoded_.data() : text_.data();
    return std::string_view(base + n.offset, n.length);
  }

  // Recursive descent, bounded by `kMaxJsonDepth`. Each returns an error
  // message, or nullptr on success, and advances `p` past what it read.
  const char* ParseValue(const char*& p, const char* end, int depth);
  const char* ParseContainer(const char*& p, const char* end, int depth,
                             JsonType type);
  const char* ParseString(const char*& p, const char* end);
  const char* ParseNumber(const char*& p, const char* end);
  const char* CheckDuplicateKeys(uint32_t object);
  const char* DuplicateKey(std::string_view key);

  std::string_view text_;
  std::vector<Node> nodes_;
  std::string decoded_;
  std::vector<std::string_view> keys_;  ///< duplicate-key scratch
  std::string error_;                   ///< message naming a duplicate key
};

// Accessors are inline: document decoding calls them per field.

inline JsonType JsonValue::type() const { return tape_->nodes_[index_].type; }

inline double JsonValue::number() const {
  return tape_->nodes_[index_].number;
}

inline std::string_view JsonValue::string() const {
  return tape_->StringAt(index_);
}

inline size_t JsonValue::size() const {
  return is_array() || is_object() ? tape_->nodes_[index_].length : 0;
}

inline JsonValue::Iterator& JsonValue::Iterator::operator++() {
  index_ = tape_->Next(object_ ? index_ + 1 : index_);
  return *this;
}

inline JsonValue JsonValue::Iterator::operator*() const {
  return JsonValue(tape_, object_ ? index_ + 1 : index_);
}

inline std::string_view JsonValue::Iterator::key() const {
  return tape_->StringAt(index_);
}

inline JsonValue::Iterator JsonValue::begin() const {
  if (!is_array() && !is_object()) return Iterator(tape_, 0, false);
  return Iterator(tape_, index_ + 1, is_object());
}

inline JsonValue::Iterator JsonValue::end() const {
  if (!is_array() && !is_object()) return Iterator(tape_, 0, false);
  return Iterator(tape_, tape_->nodes_[index_].end, is_object());
}

}  // namespace vs2::util

#endif  // VS2_UTIL_JSON_HPP_

#ifndef VS2_UTIL_STRINGS_HPP_
#define VS2_UTIL_STRINGS_HPP_

/// \file strings.hpp
/// String utilities shared by the NLP substrate, dataset generators and
/// table printers. ASCII-oriented; the synthetic corpora are ASCII.

#include <string>
#include <string_view>
#include <vector>

namespace vs2::util {

/// Splits on any character of `delims`, dropping empty pieces.
std::vector<std::string> Split(std::string_view text, std::string_view delims);

/// Splits on single-space boundaries, dropping empties (whitespace class).
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// Removes leading and trailing whitespace.
std::string Trim(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

/// ASCII uppercase copy.
std::string ToUpper(std::string_view text);

/// Uppercases the first character.
std::string Capitalize(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// True if every character is an ASCII digit (and text non-empty).
bool IsAllDigits(std::string_view text);

/// Parses an all-digit `text` into `*value`. False when `text` is empty,
/// holds a non-digit, or overflows `int`: a ten-digit phone number is a
/// non-number here, not an exception.
bool ParseDigits(std::string_view text, int* value);

/// True if the first character is an ASCII uppercase letter.
bool IsCapitalized(std::string_view text);

/// True if the token contains at least one ASCII letter.
bool HasAlpha(std::string_view text);

/// True if the token contains at least one ASCII digit.
bool HasDigit(std::string_view text);

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
size_t Levenshtein(std::string_view a, std::string_view b);

/// Exactly `Levenshtein(a, b) <= 1`, in one linear pass with no allocation.
bool WithinOneEdit(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Strips characters in `strip` from both ends.
std::string StripChars(std::string_view text, std::string_view strip);

/// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Thread-safe `strerror`: renders `errnum` via `strerror_r`. The plain
/// libc `strerror` writes into shared static storage and is flagged by
/// clang-tidy's `concurrency-mt-unsafe` on the multi-threaded serving
/// paths that report socket errors.
std::string ErrnoText(int errnum);

}  // namespace vs2::util

#endif  // VS2_UTIL_STRINGS_HPP_

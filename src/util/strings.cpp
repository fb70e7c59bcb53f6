#include "util/strings.hpp"

#include <string.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace vs2::util {

std::vector<std::string> Split(std::string_view text,
                               std::string_view delims) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (delims.find(c) != std::string_view::npos) {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  return Split(text, " \t\n\r\f\v");
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return std::string(text.substr(begin, end - begin));
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string Capitalize(std::string_view text) {
  std::string out(text);
  if (!out.empty()) {
    out[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[0])));
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool IsAllDigits(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool ParseDigits(std::string_view text, int* value) {
  if (!IsAllDigits(text)) return false;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

bool IsCapitalized(std::string_view text) {
  return !text.empty() && std::isupper(static_cast<unsigned char>(text[0]));
}

bool HasAlpha(std::string_view text) {
  for (char c : text) {
    if (std::isalpha(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

bool HasDigit(std::string_view text) {
  for (char c : text) {
    if (std::isdigit(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub_cost});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

bool WithinOneEdit(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > 1) return false;
  size_t i = 0;
  while (i < a.size() && a[i] == b[i]) ++i;
  if (i == a.size()) return true;  // equal, or b is a plus one trailing char
  // Past the first mismatch the rest must line up after substituting a[i]
  // (equal lengths) or after deleting b[i] (b one longer).
  size_t skip_a = a.size() == b.size() ? i + 1 : i;
  return a.substr(skip_a) == b.substr(i + 1);
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string StripChars(std::string_view text, std::string_view strip) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && strip.find(text[begin]) != std::string_view::npos)
    ++begin;
  while (end > begin && strip.find(text[end - 1]) != std::string_view::npos)
    --end;
  return std::string(text.substr(begin, end - begin));
}

std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t hit = text.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(text.substr(pos));
      break;
    }
    out.append(text.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

std::string ErrnoText(int errnum) {
  char buf[128];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // GNU strerror_r: returns the message (possibly a static known-good
  // string, possibly buf) and never fails.
  return std::string(strerror_r(errnum, buf, sizeof(buf)));
#else
  // XSI strerror_r: fills buf, non-zero on failure.
  if (strerror_r(errnum, buf, sizeof(buf)) != 0) {
    std::snprintf(buf, sizeof(buf), "errno %d", errnum);
  }
  return std::string(buf);
#endif
}

}  // namespace vs2::util

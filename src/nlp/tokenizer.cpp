#include "nlp/tokenizer.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace vs2::nlp {
namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Punctuation that should be detached from word boundaries. '@', '.', '-'
// inside alphanumeric context are kept (emails, phones, decimals).
bool IsDetachable(char c) {
  switch (c) {
    case ',':
    case ';':
    case ':':
    case '!':
    case '?':
    case '"':
    case '(':
    case ')':
    case '[':
    case ']':
    case '{':
    case '}':
      return true;
    default:
      return false;
  }
}

bool KeepIntact(const std::string& piece) {
  // Emails, phones and URLs keep their punctuation.
  if (piece.find('@') != std::string::npos) return true;
  bool digits = false;
  for (char c : piece) digits = digits || IsDigit(c);
  if (digits) {
    // numeric-with-separators (phones, money, times, sizes, dates)
    return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& raw : util::SplitWhitespace(text)) {
    if (raw.empty()) continue;
    if (KeepIntact(raw)) {
      // Strip only sentence-final commas/periods that trail a numeric token
      // like "1,250," while keeping interior separators.
      std::string piece = raw;
      std::vector<std::string> trailing_punct;
      // Decimals never end in '.', so a trailing dot is sentence
      // punctuation even after digits ("$1,250.").
      while (!piece.empty() &&
             (piece.back() == ',' || piece.back() == ';' ||
              piece.back() == '.')) {
        trailing_punct.push_back(std::string(1, piece.back()));
        piece.pop_back();
      }
      if (!piece.empty()) out.push_back(std::move(piece));
      for (auto it = trailing_punct.rbegin(); it != trailing_punct.rend();
           ++it) {
        out.push_back(std::move(*it));
      }
      continue;
    }

    // Peel leading punctuation.
    size_t begin = 0;
    size_t end = raw.size();
    std::vector<std::string> leading, trailing;
    while (begin < end && (IsDetachable(raw[begin]) || raw[begin] == '\'' ||
                           raw[begin] == '.')) {
      leading.push_back(std::string(1, raw[begin]));
      ++begin;
    }
    while (end > begin &&
           (IsDetachable(raw[end - 1]) || raw[end - 1] == '.' ||
            raw[end - 1] == '\'')) {
      trailing.push_back(std::string(1, raw[end - 1]));
      --end;
    }
    for (auto& t : leading) out.push_back(std::move(t));
    if (end > begin) {
      std::string core = raw.substr(begin, end - begin);
      // Split embedded slashes between words ("food/drinks").
      if (core.find('/') != std::string::npos && !KeepIntact(core)) {
        bool first = true;
        for (const std::string& part : util::Split(core, "/")) {
          if (!first) out.push_back("/");
          out.push_back(part);
          first = false;
        }
      } else {
        out.push_back(std::move(core));
      }
    }
    for (auto it = trailing.rbegin(); it != trailing.rend(); ++it) {
      out.push_back(std::move(*it));
    }
  }
  return out;
}

bool LooksNumeric(const std::string& token) {
  if (token.empty()) return false;
  bool digit = false;
  for (char c : token) {
    if (IsDigit(c)) {
      digit = true;
    } else if (c != ',' && c != '.' && c != '$' && c != '%' && c != '-' &&
               c != '+') {
      // ordinal suffixes 1st/2nd/3rd/4th and unit suffixes like 1.5M
      std::string lower = util::ToLower(token);
      if (util::EndsWith(lower, "st") || util::EndsWith(lower, "nd") ||
          util::EndsWith(lower, "rd") || util::EndsWith(lower, "th") ||
          util::EndsWith(lower, "k") || util::EndsWith(lower, "m")) {
        continue;
      }
      return false;
    }
  }
  return digit;
}

bool LooksLikeClockTime(const std::string& token) {
  std::string t = util::ToLower(token);
  // strip trailing am/pm
  if (util::EndsWith(t, "am") || util::EndsWith(t, "pm")) {
    t = t.substr(0, t.size() - 2);
    if (t.empty()) return false;
    if (util::EndsWith(t, ".")) t.pop_back();
  }
  if (t.empty()) return false;
  size_t colon = t.find(':');
  int h = 0;
  if (colon == std::string::npos) {
    // bare "7pm" style only with suffix
    return util::ParseDigits(t, &h) && h >= 1 && h <= 12;
  }
  std::string_view view(t);
  std::string_view mm = view.substr(colon + 1);
  int m = 0;
  return mm.size() == 2 && util::ParseDigits(view.substr(0, colon), &h) &&
         util::ParseDigits(mm, &m) && h <= 23 && m <= 59;
}

bool LooksLikeZipCode(const std::string& token) {
  if (token.size() == 5) return util::IsAllDigits(token);
  if (token.size() == 10 && token[5] == '-') {
    return util::IsAllDigits(token.substr(0, 5)) &&
           util::IsAllDigits(token.substr(6));
  }
  return false;
}

bool LooksLikeMoney(const std::string& token) {
  if (token.empty()) return false;
  std::string t = token;
  if (t[0] == '$') {
    t = t.substr(1);
    if (t.empty()) return false;
    for (char c : t) {
      if (!IsDigit(c) && c != ',' && c != '.' && c != 'K' && c != 'M' &&
          c != 'k' && c != 'm') {
        return false;
      }
    }
    return true;
  }
  return false;
}

}  // namespace vs2::nlp

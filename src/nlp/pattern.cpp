#include "nlp/pattern.hpp"

#include <algorithm>
#include <cctype>

#include "util/strings.hpp"

namespace vs2::nlp {
namespace {

bool ChunkHasPos(const AnalyzedText& text, const Chunk& c, Pos pos) {
  for (size_t i = c.begin; i < c.end; ++i) {
    if (text.tokens[i].pos == pos) return true;
  }
  return false;
}

NerClass NerClassFromName(const std::string& name) {
  if (name == "PERSON") return NerClass::kPerson;
  if (name == "ORG") return NerClass::kOrganization;
  if (name == "LOC") return NerClass::kLocation;
  if (name == "TIME") return NerClass::kTime;
  if (name == "MONEY") return NerClass::kMoney;
  return NerClass::kNone;
}

void AddNonOverlapping(std::vector<PatternMatch>* matches, PatternMatch m) {
  for (const PatternMatch& existing : *matches) {
    bool overlap = m.begin < existing.end && existing.begin < m.end;
    if (overlap) return;  // first (longer-first ordering handled by caller)
  }
  matches->push_back(m);
}

}  // namespace

const char* PatternKindName(PatternKind kind) {
  switch (kind) {
    case PatternKind::kVerbPhrase: return "VP";
    case PatternKind::kNounPhraseModified: return "NP[CD/JJ]";
    case PatternKind::kSvo: return "SVO";
    case PatternKind::kNpWithGeocode: return "NP[geocode]";
    case PatternKind::kNpWithTimex: return "NP[TIMEX3]";
    case PatternKind::kVpWithVerbSense: return "VP[sense]";
    case PatternKind::kNpWithNer: return "NP[NER]";
    case PatternKind::kNerNgram: return "NER-ngram";
    case PatternKind::kPhoneRegex: return "regex:phone";
    case PatternKind::kEmailRegex: return "regex:email";
    case PatternKind::kNounWithHypernym: return "NN[hypernym]";
    case PatternKind::kFieldDescriptor: return "field-descriptor";
    case PatternKind::kProperNounPhrase: return "NP[NNP+]";
  }
  return "?";
}

std::string SyntacticPattern::ToString() const {
  std::string out = PatternKindName(kind);
  if (!args.empty()) {
    out += "(";
    out += util::Join(args, "|");
    out += ")";
  }
  return out;
}

bool MatchesPhoneShape(const std::string& token) {
  // Accept shapes like (614)555-0134, 614-555-0134, 614.555.0134,
  // 6145550134, +1-614-555-0134.
  int digits = 0;
  int separators = 0;
  bool bad = false;
  std::string t = token;
  if (util::StartsWith(t, "+1")) t = t.substr(2);
  for (char c : t) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      ++digits;
    } else if (c == '-' || c == '.' || c == '(' || c == ')' || c == ' ') {
      ++separators;
    } else {
      bad = true;
      break;
    }
  }
  if (bad) return false;
  if (digits != 10 && digits != 7 && digits != 11) return false;
  // Bare 7- or 10-digit runs are only phones when separated; an unbroken
  // 10-digit run is accepted (common flyer shape).
  if (separators == 0 && digits == 7) return false;
  return true;
}

bool MatchesEmailShape(const std::string& token) {
  size_t at = token.find('@');
  if (at == std::string::npos || at == 0) return false;
  if (token.find('@', at + 1) != std::string::npos) return false;
  std::string local = token.substr(0, at);
  std::string domain = token.substr(at + 1);
  if (domain.empty() || local.empty()) return false;
  for (char c : local) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-' && c != '+') {
      return false;
    }
  }
  size_t dot = domain.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 2 > domain.size() - 1) {
    if (dot == std::string::npos || dot + 1 >= domain.size()) return false;
  }
  for (char c : domain) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '-') {
      return false;
    }
  }
  std::string tld = domain.substr(dot + 1);
  return tld.size() >= 2 && !util::HasDigit(tld);
}

std::vector<PatternMatch> MatchPattern(const AnalyzedText& text,
                                       const SyntacticPattern& pattern) {
  std::vector<PatternMatch> out;
  const auto& tokens = text.tokens;

  auto np_chunks = [&]() {
    std::vector<Chunk> nps;
    for (const Chunk& c : text.chunks) {
      if (c.kind == ChunkKind::kNounPhrase) nps.push_back(c);
    }
    // longest first, so AddNonOverlapping keeps maximal spans
    std::sort(nps.begin(), nps.end(), [](const Chunk& a, const Chunk& b) {
      return a.size() > b.size();
    });
    return nps;
  };

  switch (pattern.kind) {
    case PatternKind::kVerbPhrase: {
      for (const Chunk& c : text.chunks) {
        if (c.kind == ChunkKind::kVerbPhrase) {
          AddNonOverlapping(&out, {c.begin, c.end, 0.6});
        }
      }
      break;
    }
    case PatternKind::kNounPhraseModified: {
      for (const Chunk& c : np_chunks()) {
        if (ChunkHasPos(text, c, Pos::kCardinal) ||
            ChunkHasPos(text, c, Pos::kAdjective)) {
          AddNonOverlapping(&out, {c.begin, c.end, 0.7});
        }
      }
      break;
    }
    case PatternKind::kSvo: {
      for (const Chunk& c : text.chunks) {
        if (c.kind == ChunkKind::kSvo) {
          AddNonOverlapping(&out, {c.begin, c.end, 0.8});
        }
      }
      break;
    }
    case PatternKind::kNpWithGeocode: {
      // Use maximal geocode runs rather than NP chunks: addresses straddle
      // NP boundaries ("1420 Oak Street , Columbus , OH 43210").
      size_t i = 0;
      while (i < tokens.size()) {
        if (tokens[i].has_geocode) {
          size_t j = i;
          while (j < tokens.size() && tokens[j].has_geocode) ++j;
          if (j - i >= 2) AddNonOverlapping(&out, {i, j, 0.9});
          i = j;
        } else {
          ++i;
        }
      }
      break;
    }
    case PatternKind::kNpWithTimex: {
      size_t i = 0;
      while (i < tokens.size()) {
        if (tokens[i].is_timex) {
          size_t j = i;
          bool strong = false;  // month/weekday/clock evidence
          for (size_t k = i; k < tokens.size() && tokens[k].is_timex; ++k) {
            const std::string& lo = tokens[k].lower;
            bool clock = tokens[k].text.find(':') != std::string::npos ||
                         tokens[k].text.find('/') != std::string::npos ||
                         util::EndsWith(lo, "am") || util::EndsWith(lo, "pm") ||
                         lo == "am" || lo == "pm" || lo == "noon" ||
                         lo == "midnight";
            bool wordy = tokens[k].pos != Pos::kCardinal &&
                         tokens[k].pos != Pos::kPunct && !clock;
            strong = strong || clock || wordy;
            j = k + 1;
          }
          // A lone year ("Festival 2024") is no time expression — real
          // ones carry a clock, a date shape, a month or a weekday.
          if (strong) AddNonOverlapping(&out, {i, j, 0.9});
          i = j;
        } else {
          ++i;
        }
      }
      break;
    }
    case PatternKind::kVpWithVerbSense: {
      for (const Chunk& c : text.chunks) {
        if (c.kind != ChunkKind::kVerbPhrase) continue;
        bool hit = false;
        for (size_t i = c.begin; i < c.end && !hit; ++i) {
          for (const std::string& sense : pattern.args) {
            if (tokens[i].HasVerbSense(sense)) {
              hit = true;
              break;
            }
          }
        }
        if (!hit) continue;
        // The interesting span is the VP plus the following NP (the agent
        // in "hosted by the ACM Student Chapter").
        size_t end = c.end;
        // skip glue (by/with/:)
        size_t k = end;
        while (k < tokens.size() &&
               (tokens[k].pos == Pos::kPreposition ||
                tokens[k].pos == Pos::kDeterminer || tokens[k].text == ":")) {
          ++k;
        }
        size_t np_end = k;
        while (np_end < tokens.size() &&
               (tokens[np_end].pos == Pos::kProperNoun ||
                tokens[np_end].pos == Pos::kNoun ||
                tokens[np_end].ner == NerClass::kPerson ||
                tokens[np_end].ner == NerClass::kOrganization)) {
          ++np_end;
        }
        if (np_end > k) end = np_end;
        AddNonOverlapping(&out, {c.begin, end, 0.95});
      }
      break;
    }
    case PatternKind::kNpWithNer: {
      std::vector<NerClass> classes;
      for (const std::string& a : pattern.args)
        classes.push_back(NerClassFromName(a));
      for (const Chunk& c : np_chunks()) {
        bool hit = false;
        for (size_t i = c.begin; i < c.end && !hit; ++i) {
          for (NerClass cls : classes) {
            if (tokens[i].ner == cls) {
              hit = true;
              break;
            }
          }
        }
        if (hit) AddNonOverlapping(&out, {c.begin, c.end, 0.85});
      }
      break;
    }
    case PatternKind::kNerNgram: {
      std::vector<NerClass> classes;
      for (const std::string& a : pattern.args)
        classes.push_back(NerClassFromName(a));
      auto in_classes = [&](size_t i) {
        for (NerClass cls : classes) {
          if (tokens[i].ner == cls) return true;
        }
        return false;
      };
      size_t i = 0;
      while (i < tokens.size()) {
        if (in_classes(i)) {
          size_t j = i;
          while (j < tokens.size() && in_classes(j)) ++j;
          // bigram/trigram windows within the run; prefer the full run when
          // it is 2–3 long, else slide trigrams.
          if (j - i >= 2 && j - i <= 3) {
            AddNonOverlapping(&out, {i, j, 0.9});
          } else if (j - i > 3) {
            for (size_t k = i; k + 3 <= j; k += 3) {
              AddNonOverlapping(&out, {k, k + 3, 0.75});
            }
          }
          i = j;
        } else {
          ++i;
        }
      }
      break;
    }
    case PatternKind::kPhoneRegex: {
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (MatchesPhoneShape(tokens[i].text)) {
          AddNonOverlapping(&out, {i, i + 1, 1.0});
          continue;
        }
        // Split shapes: "(614)" "555-0134" or "614" "555" "0134".
        if (i + 1 < tokens.size()) {
          std::string two = tokens[i].text + tokens[i + 1].text;
          if (MatchesPhoneShape(two)) {
            AddNonOverlapping(&out, {i, i + 2, 0.95});
            continue;
          }
        }
        if (i + 2 < tokens.size()) {
          std::string three =
              tokens[i].text + tokens[i + 1].text + tokens[i + 2].text;
          if (MatchesPhoneShape(three)) {
            AddNonOverlapping(&out, {i, i + 3, 0.9});
          }
        }
      }
      break;
    }
    case PatternKind::kEmailRegex: {
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (MatchesEmailShape(tokens[i].text)) {
          AddNonOverlapping(&out, {i, i + 1, 1.0});
        }
      }
      break;
    }
    case PatternKind::kNounWithHypernym: {
      // NPs whose head nouns carry one of the senses; extend to the whole
      // NP chunk ("2,465 acres" → CD + measure-noun). The "+CD" argument
      // additionally requires a numeric modifier in the NP — the learned
      // shape of size attributes, which keeps amenity prose ("hardwood
      // floors") from matching.
      bool require_cd = false;
      for (const std::string& a : pattern.args) {
        require_cd = require_cd || a == "+CD";
      }
      for (const Chunk& c : np_chunks()) {
        bool hit = false;
        for (size_t i = c.begin; i < c.end && !hit; ++i) {
          for (const std::string& sense : pattern.args) {
            if (sense != "+CD" && tokens[i].HasHypernym(sense)) {
              hit = true;
              break;
            }
          }
        }
        if (hit && require_cd && !ChunkHasPos(text, c, Pos::kCardinal)) {
          hit = false;
        }
        if (hit) AddNonOverlapping(&out, {c.begin, c.end, 0.85});
      }
      break;
    }
    case PatternKind::kProperNounPhrase: {
      for (const Chunk& c : np_chunks()) {
        if (c.size() < 2) continue;
        size_t nnp = 0, content = 0;
        for (size_t i = c.begin; i < c.end; ++i) {
          if (tokens[i].pos == Pos::kProperNoun) ++nnp;
          if (tokens[i].pos == Pos::kProperNoun ||
              tokens[i].pos == Pos::kNoun ||
              tokens[i].pos == Pos::kAdjective ||
              tokens[i].pos == Pos::kCardinal) {
            ++content;
          }
        }
        if (nnp >= 1 && content * 2 >= c.size() * 1 &&
            nnp * 2 >= c.size()) {
          AddNonOverlapping(&out, {c.begin, c.end, 0.75});
        }
      }
      break;
    }
    case PatternKind::kFieldDescriptor: {
      if (pattern.args.empty()) break;
      std::vector<std::string> want;
      for (const std::string& piece :
           util::SplitWhitespace(util::ToLower(pattern.args[0]))) {
        want.push_back(piece);
      }
      if (want.empty()) break;
      for (size_t i = 0; i + want.size() <= tokens.size(); ++i) {
        bool all = true;
        for (size_t k = 0; k < want.size(); ++k) {
          // OCR-tolerant descriptor match: one edit per token (two for
          // long tokens).
          const std::string& have = tokens[i + k].lower;
          size_t budget = want[k].size() >= 8 ? 2 : (want[k].size() >= 4 ? 1 : 0);
          if (util::Levenshtein(have, want[k]) > budget) {
            all = false;
            break;
          }
        }
        if (all) AddNonOverlapping(&out, {i, i + want.size(), 1.0});
      }
      break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PatternMatch& a, const PatternMatch& b) {
              return a.begin < b.begin;
            });
  return out;
}

std::vector<PatternMatch> MatchAny(
    const AnalyzedText& text, const std::vector<SyntacticPattern>& patterns) {
  std::vector<PatternMatch> all;
  for (const SyntacticPattern& p : patterns) {
    for (const PatternMatch& m : MatchPattern(text, p)) {
      bool replaced = false;
      bool duplicate = false;
      for (PatternMatch& existing : all) {
        if (existing.begin == m.begin && existing.end == m.end) {
          duplicate = true;
          if (m.score > existing.score) {
            existing.score = m.score;
            replaced = true;
          }
          break;
        }
      }
      (void)replaced;
      if (!duplicate) all.push_back(m);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const PatternMatch& a, const PatternMatch& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end < b.end;
            });
  return all;
}

PreparedDescriptor PrepareDescriptor(const SyntacticPattern& pattern) {
  PreparedDescriptor prep;
  if (pattern.kind != PatternKind::kFieldDescriptor || pattern.args.empty()) {
    return prep;
  }
  for (const std::string& piece :
       util::SplitWhitespace(util::ToLower(pattern.args[0]))) {
    prep.want.push_back(piece);
    // Same OCR tolerance as the generic matcher: one edit per token, two
    // for long tokens.
    prep.budgets.push_back(piece.size() >= 8 ? 2
                                             : (piece.size() >= 4 ? 1 : 0));
  }
  return prep;
}

bool WithinEditBudget(std::string_view a, std::string_view b, size_t budget) {
  size_t la = a.size(), lb = b.size();
  size_t diff = la > lb ? la - lb : lb - la;
  if (diff > budget) return false;  // length gap lower-bounds the distance
  if (budget == 0) return a == b;
  if (budget == 1) return util::WithinOneEdit(a, b);
  if (lb >= 64) return util::Levenshtein(a, b) <= budget;
  size_t prev[64], cur[64];
  for (size_t j = 0; j <= lb; ++j) prev[j] = j;
  for (size_t i = 1; i <= la; ++i) {
    cur[0] = i;
    size_t row_min = i;
    for (size_t j = 1; j <= lb; ++j) {
      size_t sub = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub});
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > budget) return false;  // every extension only grows
    for (size_t j = 0; j <= lb; ++j) prev[j] = cur[j];
  }
  return prev[lb] <= budget;
}

uint64_t TokenLengthMask(const AnalyzedText& text) {
  uint64_t mask = 0;
  for (const Token& tok : text.tokens) {
    mask |= uint64_t{1} << std::min<size_t>(tok.lower.size(), 63);
  }
  return mask;
}

bool DescriptorMayMatch(uint64_t length_mask, const PreparedDescriptor& prep) {
  if (prep.want.empty()) return false;
  size_t len = prep.want[0].size();
  size_t budget = prep.budgets[0];
  size_t lo = len > budget ? len - budget : 0;
  size_t hi = std::min<size_t>(len + budget, 63);
  uint64_t range = (hi >= 63 ? ~uint64_t{0} : (uint64_t{1} << (hi + 1)) - 1) &
                   ~((uint64_t{1} << lo) - 1);
  return (length_mask & range) != 0;
}

std::vector<PatternMatch> MatchPreparedDescriptor(
    const AnalyzedText& text, const PreparedDescriptor& prep) {
  std::vector<PatternMatch> out;
  if (prep.want.empty()) return out;
  const auto& tokens = text.tokens;
  size_t n = prep.want.size();
  for (size_t i = 0; i + n <= tokens.size(); ++i) {
    // Ascending fixed-length scan: the generic matcher's first-wins
    // overlap rule reduces to skipping starts inside the last match.
    if (!out.empty() && i < out.back().end) continue;
    bool all = true;
    for (size_t k = 0; k < n; ++k) {
      if (!WithinEditBudget(tokens[i + k].lower, prep.want[k],
                            prep.budgets[k])) {
        all = false;
        break;
      }
    }
    if (all) out.push_back({i, i + n, 1.0});
  }
  return out;
}

}  // namespace vs2::nlp

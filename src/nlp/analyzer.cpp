#include "nlp/analyzer.hpp"

#include <cctype>

#include "nlp/lexicon.hpp"
#include "nlp/stemmer.hpp"
#include "nlp/tokenizer.hpp"
#include "util/strings.hpp"

namespace vs2::nlp {
namespace {

bool IsPunct(const std::string& t) {
  if (t.empty()) return false;
  for (char c : t) {
    if (std::isalnum(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// True when the token's word is in any of the `Lexicon::Class` tables in
/// `classes`; reads the mask `Analyze` stored, no lexicon probe.
bool Has(const Token& tok, uint32_t classes) {
  return (tok.lexicon_classes & classes) != 0;
}

/// POS-tags tokens in place (lexicon + shape rules + context repairs).
void TagPos(std::vector<Token>* tokens) {
  const Lexicon& lex = Lexicon::Get();
  for (size_t i = 0; i < tokens->size(); ++i) {
    Token& tok = (*tokens)[i];
    const std::string& lo = tok.lower;
    if (IsPunct(tok.text)) {
      tok.pos = Pos::kPunct;
    } else if (LooksNumeric(tok.text) || LooksLikeClockTime(tok.text) ||
               LooksLikeMoney(tok.text)) {
      tok.pos = Pos::kCardinal;
    } else if (Has(tok, Lexicon::kDeterminer)) {
      tok.pos = Pos::kDeterminer;
    } else if (Has(tok, Lexicon::kModal)) {
      tok.pos = Pos::kModal;
    } else if (Has(tok, Lexicon::kPreposition)) {
      tok.pos = Pos::kPreposition;
    } else if (Has(tok, Lexicon::kConjunction)) {
      tok.pos = Pos::kConjunction;
    } else if (Has(tok, Lexicon::kPronoun)) {
      tok.pos = Pos::kPronoun;
    } else if (Has(tok, Lexicon::kVerb) && !Has(tok, Lexicon::kCommonNoun)) {
      tok.pos = Pos::kVerb;
    } else if (lo.size() > 3 && lo.back() == 's' &&
               !Has(tok, Lexicon::kCommonNoun) &&
               lex.IsVerb(lo.substr(0, lo.size() - 1))) {
      tok.pos = Pos::kVerb;  // third-person singular of a known verb
    } else if (Has(tok, Lexicon::kAdjective)) {
      tok.pos = Pos::kAdjective;
    } else if (Has(tok, Lexicon::kAdverb)) {
      tok.pos = Pos::kAdverb;
    } else if (Has(tok, Lexicon::kCommonNoun)) {
      tok.pos = Pos::kNoun;
    } else if (util::IsCapitalized(tok.text)) {
      tok.pos = Pos::kProperNoun;
    } else if (util::EndsWith(lo, "ing") || util::EndsWith(lo, "ed")) {
      tok.pos = Pos::kVerb;  // shape rule for unknown inflected verbs
    } else if (util::EndsWith(lo, "ly")) {
      tok.pos = Pos::kAdverb;
    } else if (util::EndsWith(lo, "ous") || util::EndsWith(lo, "ful") ||
               util::EndsWith(lo, "ive") || util::EndsWith(lo, "able")) {
      tok.pos = Pos::kAdjective;
    } else {
      tok.pos = Pos::kNoun;  // default open class
    }
  }

  // Context repairs (Brill-style).
  for (size_t i = 0; i < tokens->size(); ++i) {
    Token& tok = (*tokens)[i];
    // DT _ : a verb-tagged known noun after a determiner is a noun.
    if (i > 0 && (*tokens)[i - 1].pos == Pos::kDeterminer &&
        tok.pos == Pos::kVerb && Has(tok, Lexicon::kCommonNoun)) {
      tok.pos = Pos::kNoun;
    }
    // MD _ : after a modal, prefer verb reading.
    if (i > 0 && (*tokens)[i - 1].pos == Pos::kModal &&
        (tok.pos == Pos::kNoun) && Has(tok, Lexicon::kVerb)) {
      tok.pos = Pos::kVerb;
    }
    // Sentence-initial capitalized known words: undo spurious NNP.
    if (tok.pos == Pos::kProperNoun) {
      bool sentence_initial = (i == 0) || (*tokens)[i - 1].pos == Pos::kPunct;
      if (sentence_initial) {
        if (Has(tok, Lexicon::kVerb) &&
            !Has(tok, Lexicon::kFirstName | Lexicon::kLastName |
                          Lexicon::kCity)) {
          tok.pos = Pos::kVerb;
        } else if (Has(tok, Lexicon::kCommonNoun)) {
          tok.pos = Pos::kNoun;
        } else if (Has(tok, Lexicon::kAdjective)) {
          tok.pos = Pos::kAdjective;
        } else if (Has(tok, Lexicon::kDeterminer)) {
          tok.pos = Pos::kDeterminer;
        } else if (Has(tok, Lexicon::kPreposition)) {
          tok.pos = Pos::kPreposition;
        }
      }
    }
  }
}

// Fuzzy month/weekday match (edit distance 1 on words of >= 5 chars):
// transcription noise turns "January" into "Tanuary" and a date tagger
// that cannot absorb single-character OCR confusions is useless on
// captured documents.
bool FuzzyMonth(const std::string& lo) {
  static const char* kMonths[] = {"january", "february", "march",   "april",
                                  "august",  "september", "october",
                                  "november", "december"};
  if (lo.size() < 5) return false;
  for (const char* m : kMonths) {
    if (util::WithinOneEdit(lo, m)) return true;
  }
  return false;
}

bool FuzzyWeekday(const std::string& lo) {
  static const char* kDays[] = {"monday", "tuesday", "wednesday", "thursday",
                                "friday", "saturday", "sunday"};
  if (lo.size() < 5) return false;
  for (const char* d : kDays) {
    if (util::WithinOneEdit(lo, d)) return true;
  }
  return false;
}

/// A month name, exact or one OCR edit away.
bool MonthLike(const Token& tok) {
  return Has(tok, Lexicon::kMonth) || FuzzyMonth(tok.lower);
}

/// Marks TIMEX-style time expressions (dates, clock times, weekday phrases).
void TagTime(std::vector<Token>* tokens) {
  auto& ts = *tokens;
  for (size_t i = 0; i < ts.size(); ++i) {
    Token& tok = ts[i];
    const std::string& lo = tok.lower;
    bool timeish = MonthLike(tok) || Has(tok, Lexicon::kWeekday) ||
                   FuzzyWeekday(lo);
    if (LooksLikeClockTime(tok.text)) {
      // Bare small integers only count with an am/pm neighbour.
      if (tok.text.find(':') != std::string::npos ||
          util::EndsWith(lo, "am") || util::EndsWith(lo, "pm")) {
        timeish = true;
      } else if (i + 1 < ts.size() && Has(ts[i + 1], Lexicon::kTimeWord)) {
        timeish = true;
      }
    }
    if (Has(tok, Lexicon::kTimeWord) &&
        (lo == "noon" || lo == "midnight" || lo == "tonight" ||
         lo == "today" || lo == "tomorrow")) {
      timeish = true;
    }
    // am/pm markers and date shapes 04/12/2019, 2019, April 5th
    if (lo == "am" || lo == "pm" || lo == "a.m." || lo == "p.m.") {
      timeish = (i > 0 && ts[i - 1].pos == Pos::kCardinal);
    }
    if (tok.pos == Pos::kCardinal) {
      std::string digits = tok.lower;
      if (digits.find('/') != std::string::npos) {
        timeish = true;  // 04/12/2019
      }
      int year = 0;
      if (digits.size() == 4 && util::ParseDigits(digits, &year) &&
          year >= 1900 && year <= 2100) {
        timeish = true;
      }
      // "April 5" / "5 April" / ordinal after month (fuzzy months too)
      if (i > 0 && MonthLike(ts[i - 1])) timeish = true;
      if (i + 1 < ts.size() && MonthLike(ts[i + 1])) timeish = true;
    }
    if (timeish) {
      tok.is_timex = true;
      if (tok.ner == NerClass::kNone) tok.ner = NerClass::kTime;
    }
  }
  // Extend TIMEX over connective glue inside a time phrase: "7 PM - 10 PM".
  for (size_t i = 1; i + 1 < ts.size(); ++i) {
    if (!ts[i].is_timex && ts[i - 1].is_timex && ts[i + 1].is_timex &&
        (ts[i].text == "-" || ts[i].lower == "to" || ts[i].lower == "at" ||
         ts[i].text == ",")) {
      ts[i].is_timex = true;
    }
  }
  // Bridge runs separated by <= 2 date-plausible garbage tokens (punct,
  // numbers, unknown capitalized words): OCR-corrupted date interiors.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].is_timex) continue;
      bool plausible = ts[i].pos == Pos::kPunct ||
                       ts[i].pos == Pos::kCardinal ||
                       ts[i].pos == Pos::kPreposition ||
                       (ts[i].pos == Pos::kProperNoun &&
                        Lexicon::Get().Hypernyms(ts[i].lower).empty());
      if (!plausible) continue;
      bool left = i > 0 && ts[i - 1].is_timex;
      bool right = i + 1 < ts.size() && ts[i + 1].is_timex;
      if (left && right) ts[i].is_timex = true;
    }
  }
}

/// Marks geocode-bearing tokens (street addresses, city/state/zip runs).
void TagGeocodes(std::vector<Token>* tokens) {
  const Lexicon& lex = Lexicon::Get();
  auto& ts = *tokens;
  std::vector<bool> geo(ts.size(), false);
  for (size_t i = 0; i < ts.size(); ++i) {
    if (Has(ts[i], Lexicon::kCity | Lexicon::kStateName)) geo[i] = true;
    if (ts[i].text.size() == 2 && lex.IsStateAbbrev(ts[i].text)) geo[i] = true;
    if (LooksLikeZipCode(ts[i].text)) geo[i] = true;
    // Street pattern: CD (NNP|NN)+ street-suffix.
    if (Has(ts[i], Lexicon::kStreetSuffix) && i >= 1) {
      // Walk back across the street-name tokens to the leading number.
      size_t j = i;
      bool saw_number = false;
      while (j > 0) {
        --j;
        if (ts[j].pos == Pos::kCardinal && util::HasDigit(ts[j].text)) {
          saw_number = true;
          break;
        }
        if (ts[j].pos != Pos::kProperNoun && ts[j].pos != Pos::kNoun &&
            ts[j].pos != Pos::kAdjective) {
          break;
        }
        if (i - j > 4) break;
      }
      if (saw_number) {
        for (size_t k = j; k <= i; ++k) geo[k] = true;
      }
    }
  }
  // Glue: "Columbus , OH 43210" — commas between geo tokens are geo.
  for (size_t i = 1; i + 1 < ts.size(); ++i) {
    if (!geo[i] && geo[i - 1] && geo[i + 1] && ts[i].text == ",") {
      geo[i] = true;
    }
  }
  for (size_t i = 0; i < ts.size(); ++i) {
    if (geo[i]) {
      ts[i].has_geocode = true;
      if (ts[i].ner == NerClass::kNone) ts[i].ner = NerClass::kLocation;
    }
  }
}

/// NER over POS-tagged tokens: Person, Organization, Location, Time, Money.
void TagNer(std::vector<Token>* tokens) {
  auto& ts = *tokens;
  for (size_t i = 0; i < ts.size(); ++i) {
    Token& tok = ts[i];
    if (tok.ner != NerClass::kNone) continue;

    if (LooksLikeMoney(tok.text)) {
      tok.ner = NerClass::kMoney;
      continue;
    }

    // Organization: gazetteer word or suffix inside a capitalized run.
    if (Has(tok, Lexicon::kOrganizationWord | Lexicon::kOrganizationSuffix) &&
        (util::IsCapitalized(tok.text) ||
         (i > 0 && util::IsCapitalized(ts[i - 1].text)))) {
      tok.ner = NerClass::kOrganization;
      // Pull preceding capitalized tokens into the org span.
      size_t j = i;
      while (j > 0 && util::IsCapitalized(ts[j - 1].text) &&
             ts[j - 1].pos == Pos::kProperNoun && i - j < 4) {
        --j;
        ts[j].ner = NerClass::kOrganization;
      }
      continue;
    }

    // Person: title + capitalized, or first-name gazetteer hit.
    if (Has(tok, Lexicon::kPersonTitle) && i + 1 < ts.size() &&
        util::IsCapitalized(ts[i + 1].text)) {
      tok.ner = NerClass::kPerson;
      continue;
    }
    if (util::IsCapitalized(tok.text) &&
        Has(tok, Lexicon::kFirstName | Lexicon::kLastName)) {
      tok.ner = NerClass::kPerson;
      continue;
    }
    // Capitalized token adjacent to a person token joins the person span.
    if (util::IsCapitalized(tok.text) && tok.pos == Pos::kProperNoun && i > 0 &&
        ts[i - 1].ner == NerClass::kPerson) {
      tok.ner = NerClass::kPerson;
      continue;
    }
  }

  // Second pass: lone NNP runs of length >= 2 with no other reading lean
  // Organization when any member is an org word, else Person when a name
  // gazetteer hit exists in the run — mirrors the over-triggering Stanford
  // NER behaviour Fig. 3 illustrates.
  size_t i = 0;
  while (i < ts.size()) {
    if (ts[i].pos == Pos::kProperNoun && ts[i].ner == NerClass::kNone) {
      size_t j = i;
      bool org = false, person = false;
      while (j < ts.size() && ts[j].pos == Pos::kProperNoun &&
             ts[j].ner == NerClass::kNone) {
        org = org || Has(ts[j], Lexicon::kOrganizationWord);
        person = person || Has(ts[j], Lexicon::kFirstName | Lexicon::kLastName);
        ++j;
      }
      if (j - i >= 2) {
        NerClass cls = org ? NerClass::kOrganization
                           : (person ? NerClass::kPerson : NerClass::kNone);
        if (cls != NerClass::kNone) {
          for (size_t k = i; k < j; ++k) ts[k].ner = cls;
        }
      }
      i = j;
    } else {
      ++i;
    }
  }
}

/// Attaches hypernym chains to nouns and senses to verbs.
void TagSenses(std::vector<Token>* tokens) {
  const Lexicon& lex = Lexicon::Get();
  // Fuzzy sense lookup for OCR-corrupted verb forms ("Orqanized"): a
  // single edit against the curated sense verbs recovers the reading.
  static const std::vector<std::string> kSenseVerbs = {
      "hosted",    "hosting",  "organized", "organizing", "presented",
      "presenting", "sponsored", "featuring", "featured",  "curated",
      "directed",  "produced"};
  auto fuzzy_senses = [&lex](const std::string& lo)
      -> const std::vector<std::string>& {
    static const std::vector<std::string> kEmpty;
    if (lo.size() < 6) return kEmpty;
    for (const std::string& v : kSenseVerbs) {
      if (util::WithinOneEdit(lo, v)) return lex.VerbSenses(v);
    }
    return kEmpty;
  };
  for (Token& tok : *tokens) {
    if (tok.pos == Pos::kNoun || tok.pos == Pos::kProperNoun) {
      tok.hypernyms = lex.Hypernyms(tok.lower);
      if (tok.hypernyms.empty()) {
        tok.hypernyms = lex.Hypernyms(tok.stem);
      }
    }
    if (tok.pos == Pos::kVerb || tok.pos == Pos::kProperNoun) {
      tok.verb_senses = lex.VerbSenses(tok.lower);
      if (tok.verb_senses.empty()) {
        tok.verb_senses = lex.VerbSenses(tok.stem);
      }
      if (tok.verb_senses.empty()) {
        tok.verb_senses = fuzzy_senses(tok.lower);
      }
      if (!tok.verb_senses.empty() && tok.pos == Pos::kProperNoun) {
        tok.pos = Pos::kVerb;  // sentence-initial "Hosted by ..." repaired
      }
    }
  }
}

/// Phrase chunking over tagged tokens: maximal NPs, VPs and SVO clauses.
std::vector<Chunk> ChunkPhrases(const std::vector<Token>& tokens) {
  std::vector<Chunk> chunks;
  auto is_np_member = [&](size_t i, bool head_seen) {
    switch (tokens[i].pos) {
      case Pos::kDeterminer:
      case Pos::kAdjective:
      case Pos::kCardinal:
        return !head_seen;
      case Pos::kNoun:
      case Pos::kProperNoun:
        return true;
      default:
        return false;
    }
  };

  // Maximal NP spans: (DT|JJ|CD)* (NN|NNP)+ with trailing CD allowed
  // ("Suite 210"), and interior of-glue skipped (kept simple).
  size_t i = 0;
  std::vector<int> np_of_token(tokens.size(), -1);
  while (i < tokens.size()) {
    size_t j = i;
    bool head_seen = false;
    bool has_head = false;
    while (j < tokens.size()) {
      if ((tokens[j].pos == Pos::kNoun || tokens[j].pos == Pos::kProperNoun)) {
        head_seen = true;
        has_head = true;
        ++j;
        continue;
      }
      if (head_seen && tokens[j].pos == Pos::kCardinal) {
        ++j;  // trailing unit/number inside NP: "Suite 210", "4 beds"
        continue;
      }
      if (is_np_member(j, head_seen)) {
        ++j;
        continue;
      }
      break;
    }
    if (has_head && j > i) {
      // Trim leading punctuation-free determiner-only prefixes are fine.
      Chunk c{ChunkKind::kNounPhrase, i, j};
      for (size_t k = i; k < j; ++k)
        np_of_token[k] = static_cast<int>(chunks.size());
      chunks.push_back(c);
      i = j;
    } else {
      ++i;
    }
  }

  // VP spans: MD? RB? VB+ (particles/adverbs folded in).
  i = 0;
  while (i < tokens.size()) {
    size_t start = i;
    size_t j = i;
    if (j < tokens.size() && tokens[j].pos == Pos::kModal) ++j;
    while (j < tokens.size() && tokens[j].pos == Pos::kAdverb) ++j;
    size_t verbs_begin = j;
    while (j < tokens.size() && tokens[j].pos == Pos::kVerb) ++j;
    if (j > verbs_begin) {
      chunks.push_back(Chunk{ChunkKind::kVerbPhrase, start, j});
      i = j;
    } else {
      ++i;
    }
  }

  // SVO clauses: an NP chunk, then a VP chunk, then an NP chunk, adjacent
  // up to stopword/preposition glue.
  std::vector<Chunk> nps, vps;
  for (const Chunk& c : chunks) {
    if (c.kind == ChunkKind::kNounPhrase) nps.push_back(c);
    if (c.kind == ChunkKind::kVerbPhrase) vps.push_back(c);
  }
  for (const Chunk& vp : vps) {
    const Chunk* subj = nullptr;
    const Chunk* obj = nullptr;
    for (const Chunk& np : nps) {
      if (np.end <= vp.begin && vp.begin - np.end <= 1) subj = &np;
      if (np.begin >= vp.end && np.begin - vp.end <= 2 && obj == nullptr)
        obj = &np;
    }
    if (subj != nullptr && obj != nullptr) {
      chunks.push_back(Chunk{ChunkKind::kSvo, subj->begin, obj->end});
    }
  }
  return chunks;
}

}  // namespace

std::string AnalyzedText::SpanText(size_t begin, size_t end) const {
  std::string out;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    if (!out.empty() && !IsPunct(tokens[i].text)) out.push_back(' ');
    out += tokens[i].text;
  }
  return out;
}

AnalyzedText Analyze(const std::string& text,
                     const std::vector<size_t>& element_indices) {
  AnalyzedText out;
  const Lexicon& lex = Lexicon::Get();

  // Tokenize per whitespace-piece so element indices can be propagated.
  std::vector<std::string> pieces = util::SplitWhitespace(text);
  for (size_t p = 0; p < pieces.size(); ++p) {
    for (const std::string& surface : Tokenize(pieces[p])) {
      Token tok;
      tok.text = surface;
      tok.lower = util::ToLower(surface);
      tok.stem = PorterStem(tok.lower);
      tok.lexicon_classes = lex.Classes(tok.lower);
      tok.is_stopword = Has(tok, Lexicon::kStopword);
      if (p < element_indices.size()) tok.element_index = element_indices[p];
      out.tokens.push_back(std::move(tok));
    }
  }

  TagPos(&out.tokens);
  TagTime(&out.tokens);
  TagGeocodes(&out.tokens);
  TagNer(&out.tokens);
  TagSenses(&out.tokens);
  out.chunks = ChunkPhrases(out.tokens);
  return out;
}

}  // namespace vs2::nlp

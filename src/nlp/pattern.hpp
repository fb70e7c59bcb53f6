#ifndef VS2_NLP_PATTERN_HPP_
#define VS2_NLP_PATTERN_HPP_

/// \file pattern.hpp
/// The lexico-syntactic pattern language of VS2-Select. Tables 3 and 4 of
/// the paper describe each named entity's patterns in terms of phrase kinds
/// (NP/VP/SVO), modifiers (CD/JJ), NER tags, TIMEX/geocode tags, VerbNet
/// senses, Hypernym-Tree senses, and regular expressions (phone, email).
/// `SyntacticPattern` renders those descriptions as data so they can be
/// *learned* (frequent-subtree mining over a holdout corpus) rather than
/// hard-coded; `MatchPattern` searches them inside analyzed block text.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nlp/analyzer.hpp"

namespace vs2::nlp {

/// Pattern kinds mirroring the Tables 3/4 vocabulary.
enum class PatternKind : uint8_t {
  kVerbPhrase,         ///< any VP chunk
  kNounPhraseModified, ///< NP containing a CD or JJ modifier
  kSvo,                ///< subject–verb–object clause
  kNpWithGeocode,      ///< NP whose tokens carry geocode tags
  kNpWithTimex,        ///< NP/time-run with TIMEX tags
  kVpWithVerbSense,    ///< VP whose verb has one of the given senses
  kNpWithNer,          ///< NP containing the given NER classes
  kNerNgram,           ///< bigram/trigram run of given NER classes
  kPhoneRegex,         ///< digits/char/separator phone shape
  kEmailRegex,         ///< RFC-5322-lite email shape
  kNounWithHypernym,   ///< noun tokens whose hypernym chain hits the senses
  kFieldDescriptor,    ///< exact string match (D1 form fields)
  kProperNounPhrase,   ///< NP dominated by proper nouns (titles, headings)
};

const char* PatternKindName(PatternKind kind);

/// \brief A searchable pattern: a kind plus its arguments (senses, NER
/// class names, or the literal descriptor for `kFieldDescriptor`).
struct SyntacticPattern {
  PatternKind kind = PatternKind::kNounPhraseModified;
  std::vector<std::string> args;

  /// Human-readable form, e.g. `VP[sense=captain|create]`.
  std::string ToString() const;

  bool operator==(const SyntacticPattern&) const = default;
};

/// \brief A match: token span plus a kind-specific base score in (0, 1].
struct PatternMatch {
  size_t begin = 0;  ///< first token index
  size_t end = 0;    ///< one past last token index
  double score = 1.0;
};

/// Finds all matches of `pattern` in `text`. Matches never overlap for the
/// same pattern; longer candidates win.
std::vector<PatternMatch> MatchPattern(const AnalyzedText& text,
                                       const SyntacticPattern& pattern);

/// Convenience: matches any of `patterns`, deduplicating identical spans
/// (keeping the best score).
std::vector<PatternMatch> MatchAny(const AnalyzedText& text,
                                   const std::vector<SyntacticPattern>& patterns);

/// \name Prepared field-descriptor search.
///
/// `MatchPattern` re-tokenizes a `kFieldDescriptor` pattern's literal and
/// runs an allocating full-matrix edit distance on every call. That is fine
/// when a pattern book holds a handful of patterns, but a form-regime book
/// (D1: one descriptor per field, hundreds of fields, of which one form
/// face's worth can match a given document) spends nearly all of
/// VS2-Select re-splitting descriptors and filling DP tables for misses.
/// Preparing the descriptor once and bounding the edit distance gives the
/// same matches at a fraction of the cost — `MatchPreparedDescriptor` is
/// match-for-match identical to `MatchPattern` on the same pattern.
/// @{

/// A `kFieldDescriptor` pattern pre-tokenized for repeated search.
struct PreparedDescriptor {
  std::vector<std::string> want;  ///< lowered descriptor tokens, in order
  std::vector<size_t> budgets;    ///< per-token OCR edit budgets

  bool operator==(const PreparedDescriptor&) const = default;
};

/// Splits and lowers the descriptor literal once. `want` is empty (matches
/// nothing) for non-descriptor patterns or empty literals.
PreparedDescriptor PrepareDescriptor(const SyntacticPattern& pattern);

/// Exactly `Levenshtein(a, b) <= budget`, computed with a length
/// lower-bound reject, stack-allocated rows and row-minimum early exit.
bool WithinEditBudget(std::string_view a, std::string_view b, size_t budget);

/// Bitmask of token lengths present in `text` (bit `min(len, 63)`).
uint64_t TokenLengthMask(const AnalyzedText& text);

/// Cheap necessary condition: `text` holds a token whose length is within
/// the first descriptor token's edit budget. False means
/// `MatchPreparedDescriptor` would find nothing.
bool DescriptorMayMatch(uint64_t length_mask, const PreparedDescriptor& prep);

/// Identical matches to `MatchPattern(text, pattern)` for the descriptor
/// `prep` was prepared from.
std::vector<PatternMatch> MatchPreparedDescriptor(
    const AnalyzedText& text, const PreparedDescriptor& prep);
/// @}

/// \name Regex-style shape recognizers (no std::regex; hand-rolled for
/// speed and determinism).
/// @{

/// Phone: optional `(`, 3 digits, optional `)`, separators `-. `, 3+4
/// digits; or 10 consecutive digits; or leading `+1`.
bool MatchesPhoneShape(const std::string& token);

/// Email: `local@domain.tld` with RFC-5322-lite local part.
bool MatchesEmailShape(const std::string& token);
/// @}

}  // namespace vs2::nlp

#endif  // VS2_NLP_PATTERN_HPP_

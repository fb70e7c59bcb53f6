#ifndef VS2_NLP_TOKEN_HPP_
#define VS2_NLP_TOKEN_HPP_

/// \file token.hpp
/// Token-level representation shared by the NLP substrate. The paper's
/// VS2-Select normalizes block text, removes stopwords, builds dependency
/// trees and recognizes named entities "using publicly available NLP tools"
/// (Sec 5.2); this library re-implements those tools as deterministic
/// rule/gazetteer systems producing the same *kinds* of tags.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vs2::nlp {

/// Part-of-speech inventory (Penn-tag-inspired, collapsed).
enum class Pos : uint8_t {
  kNoun,        ///< NN/NNS
  kProperNoun,  ///< NNP/NNPS
  kVerb,        ///< VB*
  kModal,       ///< MD
  kAdjective,   ///< JJ — the paper's textual modifier
  kAdverb,      ///< RB
  kDeterminer,  ///< DT
  kPreposition, ///< IN
  kConjunction, ///< CC
  kPronoun,     ///< PRP
  kCardinal,    ///< CD — the paper's numeric modifier
  kPunct,
  kSymbol,
  kOther,
};

const char* PosName(Pos pos);

/// Named-entity classes produced by the NER.
enum class NerClass : uint8_t {
  kNone = 0,
  kPerson,
  kOrganization,
  kLocation,
  kTime,
  kMoney,
};

const char* NerClassName(NerClass ner);

/// \brief A fully annotated token.
struct Token {
  std::string text;   ///< surface form
  std::string lower;  ///< lowercased surface
  std::string stem;   ///< Porter stem of `lower`

  /// `Lexicon::Classes(lower)`: the word tables holding this token, probed
  /// once by `Analyze` and tested by every tagger.
  uint32_t lexicon_classes = 0;

  Pos pos = Pos::kOther;
  NerClass ner = NerClass::kNone;

  bool is_stopword = false;
  bool has_geocode = false;  ///< geocode tag (Sec 5.2.1, Location augment)
  bool is_timex = false;     ///< TIMEX3-style time expression member

  /// Hypernym senses of noun tokens (mini-WordNet chains, e.g. "measure").
  std::vector<std::string> hypernyms;

  /// VerbNet-style senses of verb tokens (e.g. "captain", "create").
  std::vector<std::string> verb_senses;

  /// Index of the originating document element; npos when text-only input.
  size_t element_index = static_cast<size_t>(-1);

  bool HasHypernym(const std::string& sense) const;
  bool HasVerbSense(const std::string& sense) const;
};

/// Kind of a phrase-level chunk.
enum class ChunkKind : uint8_t {
  kNounPhrase,
  kVerbPhrase,
  kSvo,  ///< subject–verb–object clause span
  kOther,
};

const char* ChunkKindName(ChunkKind kind);

/// Half-open token span [begin, end) forming a phrase.
struct Chunk {
  ChunkKind kind = ChunkKind::kOther;
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

}  // namespace vs2::nlp

#endif  // VS2_NLP_TOKEN_HPP_

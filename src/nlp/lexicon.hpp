#ifndef VS2_NLP_LEXICON_HPP_
#define VS2_NLP_LEXICON_HPP_

/// \file lexicon.hpp
/// Gazetteers and lexicons standing in for the external resources the paper
/// consumes: first/last-name and organization gazetteers (Stanford-NER
/// style), US city/state lists and street suffixes (Google-Maps-geocode
/// style), a mini hypernym taxonomy (WordNet style, Snow et al. senses),
/// and verb senses (VerbNet style, incl. the `captain`, `create` and
/// `reflexive_appearance` classes used by the Event Organizer pattern).
///
/// All lookups expect lowercase input unless stated otherwise; all data is
/// compiled in (the library has no runtime file dependencies).
///
/// The lowercase word tables share one hash table from word to a bitmask
/// of `Lexicon::Class` bits, so a token's every class is one probe
/// (`Classes`); `nlp::Analyze` stores that mask on the token and the
/// taggers test bits. The `Is*` methods are one-probe wrappers over it.

#include <cstdint>
#include <string>
#include <vector>

namespace vs2::nlp {

/// Singleton accessor; cheap after first call (lazy-initialized tables).
class Lexicon {
 public:
  static const Lexicon& Get();

  /// One bit per lowercase word table.
  enum Class : uint32_t {
    kFirstName = 1u << 0,
    kLastName = 1u << 1,
    kOrganizationWord = 1u << 2,
    kOrganizationSuffix = 1u << 3,
    kPersonTitle = 1u << 4,
    kCity = 1u << 5,
    kStateName = 1u << 6,
    kStreetSuffix = 1u << 7,
    kMonth = 1u << 8,
    kWeekday = 1u << 9,
    kTimeWord = 1u << 10,
    kCommonNoun = 1u << 11,
    kVerb = 1u << 12,
    kAdjective = 1u << 13,
    kAdverb = 1u << 14,
    kDeterminer = 1u << 15,
    kPreposition = 1u << 16,
    kConjunction = 1u << 17,
    kPronoun = 1u << 18,
    kModal = 1u << 19,
    kStopword = 1u << 20,
  };

  /// Union of the `Class` bits of every table holding `lower`; 0 when the
  /// word is in none.
  uint32_t Classes(const std::string& lower) const;

  /// Every word of the lowercase tables, sorted. For tests and tools that
  /// enumerate the vocabulary; the taggers never call it.
  std::vector<std::string> Words() const;

  /// \name NER gazetteers.
  /// @{
  bool IsFirstName(const std::string& lower) const;
  bool IsLastName(const std::string& lower) const;
  bool IsOrganizationWord(const std::string& lower) const;  ///< "university"
  bool IsOrganizationSuffix(const std::string& lower) const;  ///< "inc", "llc"
  bool IsPersonTitle(const std::string& lower) const;         ///< "dr", "prof"
  /// @}

  /// \name Geographic gazetteers.
  /// @{
  bool IsCity(const std::string& lower) const;
  bool IsStateName(const std::string& lower) const;    ///< "ohio"
  bool IsStateAbbrev(const std::string& upper) const;  ///< "OH" (uppercase!)
  bool IsStreetSuffix(const std::string& lower) const; ///< "st", "ave"
  /// @}

  /// \name Temporal vocabulary.
  /// @{
  bool IsMonth(const std::string& lower) const;
  bool IsWeekday(const std::string& lower) const;
  bool IsTimeWord(const std::string& lower) const;  ///< "noon", "pm"
  /// @}

  /// \name POS lexicon.
  /// @{
  bool IsCommonNoun(const std::string& lower) const;
  bool IsVerb(const std::string& lower) const;
  bool IsAdjective(const std::string& lower) const;
  bool IsAdverb(const std::string& lower) const;
  bool IsDeterminer(const std::string& lower) const;
  bool IsPreposition(const std::string& lower) const;
  bool IsConjunction(const std::string& lower) const;
  bool IsPronoun(const std::string& lower) const;
  bool IsModal(const std::string& lower) const;
  bool IsStopword(const std::string& lower) const;
  /// @}

  /// Hypernym chain of a noun (most specific first); empty when unknown.
  /// Includes the Hypernym-Tree senses Table 4 references: `measure`,
  /// `structure`, `estate`.
  const std::vector<std::string>& Hypernyms(const std::string& lower) const;

  /// VerbNet-style senses of a verb (lemma or inflected); empty when
  /// unknown. Includes `captain`, `create`, `reflexive_appearance`.
  const std::vector<std::string>& VerbSenses(const std::string& lower) const;

  /// Dictionary gloss used by the Lesk disambiguation baseline; empty when
  /// unknown.
  const std::string& Gloss(const std::string& lower) const;

  /// Internal table bundle; public so the translation unit's builder can
  /// populate it, but not part of the supported API surface.
  struct Impl;

 private:
  Lexicon();
  const Impl* impl_;
};

}  // namespace vs2::nlp

#endif  // VS2_NLP_LEXICON_HPP_

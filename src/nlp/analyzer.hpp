#ifndef VS2_NLP_ANALYZER_HPP_
#define VS2_NLP_ANALYZER_HPP_

/// \file analyzer.hpp
/// The end-to-end annotation pipeline VS2-Select runs over transcribed
/// block text (Sec 5.2): normalization, stopword marking, POS tagging,
/// named-entity recognition, TIMEX-style time tagging, geocode tagging,
/// hypernym/verb-sense augmentation, and phrase chunking (NP/VP/SVO).
/// The stages are internal to `Analyze`, which probes the lexicon once per
/// token; the stages read the stored class mask.

#include <string>
#include <vector>

#include "nlp/token.hpp"

namespace vs2::nlp {

/// Fully annotated text: tokens plus phrase-level chunks.
struct AnalyzedText {
  std::vector<Token> tokens;
  std::vector<Chunk> chunks;

  /// Surface text of a token span [begin, end).
  std::string SpanText(size_t begin, size_t end) const;

  /// Surface text of a chunk.
  std::string ChunkText(const Chunk& chunk) const {
    return SpanText(chunk.begin, chunk.end);
  }
};

/// \brief Runs the full annotation pipeline on raw text.
///
/// `element_indices`, when provided, must parallel the whitespace tokens of
/// `text` (one document element per whitespace-token) and is propagated to
/// `Token::element_index` so matches can be localized on the page. The
/// tokenizer may split one whitespace token into several tokens (punctuation
/// detachment); all fragments inherit the same element index.
AnalyzedText Analyze(const std::string& text,
                     const std::vector<size_t>& element_indices = {});

}  // namespace vs2::nlp

#endif  // VS2_NLP_ANALYZER_HPP_

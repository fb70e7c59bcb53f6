#include "core/select.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "check/check.hpp"
#include "nlp/analyzer.hpp"
#include "nlp/lesk.hpp"
#include "nlp/stemmer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

namespace vs2::core {
namespace {

using doc::Document;
using doc::LayoutTree;

MultimodalWeights NormalizedOrDefault(MultimodalWeights w) {
  double sum = w.alpha + w.beta + w.gamma + w.nu;
  if (sum <= 0.0) return MultimodalWeights{};
  w.alpha /= sum;
  w.beta /= sum;
  w.gamma /= sum;
  w.nu /= sum;
  return w;
}

/// Per-block context computed once per document.
struct BlockContext {
  size_t node_id = doc::kNoNode;
  nlp::AnalyzedText analyzed;
  std::string text;
  std::vector<float> text_vec;
  double max_elem_height = 1.0;
  double word_density = 0.0;  ///< words per unit area
  util::BBox bbox;
};

BlockContext MakeBlockContext(const Document& doc, const LayoutTree& tree,
                              size_t node_id,
                              const embed::Embedding& embedding) {
  BlockContext ctx;
  ctx.node_id = node_id;
  const doc::LayoutNode& node = tree.node(node_id);

  std::vector<size_t> text_indices;
  for (size_t i : node.element_indices) {
    if (doc.elements[i].is_text()) text_indices.push_back(i);
  }
  // The block's extraction anchor is its *text* extent: decorative or
  // noise image elements sharing the block must not inflate the predicted
  // entity location.
  util::BBox text_bbox;
  for (size_t i : text_indices) {
    text_bbox = util::Union(text_bbox, doc.elements[i].bbox);
  }
  ctx.bbox = text_bbox.Empty() ? node.bbox : text_bbox;
  std::vector<size_t> ordered = doc::ReadingOrder(doc, text_indices);
  std::string joined;
  for (size_t i : ordered) {
    if (!joined.empty()) joined.push_back(' ');
    joined += doc.elements[i].text;
    ctx.max_elem_height =
        std::max(ctx.max_elem_height, doc.elements[i].bbox.height);
  }
  ctx.text = joined;
  ctx.analyzed = nlp::Analyze(joined, ordered);
  ctx.text_vec = embedding.EmbedText(joined);
  ctx.word_density = static_cast<double>(ordered.size()) /
                     std::max(node.bbox.Area(), 1.0);
  return ctx;
}

util::BBox MatchBBox(const Document& doc, const BlockContext& ctx,
                     const nlp::PatternMatch& match) {
  util::BBox acc;
  for (size_t t = match.begin; t < match.end && t < ctx.analyzed.tokens.size();
       ++t) {
    size_t el = ctx.analyzed.tokens[t].element_index;
    if (el < doc.elements.size()) {
      acc = util::Union(acc, doc.elements[el].bbox);
    }
  }
  return acc.Empty() ? ctx.bbox : acc;
}

/// Eq. 2 distance between a match region and an interest-point block.
double MultimodalDistance(const Document& doc, const util::BBox& s_bbox,
                          double s_height, const std::vector<float>& s_vec,
                          double s_density, const BlockContext& c,
                          const MultimodalWeights& w, double max_density) {
  double page_norm = std::max(doc.width + doc.height, 1.0);
  double delta_d =
      util::L1Distance(s_bbox.Centroid(), c.bbox.Centroid()) / page_norm;
  double delta_h =
      std::abs(s_height - c.max_elem_height) / std::max(doc.height, 1.0) *
      10.0;  // heights live at ~1/10 page scale; rescale into [0, ~1]
  double delta_sim = 1.0 - util::CosineSimilarity(s_vec, c.text_vec);
  double delta_wd =
      std::abs(s_density - c.word_density) / std::max(max_density, 1e-9);
  return w.alpha * delta_d + w.beta * delta_h + w.gamma * delta_sim +
         w.nu * delta_wd;
}

/// Affinity of a block to an entity: fraction of the entity's hint stems
/// (`PorterStem(ToLower(hint))`, one per hint word) present in the block
/// text.
double HintAffinity(const BlockContext& ctx,
                    const std::vector<std::string>& hint_stems) {
  if (hint_stems.empty()) return 0.0;
  double hits = 0.0;
  for (const std::string& hint_stem : hint_stems) {
    for (const nlp::Token& tok : ctx.analyzed.tokens) {
      if (tok.stem == hint_stem) {
        hits += 1.0;
        break;
      }
    }
  }
  return hits / static_cast<double>(hint_stems.size());
}

/// For D1 field-descriptor matches, the extracted value is the token run
/// following the descriptor inside the same block (the adjacent value box).
std::string FieldValueAfter(const BlockContext& ctx,
                            const nlp::PatternMatch& match,
                            util::BBox* value_bbox, const Document& doc) {
  std::string value;
  util::BBox acc;
  size_t limit = std::min(ctx.analyzed.tokens.size(), match.end + 8);
  for (size_t t = match.end; t < limit; ++t) {
    const nlp::Token& tok = ctx.analyzed.tokens[t];
    if (tok.pos == nlp::Pos::kPunct) continue;
    if (!value.empty()) value.push_back(' ');
    value += tok.text;
    if (tok.element_index < doc.elements.size()) {
      acc = util::Union(acc, doc.elements[tok.element_index].bbox);
    }
  }
  if (!acc.Empty() && value_bbox != nullptr) *value_bbox = acc;
  return value;
}

struct Candidate {
  size_t block_index = 0;  ///< into the BlockContext vector
  nlp::PatternMatch match;
  nlp::PatternKind kind = nlp::PatternKind::kNounPhraseModified;
};

}  // namespace

MultimodalWeights MultimodalWeights::ForDataset(doc::DatasetId dataset) {
  MultimodalWeights w;
  if (dataset == doc::DatasetId::kD2EventPosters) {
    // Visually ornate, not verbose: β, ν ≥ γ.
    w.alpha = 0.20;
    w.beta = 0.30;
    w.gamma = 0.15;
    w.nu = 0.35;
  }
  return w;  // D1/D3: balanced corpus, α ≈ β ≈ γ ≈ ν
}

std::vector<Extraction> SelectEntities(
    const Document& doc, const LayoutTree& tree, const PatternBook& book,
    const std::vector<datasets::EntitySpec>& specs,
    const embed::Embedding& embedding, const SelectConfig& config) {
  std::vector<Extraction> out;
  MultimodalWeights weights = NormalizedOrDefault(config.weights);

  // Block contexts for every leaf holding text.
  std::vector<BlockContext> blocks;
  {
    VS2_TRACE_SPAN("select.block_contexts");
    for (size_t leaf : tree.Leaves()) {
      bool has_text = false;
      for (size_t e : tree.node(leaf).element_indices) {
        if (doc.elements[e].is_text()) {
          has_text = true;
          break;
        }
      }
      if (has_text) {
        blocks.push_back(MakeBlockContext(doc, tree, leaf, embedding));
      }
    }
  }
  if (blocks.empty()) return out;

  double max_density = 1e-9;
  for (const BlockContext& b : blocks) {
    max_density = std::max(max_density, b.word_density);
  }

  // Interest points (shared across entities).
  std::vector<size_t> ip_nodes;
  if (config.use_interest_points) {
    ip_nodes = SelectInterestPoints(doc, tree, embedding);
  } else {
    for (const BlockContext& b : blocks) ip_nodes.push_back(b.node_id);
  }
  std::vector<const BlockContext*> interest_points;
  for (size_t node : ip_nodes) {
    for (const BlockContext& b : blocks) {
      if (b.node_id == node) {
        interest_points.push_back(&b);
        break;
      }
    }
  }
  if (interest_points.empty()) {
    for (const BlockContext& b : blocks) interest_points.push_back(&b);
  }

  // --- search phase: all candidates for every entity ---
  struct ScoredCandidate {
    Candidate cand;
    double score = 0.0;
  };
  struct EntityCandidates {
    const datasets::EntitySpec* spec = nullptr;
    std::vector<ScoredCandidate> ranked;  ///< ascending score
  };
  std::vector<EntityCandidates> per_entity;

  // Form-regime acceleration (FAST lane): per-block token-length masks for
  // the descriptor prefilter, computed once per document.
  std::vector<uint64_t> length_masks;
  if (config.descriptor_index) {
    length_masks.reserve(blocks.size());
    for (const BlockContext& b : blocks) {
      length_masks.push_back(nlp::TokenLengthMask(b.analyzed));
    }
  }

  static obs::Counter& patterns_matched =
      obs::Metrics::GetCounter("select.patterns_matched");
  for (const datasets::EntitySpec& spec : specs) {
    const LearnedEntityPatterns* learned = book.Find(spec.name);
    if (learned == nullptr || learned->patterns.empty()) continue;
    VS2_TRACE_SPAN_ARG("select.search_entity", learned->patterns.size());

    // Pre-tokenized descriptors, parallel to `learned->patterns` and
    // compiled with the book; an empty `want` marks a pattern the generic
    // matcher handles.
    const std::vector<nlp::PreparedDescriptor>& prepared = learned->prepared;
    VS2_CHECK(prepared.size() == learned->patterns.size())
        << spec.name << ": book not compiled by LearnPatterns";

    std::vector<Candidate> candidates;
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
      for (size_t pi = 0; pi < learned->patterns.size(); ++pi) {
        const nlp::SyntacticPattern& pattern = learned->patterns[pi];
        if (config.descriptor_index && !prepared[pi].want.empty()) {
          if (!nlp::DescriptorMayMatch(length_masks[bi], prepared[pi])) {
            continue;
          }
          for (const nlp::PatternMatch& m : nlp::MatchPreparedDescriptor(
                   blocks[bi].analyzed, prepared[pi])) {
            candidates.push_back({bi, m, pattern.kind});
          }
          continue;
        }
        for (const nlp::PatternMatch& m :
             nlp::MatchPattern(blocks[bi].analyzed, pattern)) {
          candidates.push_back({bi, m, pattern.kind});
        }
      }
    }
    patterns_matched.Add(candidates.size());
    if (candidates.empty()) continue;

    EntityCandidates ec;
    ec.spec = &spec;
    switch (config.disambiguation) {
      case DisambiguationMode::kFirstMatch: {
        // Reading order over blocks, then match position; no ranking —
        // the single naive pick is the only candidate retained.
        size_t best = 0;
        for (size_t ci = 1; ci < candidates.size(); ++ci) {
          const util::BBox& a = blocks[candidates[ci].block_index].bbox;
          const util::BBox& b = blocks[candidates[best].block_index].bbox;
          if (a.y < b.y - 1.0 || (std::abs(a.y - b.y) <= 1.0 && a.x < b.x)) {
            best = ci;
          }
        }
        ec.ranked.push_back({candidates[best], 0.0});
        break;
      }
      case DisambiguationMode::kLesk: {
        std::vector<std::string> contexts;
        for (const Candidate& c : candidates) {
          contexts.push_back(blocks[c.block_index].text);
        }
        size_t best = nlp::LeskSelect(contexts, spec.hint_words);
        ec.ranked.push_back({candidates[best], 0.0});
        break;
      }
      case DisambiguationMode::kMultimodal: {
        std::vector<std::string> hint_stems;
        hint_stems.reserve(spec.hint_words.size());
        for (const std::string& hint : spec.hint_words) {
          hint_stems.push_back(nlp::PorterStem(util::ToLower(hint)));
        }
        std::vector<double> fs;
        fs.reserve(candidates.size());
        std::vector<float> s_vec;  // reused across the candidate loop
        for (const Candidate& cand : candidates) {
          const BlockContext& blk = blocks[cand.block_index];
          util::BBox s_bbox = MatchBBox(doc, blk, cand.match);
          std::string s_text =
              blk.analyzed.SpanText(cand.match.begin, cand.match.end);
          embedding.EmbedTextInto(s_text, &s_vec);
          double s_height = 1.0;
          for (size_t t = cand.match.begin; t < cand.match.end; ++t) {
            size_t el = blk.analyzed.tokens[t].element_index;
            if (el < doc.elements.size()) {
              s_height = std::max(s_height, doc.elements[el].bbox.height);
            }
          }
          double s_density =
              static_cast<double>(cand.match.end - cand.match.begin) /
              std::max(s_bbox.Area(), 1.0);

          double f = 1e18;
          for (const BlockContext* ip : interest_points) {
            f = std::min(f, MultimodalDistance(doc, s_bbox, s_height, s_vec,
                                               s_density, *ip, weights,
                                               max_density));
          }
          fs.push_back(f);
          ec.ranked.push_back({cand, 0.0});
        }
        for (size_t ci = 0; ci < ec.ranked.size(); ++ci) {
          const Candidate& cand = ec.ranked[ci].cand;
          const BlockContext& blk = blocks[cand.block_index];
          ec.ranked[ci].score =
              fs[ci] -
              config.affinity_weight * HintAffinity(blk, hint_stems) -
              config.pattern_weight * cand.match.score;
        }
        std::sort(ec.ranked.begin(), ec.ranked.end(),
                  [](const ScoredCandidate& a, const ScoredCandidate& b) {
                    return a.score < b.score;
                  });
        break;
      }
    }
    if (!ec.ranked.empty()) per_entity.push_back(std::move(ec));
  }

  // --- select phase: global assignment with span exclusivity ---
  // The extraction task is a mapping m : N → B (Sec 3); two entities must
  // not claim the same matched span. Entities are resolved best-score
  // first; a candidate overlapping an already-claimed span in the same
  // block is skipped, sending the weaker entity to its next candidate —
  // this is what keeps "Event Description" from re-claiming the title NP.
  VS2_TRACE_SPAN_ARG("select.assign", per_entity.size());
  struct Claim {
    size_t block_index;
    size_t begin;
    size_t end;
  };
  std::vector<Claim> claims;
  std::vector<bool> done(per_entity.size(), false);
  std::vector<size_t> cursor(per_entity.size(), 0);

  auto overlaps_claim = [&](const Candidate& cand) {
    for (const Claim& cl : claims) {
      if (cl.block_index == cand.block_index && cand.match.begin < cl.end &&
          cl.begin < cand.match.end) {
        return true;
      }
    }
    return false;
  };

  for (size_t round = 0; round < per_entity.size(); ++round) {
    // Next unresolved entity with the lowest current-candidate score.
    size_t pick = per_entity.size();
    double pick_score = 1e18;
    for (size_t e = 0; e < per_entity.size(); ++e) {
      if (done[e]) continue;
      auto& ranked = per_entity[e].ranked;
      while (cursor[e] < ranked.size() &&
             overlaps_claim(ranked[cursor[e]].cand)) {
        ++cursor[e];
      }
      if (cursor[e] >= ranked.size()) {
        // Everything claimed: fall back to its best candidate regardless.
        cursor[e] = 0;
      }
      double sc = ranked[cursor[e]].score;
      if (sc < pick_score) {
        pick_score = sc;
        pick = e;
      }
    }
    if (pick >= per_entity.size()) break;
    done[pick] = true;
    const ScoredCandidate& sc = per_entity[pick].ranked[cursor[pick]];
    claims.push_back(
        {sc.cand.block_index, sc.cand.match.begin, sc.cand.match.end});

    const Candidate& cand = sc.cand;
    const BlockContext& blk = blocks[cand.block_index];
    Extraction ex;
    ex.entity = per_entity[pick].spec->name;
    ex.block_node = blk.node_id;
    ex.block_bbox = blk.bbox;
    ex.score = sc.score;
    if (cand.kind == nlp::PatternKind::kFieldDescriptor) {
      util::BBox value_bbox = blk.bbox;
      ex.text = FieldValueAfter(blk, cand.match, &value_bbox, doc);
      ex.match_bbox = value_bbox;
      if (ex.text.empty()) {
        ex.text = blk.analyzed.SpanText(cand.match.begin, cand.match.end);
      }
    } else {
      ex.text = blk.analyzed.SpanText(cand.match.begin, cand.match.end);
      ex.match_bbox = MatchBBox(doc, blk, cand.match);
      // Mention reconstruction: transcription noise fragments one entity
      // mention into several pattern matches across neighbouring blocks
      // ("Wednesday, January 1Q" | "at 6 AM"). Matches of the same entity
      // immediately adjacent to the chosen span are parts of the same
      // mention; absorb their extents.
      double absorb_gap = 1.0;
      for (size_t t = cand.match.begin; t < cand.match.end; ++t) {
        size_t el = blk.analyzed.tokens[t].element_index;
        if (el < doc.elements.size()) {
          absorb_gap = std::max(absorb_gap, doc.elements[el].bbox.height);
        }
      }
      // Same-line fragments may be separated by several corrupted words;
      // across lines only immediate adjacency counts.
      for (int pass = 0; pass < 2; ++pass) {
        for (const ScoredCandidate& other : per_entity[pick].ranked) {
          const BlockContext& oblk = blocks[other.cand.block_index];
          util::BBox obox = MatchBBox(doc, oblk, other.cand.match);
          double y_overlap = std::min(ex.match_bbox.bottom(), obox.bottom()) -
                             std::max(ex.match_bbox.y, obox.y);
          bool same_line =
              y_overlap > 0.5 * std::min(ex.match_bbox.height, obox.height);
          double limit = same_line ? 5.0 * absorb_gap : 1.2 * absorb_gap;
          if (util::BoxGap(ex.match_bbox, obox) <= limit) {
            ex.match_bbox = util::Union(ex.match_bbox, obox);
          }
        }
      }
    }
    out.push_back(std::move(ex));
  }

  static obs::Counter& extractions =
      obs::Metrics::GetCounter("select.extractions");
  extractions.Add(out.size());
  return out;
}

}  // namespace vs2::core

/// Differential tests for the bit-parallel wavefront cut kernel and the
/// page-raster crop (DESIGN.md §11): the production cut path must be
/// *bit-for-bit* identical to the references in `reference/` at every level
/// — raw cut vectors, cropped grids and separator runs, down to every node
/// of the layout trees of real dataset samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cuts.hpp"
#include "core/segmenter.hpp"
#include "datasets/generator.hpp"
#include "datasets/pretrained.hpp"
#include "ocr/ocr.hpp"
#include "reference/cuts_reference.hpp"
#include "util/rng.hpp"

namespace vs2::core {
namespace {

// ------------------------------------------------------- raw cut vectors --

void ExpectKernelsAgree(const raster::OccupancyGrid& g, int drift,
                        const std::string& label) {
  EXPECT_EQ(reference::ScalarHorizontalCuts(g, drift),
            BandedHorizontalCuts(g, drift))
      << label << " horizontal, drift " << drift;
  EXPECT_EQ(reference::ScalarVerticalCuts(g, drift),
            BandedVerticalCuts(g, drift))
      << label << " vertical, drift " << drift;
}

TEST(CutKernelDifferentialTest, RandomizedBoxesAllDriftsBothAxes) {
  util::Rng rng(0xC075);
  for (int trial = 0; trial < 60; ++trial) {
    // Dimensions straddle the 64-bit word boundary on both axes.
    int w = rng.UniformInt(1, 150);
    int h = rng.UniformInt(1, 150);
    raster::OccupancyGrid g(w, h);
    int boxes = rng.UniformInt(0, 18);
    for (int b = 0; b < boxes; ++b) {
      double bw = rng.UniformDouble(0.5, w * 0.6);
      double bh = rng.UniformDouble(0.5, h * 0.6);
      g.FillBox({rng.UniformDouble(-3.0, w), rng.UniformDouble(-3.0, h), bw,
                 bh});
    }
    for (int drift : {0, 1, 2, 8}) {
      ExpectKernelsAgree(g, drift, "trial " + std::to_string(trial));
    }
  }
}

TEST(CutKernelDifferentialTest, SparseSaltAndPepperGrids) {
  // Single-cell noise stresses the drift band: paths must thread between
  // isolated occupied cells, and every live/dead lane transition matters.
  util::Rng rng(0x5A17);
  for (int trial = 0; trial < 30; ++trial) {
    int w = rng.UniformInt(30, 140);
    int h = rng.UniformInt(30, 140);
    raster::OccupancyGrid g(w, h);
    double density = rng.UniformDouble(0.02, 0.35);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (rng.Bernoulli(density)) g.set_occupied(x, y);
      }
    }
    for (int drift : {1, 3, 8}) {
      ExpectKernelsAgree(g, drift, "noise trial " + std::to_string(trial));
    }
  }
}

TEST(CutKernelDifferentialTest, AllWhitespaceAndAllOccupied) {
  for (int dim : {1, 7, 63, 64, 65, 130}) {
    raster::OccupancyGrid clear(dim, dim);
    ExpectKernelsAgree(clear, 8, "all-whitespace");
    std::vector<bool> cuts = ValidHorizontalCuts(clear);
    EXPECT_EQ(static_cast<int>(cuts.size()), dim);
    for (bool c : cuts) EXPECT_TRUE(c);

    raster::OccupancyGrid full(dim, dim);
    full.FillCellRect({0, 0, dim - 1, dim - 1});
    ExpectKernelsAgree(full, 8, "all-occupied");
    for (bool c : ValidVerticalCuts(full)) EXPECT_FALSE(c);
  }
}

TEST(CutKernelDifferentialTest, DegenerateShapes) {
  // Single row / single column / one-cell grids exercise the n_steps == 1
  // early path and out-of-range band edges.
  for (auto [w, h] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 100}, {100, 1}, {64, 1}, {1, 64}, {200, 3}}) {
    raster::OccupancyGrid g(w, h);
    if (w > 2 && h > 2) g.FillBox({w / 2.0, 0.0, 1.0, static_cast<double>(h)});
    for (int drift : {0, 2, 8}) ExpectKernelsAgree(g, drift, "degenerate");
  }
}

// -------------------------------------------------------- separator runs --

std::vector<util::BBox> RandomBoxes(util::Rng* rng, int count, double page_w,
                                    double page_h) {
  std::vector<util::BBox> boxes;
  for (int i = 0; i < count; ++i) {
    boxes.push_back({rng->UniformDouble(0, page_w * 0.85),
                     rng->UniformDouble(0, page_h * 0.85),
                     rng->UniformDouble(4.0, page_w * 0.4),
                     rng->UniformDouble(4.0, 22.0)});
  }
  return boxes;
}

void ExpectRunsIdentical(const std::vector<SeparatorRun>& a,
                         const std::vector<SeparatorRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].horizontal, b[i].horizontal);
    EXPECT_EQ(a[i].start_units, b[i].start_units);
    EXPECT_EQ(a[i].width_units, b[i].width_units);
    EXPECT_EQ(a[i].mid_units, b[i].mid_units);
    EXPECT_EQ(a[i].neighbor_max_height, b[i].neighbor_max_height);
    EXPECT_EQ(a[i].scaled_width, b[i].scaled_width);
  }
}

bool SameGrid(const raster::OccupancyGrid& a, const raster::OccupancyGrid& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  size_t row_words = a.words_per_row() * static_cast<size_t>(a.height());
  size_t col_words = a.words_per_col() * static_cast<size_t>(a.width());
  return std::equal(a.ws_rows(), a.ws_rows() + row_words, b.ws_rows()) &&
         std::equal(a.ws_cols(), a.ws_cols() + col_words, b.ws_cols());
}

/// Pins the production cut path on one visual area — the elements `ids` of
/// `page`, with boxes `boxes`, inside `region` — against the references:
///  * the grid cropped from the page raster equals a fresh rasterization of
///    the same window from the area's boxes;
///  * the wavefront cuts on that grid equal the scalar banded DP at the
///    drift `FindSeparatorRuns` uses;
///  * runs cropped from the full page equal runs from a page raster built
///    from the area's boxes alone.
void ExpectAreaMatchesReference(const raster::PageRaster& page,
                                const std::vector<size_t>& ids,
                                const std::vector<util::BBox>& boxes,
                                const util::BBox& region,
                                const std::string& label) {
  const raster::GridScale& scale = page.scale();
  raster::CellRect window = AnalysisWindow(boxes, region, scale);
  if (window.Empty()) return;
  raster::OccupancyGrid cropped = page.Crop(window, &ids);
  EXPECT_TRUE(
      SameGrid(cropped, reference::RasterizeWindow(boxes, window, scale)))
      << label;
  ExpectKernelsAgree(cropped, CutDrift(boxes, scale), label);
  ExpectRunsIdentical(FindSeparatorRuns(boxes, region, page, &ids),
                      FindSeparatorRuns(boxes, region,
                                        raster::PageRaster(boxes, scale)));
}

TEST(CutKernelDifferentialTest, SeparatorRunsBitIdenticalAcrossPaths) {
  util::Rng rng(0xD1FF);
  raster::GridScale scale{0.5};
  for (int trial = 0; trial < 25; ++trial) {
    util::BBox region{0, 0, 320, 240};
    auto boxes = RandomBoxes(&rng, rng.UniformInt(2, 24), region.width,
                             region.height);
    raster::PageRaster page(boxes, scale);
    std::vector<size_t> ids(boxes.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    ExpectAreaMatchesReference(page, ids, boxes, region,
                               "trial " + std::to_string(trial));

    // A subset of elements must crop to the subset's own grid, not the
    // page's.
    std::vector<size_t> subset;
    for (size_t i = 0; i < boxes.size(); i += 2) subset.push_back(i);
    std::vector<util::BBox> subset_boxes;
    for (size_t i : subset) subset_boxes.push_back(boxes[i]);
    ExpectAreaMatchesReference(page, subset, subset_boxes, region,
                               "subset trial " + std::to_string(trial));
  }
}

// ----------------------------------------------------------- layout trees --

TEST(CutKernelDifferentialTest, LayoutTreesIdenticalOnDatasetSamples) {
  // Every node of the production layout trees of D1–D3 samples is a visual
  // area the segmenter may cut; each one must match the references.
  const embed::Embedding& emb = datasets::PretrainedEmbedding();
  datasets::GeneratorConfig gc;
  gc.num_documents = 2;
  gc.seed = 77;
  struct Sample {
    std::string name;
    doc::Corpus corpus;
  };
  std::vector<Sample> samples;
  samples.push_back({"D1", datasets::GenerateD1(gc)});
  samples.push_back({"D2", datasets::GenerateD2(gc)});
  samples.push_back({"D3", datasets::GenerateD3(gc)});

  SegmenterConfig config;
  for (const Sample& sample : samples) {
    for (const doc::Document& clean : sample.corpus.documents) {
      doc::Document observed = ocr::Transcribe(clean, {});
      auto tree = Segment(observed, emb, config);
      ASSERT_TRUE(tree.ok()) << sample.name;

      std::vector<util::BBox> page_boxes;
      for (const doc::AtomicElement& el : observed.elements) {
        page_boxes.push_back(el.bbox);
      }
      raster::PageRaster page(page_boxes, config.grid_scale);
      for (size_t id = 0; id < tree->size(); ++id) {
        const doc::LayoutNode& node = tree->node(id);
        std::vector<util::BBox> boxes;
        for (size_t i : node.element_indices) {
          boxes.push_back(observed.elements[i].bbox);
        }
        util::BBox region = id == tree->root()
                                ? util::BBox{0, 0, observed.width,
                                             observed.height}
                                : node.bbox;
        ExpectAreaMatchesReference(
            page, node.element_indices, boxes, region,
            sample.name + " node " + std::to_string(id));
      }
    }
  }
}

}  // namespace
}  // namespace vs2::core

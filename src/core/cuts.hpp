#ifndef VS2_CORE_CUTS_HPP_
#define VS2_CORE_CUTS_HPP_

/// \file cuts.hpp
/// The whitespace-cut machinery of paper Sec 5.1.1. A *valid k-hop
/// horizontal movement* walks k cells rightward through whitespace, drifting
/// at most one cell up or down per hop; a *horizontal cut* originates at
/// (0, y) when a valid W-hop movement exists from it. Vertical cuts are the
/// transpose. Runs of consecutive valid cuts form candidate visual
/// separators which Algorithm 1 then filters.
///
/// Reachability is computed by a bit-parallel wavefront (DESIGN.md §11):
/// 64 origins packed per `uint64_t`, one sweep over the grid propagating all
/// origins simultaneously with word-wide OR/AND/shift operations against the
/// grid's packed whitespace words. The tests pin it bit-for-bit against a
/// scalar banded DP kept under `tests/reference/`.

#include <vector>

#include "doc/document.hpp"
#include "raster/grid.hpp"
#include "util/geometry.hpp"

namespace vs2::core {

/// \brief Per-row flags: `cut[y]` is true when a horizontal cut originates
/// from (0, y) — computed by backward reachability with ±1 drift per hop.
std::vector<bool> ValidHorizontalCuts(const raster::OccupancyGrid& grid);

/// Per-column flags for vertical cuts.
std::vector<bool> ValidVerticalCuts(const raster::OccupancyGrid& grid);

/// \brief cut[y] is true when a path of valid 1-hop horizontal movements
/// runs from column 0 to column w-1 staying within `drift` rows of y.
/// Exposed (with explicit drift) for the differential tests and benches.
std::vector<bool> BandedHorizontalCuts(const raster::OccupancyGrid& grid,
                                       int drift);

/// The transpose of `BandedHorizontalCuts`.
std::vector<bool> BandedVerticalCuts(const raster::OccupancyGrid& grid,
                                     int drift);

/// \brief A maximal run of consecutive valid cuts: the candidate separator
/// V_s of Fig. 5b, with the measurements Algorithm 1 consumes.
struct SeparatorRun {
  bool horizontal = true;       ///< run of horizontal cuts (splits top/bottom)
  double start_units = 0.0;     ///< first cut coordinate, layout units (page frame)
  double width_units = 0.0;     ///< |s| in layout units
  double mid_units = 0.0;       ///< separator midline coordinate
  /// argmax_k height(neighbor-bbox_k(s)): the tallest element bbox at
  /// minimum distance from the run.
  double neighbor_max_height = 0.0;
  /// Algorithm 1's width_i = |s| · max-neighbor-height / max-element-height.
  double scaled_width = 0.0;
};

/// \brief The cell window `FindSeparatorRuns` analyses: the content bounds
/// of `element_boxes` plus one cell of padding, clipped to `region` and
/// snapped to the absolute page lattice. Empty when nothing is left.
/// Exposed for the differential tests.
raster::CellRect AnalysisWindow(const std::vector<util::BBox>& element_boxes,
                                const util::BBox& region,
                                const raster::GridScale& scale);

/// \brief The drift band (cells) `FindSeparatorRuns` allows for these
/// elements: 0.6 median element heights, clamped to [2, 8]. Exposed for the
/// differential tests.
int CutDrift(const std::vector<util::BBox>& element_boxes,
             const raster::GridScale& scale);

/// \brief Finds separator runs (both directions) inside `region` for the
/// elements `element_ids` of `page` (all of them when null); `element_boxes`
/// holds those elements' boxes.
///
/// The grid of the `AnalysisWindow` is cropped from the once-per-document
/// page rasterization, so every recursion depth reuses the same lattice
/// placement of each box instead of re-rasterizing it.
///
/// Runs touching the region border are trimmed to interior separators only
/// (margins do not separate content). Runs narrower than one grid cell in
/// units are dropped.
std::vector<SeparatorRun> FindSeparatorRuns(
    const std::vector<util::BBox>& element_boxes, const util::BBox& region,
    const raster::PageRaster& page,
    const std::vector<size_t>* element_ids = nullptr);

}  // namespace vs2::core

#endif  // VS2_CORE_CUTS_HPP_

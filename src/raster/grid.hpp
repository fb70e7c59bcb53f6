#ifndef VS2_RASTER_GRID_HPP_
#define VS2_RASTER_GRID_HPP_

/// \file grid.hpp
/// Discretized page rasters. The cut machinery of Sec 5.1.1 reasons about
/// *whitespace positions* — grid positions covered by no bounding box — so
/// the page is discretized into an occupancy grid at a configurable
/// resolution (cells per layout unit).
///
/// The grid is stored as packed 64-cell whitespace words, in both row-major
/// (bits along x) and column-major (bits along y) order. The bit-parallel
/// cut kernel (DESIGN.md §11) consumes these words directly: one word holds
/// the whitespace state of 64 consecutive cells, so a single AND/OR
/// propagates 64 cut origins at once.

#include <cstdint>
#include <string>
#include <vector>

#include "util/color.hpp"
#include "util/geometry.hpp"

namespace vs2::raster {

/// \brief Half-open-free inclusive cell rectangle [x0,x1]×[y0,y1] on a cell
/// lattice. Default-constructed rectangles are empty.
struct CellRect {
  int x0 = 0;
  int y0 = 0;
  int x1 = -1;
  int y1 = -1;

  bool operator==(const CellRect&) const = default;

  bool Empty() const { return x1 < x0 || y1 < y0; }
  int width() const { return x1 - x0 + 1; }
  int height() const { return y1 - y0 + 1; }
};

/// Intersection of two cell rectangles (empty when disjoint).
CellRect IntersectCells(const CellRect& a, const CellRect& b);

/// \brief Binary occupancy raster: cell (x, y) is true when some element's
/// bounding box covers it. Out-of-range queries read as occupied, so cut
/// paths can never escape the page.
class OccupancyGrid {
 public:
  /// Constructs an all-whitespace grid of `width` × `height` cells.
  OccupancyGrid(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  bool occupied(int x, int y) const {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) return true;
    return !RowBit(x, y);
  }

  /// A whitespace position per Sec 5.1.1: inside the page and uncovered.
  /// One bounds check, one bit test (the former `occupied` detour re-checked
  /// the range a second time on this hot path).
  bool IsWhitespace(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_ && RowBit(x, y);
  }

  void set_occupied(int x, int y, bool value = true);

  /// Marks all cells covered by `box` (given in grid coordinates).
  void FillBox(const util::BBox& box);

  /// Marks all cells of `rect` (grid coordinates, clamped to the grid) as
  /// occupied, via word-masked fills on both packings.
  void FillCellRect(const CellRect& rect);

  /// Fraction of occupied cells.
  double OccupancyRatio() const;

  /// '#' for occupied, '.' for whitespace; debugging aid.
  std::string ToAsciiArt() const;

  // --- packed whitespace accessors (the cut kernel's view) ---------------

  /// Words per row-major row; row y occupies ws_rows()[y*words_per_row()..].
  size_t words_per_row() const { return wpr_; }
  /// Words per column-major column.
  size_t words_per_col() const { return wpc_; }

  /// Row-major packing: bit (x & 63) of word ws_row(y)[x >> 6] is set when
  /// cell (x, y) is whitespace. Bits at x >= width() are always zero.
  const uint64_t* ws_row(int y) const {
    return ws_rows_.data() + static_cast<size_t>(y) * wpr_;
  }
  const uint64_t* ws_rows() const { return ws_rows_.data(); }

  /// Column-major packing: bit (y & 63) of word ws_col(x)[y >> 6] is set
  /// when cell (x, y) is whitespace. Bits at y >= height() are always zero.
  const uint64_t* ws_col(int x) const {
    return ws_cols_.data() + static_cast<size_t>(x) * wpc_;
  }
  const uint64_t* ws_cols() const { return ws_cols_.data(); }

  /// True when every cell of row y (resp. column x) is whitespace.
  bool RowClear(int y) const;
  bool ColClear(int x) const;

 private:
  /// Test-only backdoor (tests/check_test.cpp): corrupts the packed words
  /// to prove `check::AuditOccupancyGrid` catches broken zero-tails and
  /// row/column packing disagreement.
  friend struct OccupancyGridTestPeer;

  bool RowBit(int x, int y) const {
    return (ws_rows_[static_cast<size_t>(y) * wpr_ +
                     (static_cast<size_t>(x) >> 6)] >>
            (static_cast<unsigned>(x) & 63)) &
           1u;
  }

  int width_;
  int height_;
  size_t wpr_;  ///< words per row-major row
  size_t wpc_;  ///< words per column-major column
  std::vector<uint64_t> ws_rows_;  ///< whitespace bits, packed along x
  std::vector<uint64_t> ws_cols_;  ///< whitespace bits, packed along y
};

/// \brief Maps between layout units and grid cells.
struct GridScale {
  double cells_per_unit = 0.25;  ///< default: one cell per 4 layout units

  int ToCellsFloor(double v) const;
  int ToCellsCeil(double v) const;
  double ToUnits(int cells) const;
  util::BBox BoxToCells(const util::BBox& b) const;
};

/// \brief Footprint of a box on the absolute page lattice (cell k covering
/// layout units [k/cpu, (k+1)/cpu)). Empty boxes map to an empty rect.
CellRect BoxToCellRect(const util::BBox& b, const GridScale& scale);

/// Rasterizes element bounding boxes of a region into an occupancy grid.
/// `region` is in layout units; boxes are clipped to the region and offset
/// so the grid origin is the region's top-left corner.
OccupancyGrid RasterizeBoxes(const std::vector<util::BBox>& boxes,
                             const util::BBox& region, const GridScale& scale);

/// \brief Once-per-document page rasterization (DESIGN.md §11).
///
/// Snaps every element box to the absolute page lattice exactly once; the
/// segmenter then derives the grid of any visual area by *cropping* — an
/// integer window intersect plus word-masked fills — instead of re-clipping
/// and re-scaling every box at every recursion depth. Cells are placed by
/// the same integer lattice arithmetic as a fresh rasterization of the
/// area, so the cropped grid is bit-identical to it (pinned by
/// tests/cuts_kernel_test.cpp).
class PageRaster {
 public:
  PageRaster(const std::vector<util::BBox>& boxes, const GridScale& scale);

  const GridScale& scale() const { return scale_; }

  /// Occupancy grid of `window` (absolute lattice cells) containing exactly
  /// the elements listed in `ids` (all elements when null), clipped to the
  /// window.
  OccupancyGrid Crop(const CellRect& window,
                     const std::vector<size_t>* ids = nullptr) const;

 private:
  GridScale scale_{};
  std::vector<CellRect> rects_;
};

}  // namespace vs2::raster

#endif  // VS2_RASTER_GRID_HPP_

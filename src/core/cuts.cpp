#include "core/cuts.hpp"

#include <algorithm>

#include "check/audit.hpp"
#include "obs/log.hpp"

namespace vs2::core {
namespace {

// The drift band (in cells) a cut path may wander from its origin row.
//
// The paper's valid k-hop movement allows ±1 drift per hop with no global
// bound; at a coarse occupancy-grid resolution an unbounded path can snake
// around *any* content via the page margins, making every row a "cut" and
// destroying the run/width semantics Algorithm 1 depends on. At the
// paper's raster resolution (300 dpi page images) glyph geometry prevents
// that; we recover the same behaviour by bounding the cumulative drift to
// a small band — wide enough to follow moderately rotated gap bands,
// narrow enough that a path cannot climb around a text line.
constexpr int kMaxDriftBand = 8;

// ------------------------------------------------------------- wavefront --

/// 64 whitespace bits of a packed step starting at signed bit offset
/// `start`: bit b of the result is the cell at position start + b, zero
/// (occupied) outside [0, 64·n_words). Tail bits inside the last word are
/// already zero by the grid's packing invariant.
inline uint64_t WsWindow(const uint64_t* step, size_t n_words, long start) {
  long wi = start >> 6;  // floor division, start may be negative
  int shift = static_cast<int>(start - (wi << 6));
  uint64_t lo =
      (wi >= 0 && wi < static_cast<long>(n_words)) ? step[wi] : 0;
  if (shift == 0) return lo;
  uint64_t hi = (wi + 1 >= 0 && wi + 1 < static_cast<long>(n_words))
                    ? step[wi + 1]
                    : 0;
  return (lo >> shift) | (hi << (64 - shift));
}

/// The bit-parallel wavefront (DESIGN.md §11). Origins are packed 64 per
/// word; `bits` is a packed whitespace bitset of `n_steps` consecutive
/// steps of `words_per_step` words each, where bit (o & 63) of word
/// `bits[s·words_per_step + (o >> 6)]` is the whitespace state of origin
/// lane `o` at sweep step `s`. For every group of 64 origins the banded
/// state cur[d] (d = drift offset, as in the scalar DP) holds one word —
/// bit b is "origin base+b has a live path at position base+b+d−drift" —
/// and one sweep over the steps advances all 64 origins at once:
///
///   cur'[d] = (cur[d-1] | cur[d] | cur[d+1]) & ws_window(step, base+d−drift)
///
/// Lanes never mix (no shifts between state words), so each origin's DP is
/// exactly the scalar banded DP (one restart per origin, the reference the
/// tests pin this against), evaluated 64 lanes per operation.
std::vector<bool> WavefrontCuts(const uint64_t* bits, size_t words_per_step,
                                int n_origins, int n_steps, int drift) {
  int band = 2 * drift + 1;
  std::vector<bool> cuts(static_cast<size_t>(n_origins), false);
  int n_groups = (n_origins + 63) / 64;
  std::vector<uint64_t> cur(static_cast<size_t>(band));
  std::vector<uint64_t> next(static_cast<size_t>(band));
  for (int g = 0; g < n_groups; ++g) {
    long base = 64L * g;
    std::fill(cur.begin(), cur.end(), 0);
    cur[static_cast<size_t>(drift)] = WsWindow(bits, words_per_step, base);
    uint64_t alive = cur[static_cast<size_t>(drift)];
    for (int s = 1; s < n_steps && alive; ++s) {
      const uint64_t* step = bits + static_cast<size_t>(s) * words_per_step;
      alive = 0;
      for (int d = 0; d < band; ++d) {
        uint64_t reach = cur[static_cast<size_t>(d)];
        if (d > 0) reach |= cur[static_cast<size_t>(d - 1)];
        if (d + 1 < band) reach |= cur[static_cast<size_t>(d + 1)];
        uint64_t v =
            reach ? reach & WsWindow(step, words_per_step, base + d - drift)
                  : 0;
        next[static_cast<size_t>(d)] = v;
        alive |= v;
      }
      cur.swap(next);
    }
    uint64_t any = 0;
    for (int d = 0; d < band; ++d) any |= cur[static_cast<size_t>(d)];
    for (int b = 0; b < 64 && base + b < n_origins; ++b) {
      if ((any >> b) & 1) cuts[static_cast<size_t>(base + b)] = true;
    }
  }
  return cuts;
}

// The analysis area in layout units: the content bounds plus one cell of
// padding, clipped to `region`. Page margins are whitespace freeways that
// would let drifting cut paths climb around any thin content line, making
// every coordinate a "cut" and merging all separator runs into one.
util::BBox ContentRegion(const std::vector<util::BBox>& element_boxes,
                         const util::BBox& region,
                         const raster::GridScale& scale) {
  if (region.Empty() || element_boxes.empty()) return util::BBox{};
  util::BBox content = util::UnionAll(element_boxes);
  double pad = scale.ToUnits(1);
  return util::Intersect(region, util::BBox{content.x - pad, content.y - pad,
                                            content.width + 2 * pad,
                                            content.height + 2 * pad});
}

}  // namespace

std::vector<bool> BandedHorizontalCuts(const raster::OccupancyGrid& grid,
                                       int drift) {
  // Origins are rows, the sweep runs over columns: the column-major packing
  // (bits along y, one packed column per step) is exactly the layout the
  // wavefront consumes.
  return WavefrontCuts(grid.ws_cols(), grid.words_per_col(), grid.height(),
                       grid.width(), drift);
}

std::vector<bool> BandedVerticalCuts(const raster::OccupancyGrid& grid,
                                     int drift) {
  // Origins are columns, the sweep runs over rows: row-major packing.
  return WavefrontCuts(grid.ws_rows(), grid.words_per_row(), grid.width(),
                       grid.height(), drift);
}

std::vector<bool> ValidHorizontalCuts(const raster::OccupancyGrid& grid) {
  return BandedHorizontalCuts(grid, kMaxDriftBand);
}

std::vector<bool> ValidVerticalCuts(const raster::OccupancyGrid& grid) {
  return BandedVerticalCuts(grid, kMaxDriftBand);
}

raster::CellRect AnalysisWindow(const std::vector<util::BBox>& element_boxes,
                                const util::BBox& region,
                                const raster::GridScale& scale) {
  return raster::BoxToCellRect(ContentRegion(element_boxes, region, scale),
                               scale);
}

int CutDrift(const std::vector<util::BBox>& element_boxes,
             const raster::GridScale& scale) {
  std::vector<double> heights;
  heights.reserve(element_boxes.size());
  for (const util::BBox& b : element_boxes) heights.push_back(b.height);
  std::nth_element(heights.begin(), heights.begin() + heights.size() / 2,
                   heights.end());
  // Wide enough to route around noise blobs, but capped so a path cannot
  // climb around a typical text line through the page margin — which would
  // turn every row into a "cut" and merge all separator runs.
  return std::clamp(scale.ToCellsFloor(heights[heights.size() / 2] * 0.6), 2,
                    kMaxDriftBand);
}

std::vector<SeparatorRun> FindSeparatorRuns(
    const std::vector<util::BBox>& element_boxes, const util::BBox& full_region,
    const raster::PageRaster& page, const std::vector<size_t>* element_ids) {
  std::vector<SeparatorRun> runs;
  const raster::GridScale& scale = page.scale();
  const util::BBox region = ContentRegion(element_boxes, full_region, scale);
  if (region.Empty()) return runs;
  // Snapped to the absolute page lattice: the crop places every box by the
  // same integer cell arithmetic at every recursion depth.
  const raster::CellRect window = raster::BoxToCellRect(region, scale);
  raster::OccupancyGrid grid = page.Crop(window, element_ids);

  // Audit checkpoint (DESIGN.md §12): the cut kernel trusts the packed
  // whitespace bitsets blindly (no per-word edge masks), so in audit mode
  // every cropped grid is validated for packing agreement and the zero-tail
  // invariant before it enters the kernel.
  if (check::AuditsEnabled()) {
    check::AuditReport grid_audit = check::AuditOccupancyGrid(grid);
    if (!grid_audit.ok()) {
      VS2_LOG(ERROR) << "occupancy grid audit failed in FindSeparatorRuns:\n"
                     << grid_audit.ToString();
      VS2_CHECK(grid_audit.ok()) << grid_audit.ToString();
    }
  }

  double max_elem_height = 1.0;
  for (const util::BBox& b : element_boxes) {
    max_elem_height = std::max(max_elem_height, b.height);
  }
  const int drift = CutDrift(element_boxes, scale);

  // Straight (drift-free) cuts: a row/column is straight-cut when every
  // cell along it is whitespace. Banded cuts decide run *existence*
  // (robust to rotation); straight cuts measure run *width* so that
  // drift-widened L-shaped passages do not masquerade as wide separators.
  auto straight_rows = [&grid]() {
    std::vector<bool> out(static_cast<size_t>(grid.height()), false);
    for (int y = 0; y < grid.height(); ++y) {
      out[static_cast<size_t>(y)] = grid.RowClear(y);
    }
    return out;
  }();
  auto straight_cols = [&grid]() {
    std::vector<bool> out(static_cast<size_t>(grid.width()), false);
    for (int x = 0; x < grid.width(); ++x) {
      out[static_cast<size_t>(x)] = grid.ColClear(x);
    }
    return out;
  }();

  auto emit_runs = [&](const std::vector<bool>& cuts, bool horizontal) {
    const std::vector<bool>& straight =
        horizontal ? straight_rows : straight_cols;
    size_t n = cuts.size();
    size_t i = 0;
    while (i < n) {
      if (!cuts[i]) {
        ++i;
        continue;
      }
      size_t j = i;
      while (j < n && cuts[j]) ++j;
      // Trim border runs: separators flush against the region edge are
      // margins, not content separators. A run spanning the *whole* region
      // (every coordinate a cut — content degenerate or invisible at this
      // grid resolution) separates nothing and is dropped for the same
      // reason, by the same test: it touches both edges.
      bool touches_start = (i == 0);
      bool touches_end = (j == n);
      if (!touches_start && !touches_end) {
        SeparatorRun run;
        run.horizontal = horizontal;
        double offset =
            scale.ToUnits(horizontal ? window.y0 : window.x0);
        run.start_units = offset + scale.ToUnits(static_cast<int>(i));
        size_t straight_cells = 0;
        for (size_t k = i; k < j; ++k) {
          if (straight[k]) ++straight_cells;
        }
        double banded_width = scale.ToUnits(static_cast<int>(j - i));
        run.width_units =
            straight_cells > 0
                ? scale.ToUnits(static_cast<int>(straight_cells))
                : banded_width * 0.35;  // fully rotated gap: discounted
        run.mid_units = offset + scale.ToUnits(static_cast<int>(i + j)) / 2.0;

        // Neighboring bbox: the element at minimum distance from the
        // separator band; among ties (distance < 1 unit apart) keep the
        // tallest.
        util::BBox band;
        if (horizontal) {
          band = util::BBox{region.x, run.start_units, region.width,
                            run.width_units};
        } else {
          band = util::BBox{run.start_units, region.y, run.width_units,
                            region.height};
        }
        double best_dist = 1e18;
        double best_height = 0.0;
        for (const util::BBox& b : element_boxes) {
          double d = util::BoxGap(band, b);
          if (d < best_dist - 1.0) {
            best_dist = d;
            best_height = b.height;
          } else if (d < best_dist + 1.0) {
            best_height = std::max(best_height, b.height);
            best_dist = std::min(best_dist, d);
          }
        }
        run.neighbor_max_height = best_height;
        run.scaled_width =
            run.width_units * best_height / max_elem_height;
        if (run.width_units >= scale.ToUnits(1)) {
          runs.push_back(run);
        }
      }
      i = j;
    }
  };

  emit_runs(BandedHorizontalCuts(grid, drift), /*horizontal=*/true);
  emit_runs(BandedVerticalCuts(grid, drift), /*horizontal=*/false);

  // Topological order (top-to-bottom, left-to-right) as Algorithm 1 expects.
  std::sort(runs.begin(), runs.end(),
            [](const SeparatorRun& a, const SeparatorRun& b) {
              if (a.horizontal != b.horizontal) return a.horizontal;
              return a.start_units < b.start_units;
            });
  return runs;
}

}  // namespace vs2::core

#ifndef VS2_TESTS_REFERENCE_CUTS_REFERENCE_HPP_
#define VS2_TESTS_REFERENCE_CUTS_REFERENCE_HPP_

/// \file cuts_reference.hpp
/// Straightforward reference implementations of the two optimized steps in
/// front of Algorithm 1 (DESIGN.md §11). The production code computes cuts
/// with a bit-parallel wavefront and crops per-node grids from one page
/// rasterization; these are the obvious versions the differential tests and
/// `bench_micro` compare it against. Test-only: nothing in `src/` links it.

#include <vector>

#include "raster/grid.hpp"
#include "util/geometry.hpp"

namespace vs2::reference {

/// \brief The scalar banded DP: cut[y] is true when a path of valid 1-hop
/// horizontal movements runs from column 0 to column w-1 staying within
/// `drift` rows of y. One DP restart per origin, O(h·w·band) byte
/// operations. Same contract as `core::BandedHorizontalCuts`.
std::vector<bool> ScalarHorizontalCuts(const raster::OccupancyGrid& grid,
                                       int drift);

/// The transpose of `ScalarHorizontalCuts`.
std::vector<bool> ScalarVerticalCuts(const raster::OccupancyGrid& grid,
                                     int drift);

/// \brief Fresh per-node rasterization: fills every box of `boxes` that
/// meets `window` (absolute page-lattice cells) into a grid of the window's
/// size, re-snapping each box to the lattice on every call.
raster::OccupancyGrid RasterizeWindow(const std::vector<util::BBox>& boxes,
                                      const raster::CellRect& window,
                                      const raster::GridScale& scale);

}  // namespace vs2::reference

#endif  // VS2_TESTS_REFERENCE_CUTS_REFERENCE_HPP_

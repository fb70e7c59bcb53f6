#include "reference/cuts_reference.hpp"

#include <algorithm>
#include <cstdint>

namespace vs2::reference {

std::vector<bool> ScalarHorizontalCuts(const raster::OccupancyGrid& grid,
                                       int drift) {
  int w = grid.width();
  int h = grid.height();
  int band = 2 * drift + 1;
  std::vector<bool> cuts(static_cast<size_t>(h), false);
  std::vector<uint8_t> cur(static_cast<size_t>(band));
  std::vector<uint8_t> next(static_cast<size_t>(band));
  for (int y0 = 0; y0 < h; ++y0) {
    if (!grid.IsWhitespace(0, y0)) continue;
    std::fill(cur.begin(), cur.end(), 0);
    cur[static_cast<size_t>(drift)] = 1;  // start at drift 0
    bool alive = true;
    for (int x = 1; x < w && alive; ++x) {
      alive = false;
      for (int d = 0; d < band; ++d) {
        bool ok = false;
        int y = y0 + d - drift;
        if (grid.IsWhitespace(x, y)) {
          ok = cur[static_cast<size_t>(d)] != 0;
          if (!ok && d > 0) ok = cur[static_cast<size_t>(d - 1)] != 0;
          if (!ok && d + 1 < band) ok = cur[static_cast<size_t>(d + 1)] != 0;
        }
        next[static_cast<size_t>(d)] = ok ? 1 : 0;
        alive = alive || ok;
      }
      std::swap(cur, next);
    }
    cuts[static_cast<size_t>(y0)] = alive;
  }
  return cuts;
}

std::vector<bool> ScalarVerticalCuts(const raster::OccupancyGrid& grid,
                                     int drift) {
  int w = grid.width();
  int h = grid.height();
  int band = 2 * drift + 1;
  std::vector<bool> cuts(static_cast<size_t>(w), false);
  std::vector<uint8_t> cur(static_cast<size_t>(band));
  std::vector<uint8_t> next(static_cast<size_t>(band));
  for (int x0 = 0; x0 < w; ++x0) {
    if (!grid.IsWhitespace(x0, 0)) continue;
    std::fill(cur.begin(), cur.end(), 0);
    cur[static_cast<size_t>(drift)] = 1;
    bool alive = true;
    for (int y = 1; y < h && alive; ++y) {
      alive = false;
      for (int d = 0; d < band; ++d) {
        bool ok = false;
        int x = x0 + d - drift;
        if (grid.IsWhitespace(x, y)) {
          ok = cur[static_cast<size_t>(d)] != 0;
          if (!ok && d > 0) ok = cur[static_cast<size_t>(d - 1)] != 0;
          if (!ok && d + 1 < band) ok = cur[static_cast<size_t>(d + 1)] != 0;
        }
        next[static_cast<size_t>(d)] = ok ? 1 : 0;
        alive = alive || ok;
      }
      std::swap(cur, next);
    }
    cuts[static_cast<size_t>(x0)] = alive;
  }
  return cuts;
}

raster::OccupancyGrid RasterizeWindow(const std::vector<util::BBox>& boxes,
                                      const raster::CellRect& window,
                                      const raster::GridScale& scale) {
  raster::OccupancyGrid grid(window.width(), window.height());
  for (const util::BBox& b : boxes) {
    raster::CellRect clipped =
        raster::IntersectCells(raster::BoxToCellRect(b, scale), window);
    if (clipped.Empty()) continue;
    grid.FillCellRect(raster::CellRect{
        clipped.x0 - window.x0, clipped.y0 - window.y0,
        clipped.x1 - window.x0, clipped.y1 - window.y0});
  }
  return grid;
}

}  // namespace vs2::reference

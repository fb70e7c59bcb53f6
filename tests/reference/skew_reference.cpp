#include "reference/skew_reference.hpp"

#include <cmath>
#include <vector>

#include "util/math.hpp"

namespace vs2::reference {

double AllPairsSkewDegrees(const doc::Document& doc) {
  std::vector<double> angles;
  for (size_t i = 0; i < doc.elements.size(); ++i) {
    const doc::AtomicElement& a = doc.elements[i];
    if (!a.is_text()) continue;
    // Nearest element to the right on (roughly) the same line.
    double best_dx = 1e18;
    double best_angle = 0.0;
    for (size_t j = 0; j < doc.elements.size(); ++j) {
      if (i == j || !doc.elements[j].is_text()) continue;
      const doc::AtomicElement& b = doc.elements[j];
      double dx = b.bbox.x - a.bbox.right();
      double dy = b.bbox.Centroid().y - a.bbox.Centroid().y;
      if (dx <= 0.0 || dx > a.bbox.height * 3.0) continue;
      if (std::abs(dy) > a.bbox.height * 1.2) continue;
      if (dx < best_dx) {
        best_dx = dx;
        best_angle = std::atan2(dy, b.bbox.Centroid().x -
                                        a.bbox.Centroid().x) *
                     180.0 / M_PI;
      }
    }
    if (best_dx < 1e17) angles.push_back(best_angle);
  }
  if (angles.size() < 4) return 0.0;
  return util::Median(angles);
}

}  // namespace vs2::reference

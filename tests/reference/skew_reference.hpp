#ifndef VS2_TESTS_REFERENCE_SKEW_REFERENCE_HPP_
#define VS2_TESTS_REFERENCE_SKEW_REFERENCE_HPP_

/// \file skew_reference.hpp
/// The all-pairs form of `ocr::EstimateSkewDegrees`: every text element
/// compared with every other. Test-only; the differential
/// test in `embed_ocr_datasets_test` pins the production sweep to it bit
/// for bit.

#include "doc/document.hpp"

namespace vs2::reference {

/// Median nearest-right-neighbour angle (degrees) by an O(n²) scan; among
/// equal gaps the lowest element index wins. Same contract as
/// `ocr::EstimateSkewDegrees`.
double AllPairsSkewDegrees(const doc::Document& doc);

}  // namespace vs2::reference

#endif  // VS2_TESTS_REFERENCE_SKEW_REFERENCE_HPP_

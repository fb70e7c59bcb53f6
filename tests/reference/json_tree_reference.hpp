#ifndef VS2_TESTS_REFERENCE_JSON_TREE_REFERENCE_HPP_
#define VS2_TESTS_REFERENCE_JSON_TREE_REFERENCE_HPP_

/// \file json_tree_reference.hpp
/// The document JSON codec as it was before the tape reader
/// (util/json.hpp) and the `to_chars` writer: a recursive-descent parser
/// that builds a `std::map`/`shared_ptr` value tree, and a writer that
/// formats every field with `snprintf`. Test-only; the differential test
/// in `doc_raster_test` pins the production codec to it.
///
/// Two deliberate differences remain, both in the grammar: this parser
/// takes any token of `[0-9+-.eE]` that `strtod` reads whole (`+612`,
/// `0612`, `.5`, `5.`) and skips `isspace` whitespace (`\v`, `\f`), where
/// the production reader follows RFC 8259.

#include <string>

#include "doc/document.hpp"
#include "util/status.hpp"

namespace vs2::reference {

/// The value-tree parser plus the schema decoding `doc::FromJson` applies.
Result<doc::Document> TreeFromJson(const std::string& json);

/// The canonical number spelling through `snprintf`: `%.0f` for integers
/// below 1e15, and for values whose `%.6g` spelling names an integer;
/// `%.6g` otherwise.
std::string SnprintfNumber(double v);

/// The canonical document spelling through `snprintf`, field by field.
std::string SnprintfToJson(const doc::Document& d);

}  // namespace vs2::reference

#endif  // VS2_TESTS_REFERENCE_JSON_TREE_REFERENCE_HPP_

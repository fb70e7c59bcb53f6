// Fuzz harness for the document JSON boundary (`doc::FromJson`).
//
// Feeds arbitrary bytes to the parser and checks two invariants on every
// document it accepts: the canonical spelling (`doc::ToJson`) parses again,
// and it is a fixed point — spelling the re-parsed document gives the same
// bytes, which is what lets a worker verify the fleet router's canonical
// lines (DESIGN.md §15.1). Pinned inputs for the fixed point are values
// whose `%.6g` spelling re-reads as another number (fixed-point-*.json);
// grammar-*.json pin number spellings RFC 8259 forbids. Historic findings
// now pinned in
// fuzz/corpus/fuzz_doc_json/: stack overflow on deep `[[[[...` nesting,
// ill-formed UTF-8 and raw control characters flowing into element text,
// CESU-8 surrogate encodings, and float→int casts of out-of-range field
// values (undefined behavior caught under UBSan).

#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <string>

#include "doc/serialization.hpp"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);
  vs2::Result<vs2::doc::Document> parsed = vs2::doc::FromJson(input);
  if (!parsed.ok()) return 0;  // rejection is the expected common case

  std::string json = vs2::doc::ToJson(*parsed);
  vs2::Result<vs2::doc::Document> reparsed = vs2::doc::FromJson(json);
  if (!reparsed.ok()) {
    std::fprintf(stderr,
                 "round-trip failure: accepted document re-serialized into "
                 "rejected JSON: %s\n",
                 reparsed.status().ToString().c_str());
    std::abort();
  }
  if (vs2::doc::ToJson(*reparsed) != json) {
    std::fprintf(stderr,
                 "canonical spelling is not a fixed point: \"%s\" re-spells "
                 "differently\n",
                 json.c_str());
    std::abort();
  }
  return 0;
}

// Fuzz harness for the daemon's newline-delimited wire protocol.
//
// Treats the input as a client byte stream, splits it on '\n' exactly like
// `Daemon::ServeConnection`, and pushes every line through
// `Daemon::HandleLine` — JSON parse, admission, full pipeline, response
// serialization. Invariants checked per response:
//   - exactly one line comes back (an embedded newline would break framing
//     for every later response on the connection);
//   - the response is itself one of the two documented shapes (an
//     "extractions" object or an "error" object), possibly behind the
//     `trace_id` echo;
//   - a document line that was served answers exactly the same when its
//     canonical spelling is sent as the fleet router sends it,
//     `{"canonical":<doc::ToJson>}` — the cache-hit path, which must
//     accept the router's bytes and never parse them (DESIGN.md §15.1).
// seed-canonical-*.txt pin marked lines, canonical and not.
//
// The pipeline/service pair is built once; per-input cost is dominated by
// parser rejections, which is the overwhelmingly common fuzz case.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.hpp"
#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"

namespace {

vs2::serve::Daemon& SharedDaemon() {
  // Leaked on purpose: fuzzing processes exit hard, destructor order with
  // a live thread pool is not worth reasoning about here.
  static vs2::serve::Daemon* daemon = [] {
    auto* pipeline = new vs2::core::Vs2(
        vs2::doc::DatasetId::kD2EventPosters,
        vs2::datasets::PretrainedEmbedding(),
        vs2::core::DefaultConfigFor(vs2::doc::DatasetId::kD2EventPosters));
    vs2::serve::ServiceOptions options;
    options.jobs = 1;
    options.cache_entries = 64;
    options.default_deadline_ms = 0;  // no wall-clock flakiness under fuzz
    auto* service = new vs2::serve::ExtractionService(*pipeline, options);
    return new vs2::serve::Daemon(*service, vs2::serve::DaemonOptions{});
  }();
  return *daemon;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  vs2::serve::Daemon& daemon = SharedDaemon();
  std::string stream(reinterpret_cast<const char*>(data), size);

  size_t start = 0;
  while (start <= stream.size()) {
    size_t nl = stream.find('\n', start);
    std::string line = stream.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    start = nl == std::string::npos ? stream.size() + 1 : nl + 1;
    if (line.empty()) continue;  // daemon tolerates blank keep-alive lines

    std::string response = daemon.HandleLine(line);
    if (response.empty() || response.find('\n') != std::string::npos) {
      std::fprintf(stderr, "response breaks line framing: \"%s\"\n",
                   response.c_str());
      std::abort();
    }
    // The trace echo leads with its own fields, then the payload's.
    std::string payload = response;
    if (response.rfind("{\"trace_id\":", 0) == 0) {
      size_t end = response.find("],");
      if (end != std::string::npos) payload = "{" + response.substr(end + 2);
    }
    bool ok_shape = payload.rfind("{\"extractions\":", 0) == 0;
    bool err_shape = payload.rfind("{\"error\":", 0) == 0;
    if (!ok_shape && !err_shape) {
      std::fprintf(stderr, "response has unknown shape: \"%s\"\n",
                   response.c_str());
      std::abort();
    }

    if (response.rfind("{\"extractions\":", 0) != 0) continue;
    vs2::Result<vs2::doc::Document> document = vs2::doc::FromJson(line);
    if (!document.ok()) continue;  // a served canonical line itself
    std::string marked =
        "{\"canonical\":" + vs2::doc::ToJson(*document) + "}";
    std::string again = daemon.HandleLine(marked);
    if (again != response) {
      std::fprintf(stderr,
                   "canonical line answers differently: \"%s\" vs \"%s\"\n",
                   again.c_str(), response.c_str());
      std::abort();
    }
  }
  return 0;
}

/// \file batch_mixed.cpp
/// `batch-mixed`: one thread calling `Vs2::Process` in-process on a mixed
/// corpus of D1 forms, D2 posters, D3 flyers and ~10% near-blank pages,
/// shuffled by the seed; each document goes to its own dataset's pipeline.
/// No JSON, socket or cache: every lane and pipeline stage runs, and
/// serving changes must show nothing here.
///
/// The timed closed loop is one pass over the corpus; it scores `f1` and
/// fixes every document's output, which every other request for that
/// document must reproduce. The open-loop phases feed the same single
/// thread at fixed arrival rates.
///
/// Traced run: every corpus document through `Process` and through the
/// stage-by-stage replay (outputs compared byte for byte), giving the
/// pipeline layer breakdown and `core.unattributed_frac`, then the high
/// rate for the load-generator figures. Serving layers are bypassed and
/// read zero.

#include <cstdio>
#include <memory>

#include "datasets/pretrained.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace vs2::benchmark {
namespace {

constexpr doc::DatasetId kDatasets[] = {doc::DatasetId::kD1TaxForms,
                                        doc::DatasetId::kD2EventPosters,
                                        doc::DatasetId::kD3RealEstateFlyers};

/// One corpus document and the index of the pipeline that serves it.
struct Item {
  doc::Document document;
  size_t pipeline = 0;
};

struct BatchSystem {
  std::vector<Item> corpus;
  std::vector<std::unique_ptr<core::Vs2>> pipelines;  ///< by kDatasets
};

/// A corpus of exactly `total` documents: 30% from each generator, the
/// rest (~10%) near-blank pages.
std::unique_ptr<BatchSystem> SetUp(uint64_t seed, size_t total) {
  auto system = std::make_unique<BatchSystem>();
  size_t per_dataset = total * 3 / 10;
  uint64_t next_id = 0;
  for (size_t d = 0; d < 3; ++d) {
    for (doc::Document& document :
         GenerateSafe(kDatasets[d], per_dataset, seed * 31 + d + 1, &next_id)) {
      system->corpus.push_back({std::move(document), d});
    }
    system->pipelines.push_back(std::make_unique<core::Vs2>(
        kDatasets[d], datasets::PretrainedEmbedding(),
        WorkloadConfig(kDatasets[d])));
  }
  for (doc::Document& page : BlankPages(total - 3 * per_dataset, 0xB1A4C000)) {
    system->corpus.push_back({std::move(page), 0});
  }
  util::Rng rng(seed ^ 0x5EEDBA7C4ull);
  rng.Shuffle(&system->corpus);
  return system;
}

/// The part of a `Process` result the checks read, moved out of the timed
/// call so fingerprinting and scoring happen after the phases.
struct Output {
  bool ok = false;
  triage::Lane lane = triage::Lane::kFull;
  size_t leaves = 0;
  size_t interest_points = 0;
  std::vector<core::Extraction> extractions;
};

Output Keep(Result<core::Vs2::DocResult> result) {
  Output out;
  if (!result.ok()) return out;
  out.ok = true;
  out.lane = result->triage.lane;
  out.leaves = result->tree.Leaves().size();
  out.interest_points = result->interest_points.size();
  out.extractions = std::move(result->extractions);
  return out;
}

/// Byte-exact rendering of an output; hex floats expose any bit change.
std::string Fingerprint(const Output& out) {
  if (!out.ok) return "error";
  std::string fp = triage::LaneName(out.lane);
  fp += util::Format("|%zu|%zu\n", out.leaves, out.interest_points);
  for (const core::Extraction& ex : out.extractions) {
    fp += util::Format("%s|%s|%a,%a,%a,%a|%a,%a,%a,%a|%a\n", ex.entity.c_str(),
                       ex.text.c_str(), ex.match_bbox.x, ex.match_bbox.y,
                       ex.match_bbox.width, ex.match_bbox.height,
                       ex.block_bbox.x, ex.block_bbox.y, ex.block_bbox.width,
                       ex.block_bbox.height, ex.score);
  }
  return fp;
}

}  // namespace

RunResult RunBatchMixed(const RunOptions& options) {
  RatePlan plan;
  PlanFor("batch-mixed", &plan);
  RunResult out;
  // One corpus pass is the closed loop, sized to its share of the run.
  const size_t corpus_size = ClosedLoopCap(plan, options.seconds);

  HostProbe probe;
  std::unique_ptr<BatchSystem> system;
  std::vector<double> setup_times;
  SetupTiming setup;
  setup.begin_sec = NowSec();
  {
    // Set-up is single-threaded: each repeat runs on the next CPU, so the
    // median is the machine's and not one core's (see CpuRotation).
    CpuRotation rotation(true, 1);
    for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
      rotation.Next();
      system.reset();
      double t0 = NowSec();
      system = SetUp(options.seed, corpus_size);
      setup_times.push_back(NowSec() - t0);
    }
  }
  setup.end_sec = NowSec();
  setup.median_s = MedianSetup(setup_times);
  const std::vector<Item>& corpus = system->corpus;
  const size_t n = corpus.size();
  std::printf("batch-mixed: %zu documents, setup %.3f s\n", n, setup.median_s);

  Schedules schedules = MakeSchedules(plan, options.seed, options.seconds);
  auto process = [&](size_t seq) -> Result<core::Vs2::DocResult> {
    const Item& item = corpus[seq % n];
    return system->pipelines[item.pipeline]->Process(item.document);
  };
  size_t mismatches = 0;

  if (!options.trace) {
    // Slot `seq` keeps request `seq`'s output; every request after the
    // first pass must reproduce the first pass's output for its document.
    std::vector<Output> outputs(WarmupCap(plan, options.seconds) + n +
                                schedules.TotalRequests());
    PhasePlanResult phases =
        RunPhases(plan, schedules, options.seconds, [&](size_t, size_t seq) {
          outputs[seq] = Keep(process(seq));
          return outputs[seq].ok;
        });
    probe.Stop();
    // The timed closed loop is one pass over the corpus: it scores F1 and
    // fixes each document's reference output.
    const size_t pass_begin = phases.warmup.sent();
    std::vector<std::string> reference(n);
    eval::PrCounts total;
    for (size_t seq = pass_begin; seq < pass_begin + n; ++seq) {
      reference[seq % n] = Fingerprint(outputs[seq]);
      total.Add(ScoreExtractions(outputs[seq].extractions,
                                 corpus[seq % n].document));
    }
    for (size_t seq = 0; seq < phases.TotalSent(); ++seq) {
      if (seq >= pass_begin && seq < pass_begin + n) continue;
      if (!outputs[seq].ok) continue;  // already counted as failed
      if (Fingerprint(outputs[seq]) != reference[seq % n]) {
        ++mismatches;
        phases.MarkFailed(seq);
      }
    }
    AddEndToEndMetrics(plan, phases, setup, total.F1(), probe, &out);
    if (mismatches > 0) {
      std::printf("batch-mixed: %zu outputs differ from the first pass\n",
                  mismatches);
    }
    return out;
  }

  // ---- traced run -------------------------------------------------------
  // Each document runs through `Process` and through the stage calls,
  // alternating which goes first so neither profits from a warmer cache.
  LayerReport report;
  std::vector<double> process_ms(n), stage_ms(n);
  for (size_t i = 0; i < n; ++i) {
    const Item& item = corpus[i];
    const core::Vs2& vs2 = *system->pipelines[item.pipeline];
    std::string expected;
    Output staged;
    for (int pass = 0; pass < 2; ++pass) {
      double t0 = NowSec();
      if ((pass + i) % 2 == 0) {
        Result<core::Vs2::DocResult> result = vs2.Process(item.document);
        process_ms[i] = (NowSec() - t0) * 1e3;
        expected = Fingerprint(Keep(std::move(result)));
      } else {
        Result<core::Vs2::DocResult> result =
            ProcessByStage(vs2, item.document, &report.stages);
        stage_ms[i] = (NowSec() - t0) * 1e3;
        staged = Keep(std::move(result));
      }
    }
    report.process_ms += process_ms[i];
    if (!staged.ok || Fingerprint(staged) != expected) {
      ++mismatches;
      continue;
    }
    report.f1[item.pipeline].Add(
        ScoreExtractions(staged.extractions, item.document));
  }
  PhaseResult high =
      RunOpenLoop(schedules.due_sec[1], plan.load,
                  [&](size_t, size_t seq) { return process(seq).ok(); });
  report.late_ms_p99 = Pct(high.generator_late_ms, 0.99);
  report.achieved_rps = high.AchievedRps();
  report.overhead_frac = Pct(stage_ms, 0.5) / Pct(process_ms, 0.5) - 1.0;
  probe.Stop();
  report.host_kernel_ms = probe.MedianMs(0.0, NowSec());

  out.attempted = 2 * n + high.sent();
  out.failed = mismatches + high.failed();
  out.correct = out.failed == 0;
  std::printf(
      "stage replay: %zu/%zu documents reproduce Process byte for byte\n",
      n - mismatches, n);
  AddLayerMetrics(report, &out.metrics);
  return out;
}

}  // namespace vs2::benchmark

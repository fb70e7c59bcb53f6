#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <thread>

#include <sys/resource.h>
#include <time.h>

#include "datasets/pretrained.hpp"
#include "doc/serialization.hpp"
#include "obs/metrics.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

namespace vs2::benchmark {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Pct(const std::vector<double>& values, double p) {
  return obs::Percentile(values, p);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

CpuRotation::CpuRotation(bool enabled, size_t per_cpu)
    : enabled_(enabled), per_cpu_(per_cpu) {
  if (!enabled_) return;
  pthread_getaffinity_np(pthread_self(), sizeof(allowed_), &allowed_);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (enabled_) {
    pthread_setaffinity_np(pthread_self(), sizeof(allowed_), &allowed_);
  }
}

void CpuRotation::Next() {
  if (!enabled_ || cpus_.empty() || served_++ % per_cpu_ != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[(served_ / per_cpu_) % cpus_.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

namespace {

/// Pause between two kernel runs of the probe.
constexpr auto kProbeInterval = std::chrono::milliseconds(20);

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The calibration kernel's input: 240 JSON-like records from a fixed
/// xorshift stream, the same in every build and run.
std::string KernelText() {
  std::string text = "[";
  uint64_t x = 0x243F6A8885A308D3ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 240; ++i) {
    text += "{\"text\":\"";
    for (uint64_t k = 0, len = 2 + next() % 12; k < len; ++k) {
      text += static_cast<char>('a' + next() % 26);
    }
    text += util::Format("\",\"bbox\":[%llu,%llu,%llu,%llu]},",
                         static_cast<unsigned long long>(next() % 612),
                         static_cast<unsigned long long>(next() % 792),
                         static_cast<unsigned long long>(next() % 200),
                         static_cast<unsigned long long>(next() % 40));
  }
  text += "]";
  return text;
}

/// Splits `text` into tokens, hashes each into an open-addressing table
/// and sorts the tokens: branchy, cache-bound work like parsing a request,
/// done in buffers sized once so it never touches the allocator.
uint64_t RunKernel(std::string_view text,
                   std::vector<std::string_view>* tokens,
                   std::vector<uint64_t>* table) {
  tokens->clear();
  for (size_t i = 0; i < text.size();) {
    size_t j = text.find_first_of(",:{}[]\"", i);
    if (j == std::string_view::npos) j = text.size();
    if (j > i) tokens->push_back(text.substr(i, j - i));
    i = j + 1;
  }
  std::fill(table->begin(), table->end(), 0);
  const size_t mask = table->size() - 1;
  uint64_t acc = 0;
  for (std::string_view token : *tokens) {
    uint64_t h = 1469598103934665603ull;
    for (char c : token) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h |= 1;
    size_t slot = h & mask;
    while ((*table)[slot] != 0 && (*table)[slot] != h) slot = (slot + 1) & mask;
    (*table)[slot] = h;
    acc += slot;
  }
  std::sort(tokens->begin(), tokens->end());
  return acc + (*tokens)[tokens->size() / 2].size();
}

}  // namespace

HostProbe::HostProbe() : thread_([this] { Loop(); }) {}

HostProbe::~HostProbe() { Stop(); }

void HostProbe::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void HostProbe::Loop() {
  const std::string text = KernelText();
  std::vector<std::string_view> tokens;
  tokens.reserve(text.size());
  std::vector<uint64_t> table(1 << 12);
  volatile uint64_t sink = RunKernel(text, &tokens, &table);  // warm-up
  samples_.reserve(1 << 14);
  while (!stop_.load()) {
    double start = NowSec();
    double c0 = ThreadCpuMs();
    sink = sink + RunKernel(text, &tokens, &table);
    samples_.push_back({start, ThreadCpuMs() - c0});
    std::this_thread::sleep_for(kProbeInterval);
  }
}

double HostProbe::MedianMs(double from_sec, double to_sec) const {
  std::vector<double> in_span, all;
  for (const Sample& s : samples_) {
    all.push_back(s.cpu_ms);
    if (s.start_sec >= from_sec && s.start_sec < to_sec) {
      in_span.push_back(s.cpu_ms);
    }
  }
  return Pct(in_span.size() >= kMinSamples ? in_span : all, 0.5);
}

double HostProbe::Slowness(double from_sec, double to_sec) const {
  return MedianMs(from_sec, to_sec) / kNominalKernelMs;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no infinity: a percentile over failed requests is reported
  // as a huge finite latency instead.
  if (!std::isfinite(value)) value = value < 0.0 ? -1e12 : 1e12;
  entries_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += util::Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        entries_[i].name.c_str(), entries_[i].value,
                        entries_[i].unit.c_str());
  }
  out += "}";
  return out;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Keeps the stamp valid JSON whatever the platform strings contain.
std::string JsonSafe(std::string text) {
  for (char& c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      c = ' ';
    }
  }
  return text;
}

}  // namespace

void PrintStamp(const RunOptions& options) {
  std::printf(
      "stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"commit\":\"%s\",\"cpu\":\"%s\",\"nproc\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"simd\":\"%s\"}\n",
      JsonSafe(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, JsonSafe(options.commit).c_str(),
      JsonSafe(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      VS2_BENCH_COMPILER, VS2_BENCH_BUILD_TYPE,
      util::simd::LevelName(util::simd::ActiveLevel()));
  std::fflush(stdout);
}

core::PipelineConfig WorkloadConfig(doc::DatasetId dataset) {
  core::PipelineConfig config = core::DefaultConfigFor(dataset);
  config.triage.mode = triage::TriageMode::kAuto;
  return config;
}

std::string ExpectedResponse(const core::Vs2::DocResult& result) {
  return util::Format("{\"lane\":\"%s\",",
                      triage::LaneName(result.triage.lane)) +
         doc::ExtractionsToJson(result).substr(1);
}

eval::PrCounts ScoreExtractions(
    const std::vector<core::Extraction>& extractions,
    const doc::Document& truth) {
  std::vector<eval::LabeledPrediction> predictions;
  predictions.reserve(extractions.size());
  for (const core::Extraction& ex : extractions) {
    predictions.push_back({ex.entity, ex.block_bbox, ex.text, ex.match_bbox});
  }
  return eval::ScoreEndToEnd(predictions, truth);
}

namespace {

bool HasLongDigitRun(const doc::Document& observed) {
  for (const doc::AtomicElement& el : observed.elements) {
    int run = 0;
    for (char c : el.text) {
      run = (c >= '0' && c <= '9') ? run + 1 : 0;
      if (run >= 10) return true;
    }
  }
  return false;
}

}  // namespace

std::vector<doc::Document> GenerateSafe(doc::DatasetId dataset, size_t count,
                                        uint64_t seed, uint64_t* next_id) {
  const core::PipelineConfig config = WorkloadConfig(dataset);
  std::vector<doc::Document> out;
  for (uint64_t round = 0; out.size() < count; ++round) {
    datasets::GeneratorConfig generator;
    generator.num_documents = count - out.size();
    generator.seed = seed * 7919 + round;
    for (doc::Document& d : datasets::Generate(dataset, generator).documents) {
      d.id = (*next_id)++;
      if (!HasLongDigitRun(ocr::Transcribe(d, config.ocr))) {
        out.push_back(std::move(d));
      }
    }
  }
  return out;
}

std::vector<doc::Document> BlankPages(size_t count, uint64_t first_id) {
  std::vector<doc::Document> pages;
  pages.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    doc::Document d;
    d.id = first_id + i;
    d.dataset = doc::DatasetId::kD1TaxForms;
    d.width = 612.0;
    d.height = 792.0;
    if (i % 2 == 1) {
      doc::AtomicElement el;
      el.kind = doc::ElementKind::kText;
      el.text = util::Format("%zu", i);
      el.bbox = {290.0, 760.0, 20.0, 12.0};
      d.elements.push_back(el);
    }
    pages.push_back(std::move(d));
  }
  return pages;
}

namespace {

struct PipelineCounters {
  obs::Counter& cuts = obs::Metrics::GetCounter("segment.cuts_kept");
  obs::Counter& cluster_calls =
      obs::Metrics::GetCounter("segment.cluster_calls");
  obs::Counter& merges = obs::Metrics::GetCounter("segment.merges_accepted");
  obs::Counter& matches = obs::Metrics::GetCounter("select.patterns_matched");
  obs::Counter& extractions = obs::Metrics::GetCounter("select.extractions");
};

PipelineCounters& Counters() {
  static PipelineCounters counters;
  return counters;
}

}  // namespace

Result<core::Vs2::DocResult> ProcessByStage(const core::Vs2& vs2,
                                            const doc::Document& doc,
                                            StageTotals* totals) {
  const core::PipelineConfig& config = vs2.config();
  const embed::Embedding& embedding = datasets::PretrainedEmbedding();
  PipelineCounters& counters = Counters();
  core::Vs2::DocResult result;
  totals->docs += 1;

  double t0 = NowSec();
  result.triage = triage::Classify(doc, config.triage);
  double t1 = NowSec();
  totals->classify_us += (t1 - t0) * 1e6;
  const triage::Lane lane = result.triage.lane;
  totals->lanes[static_cast<size_t>(lane)] += 1;

  result.observed =
      config.simulate_ocr ? ocr::Transcribe(doc, config.ocr) : doc;
  double t2 = NowSec();
  totals->transcribe_us += (t2 - t1) * 1e6;
  totals->stages_ms += (t2 - t0) * 1e3;
  if (lane == triage::Lane::kSkip) {
    double s0 = NowSec();
    result.tree = doc::LayoutTree::ForDocument(result.observed);
    totals->stages_ms += (NowSec() - s0) * 1e3;
    return result;
  }

  double s0 = NowSec();
  if (lane == triage::Lane::kFast) {
    result.tree = triage::XYCutLayoutTree(result.observed, config.triage.xycut);
    double s1 = NowSec();
    totals->xycut_ms += (s1 - s0) * 1e3;
    totals->stages_ms += (s1 - s0) * 1e3;
  } else {
    uint64_t cuts = counters.cuts.value();
    uint64_t clusters = counters.cluster_calls.value();
    uint64_t merges = counters.merges.value();
    Result<doc::LayoutTree> tree =
        core::Segment(result.observed, embedding, config.segmenter);
    double s1 = NowSec();
    totals->segment_ms += (s1 - s0) * 1e3;
    totals->stages_ms += (s1 - s0) * 1e3;
    totals->cuts += counters.cuts.value() - cuts;
    totals->cluster_calls += counters.cluster_calls.value() - clusters;
    totals->merges += counters.merges.value() - merges;
    if (!tree.ok()) return tree.status();
    result.tree = *std::move(tree);
  }

  double i0 = NowSec();
  result.interest_points =
      core::SelectInterestPoints(result.observed, result.tree, embedding);
  double i1 = NowSec();
  totals->interest_points_ms += (i1 - i0) * 1e3;

  core::SelectConfig select = config.select;
  // The FAST lane's descriptor-indexed search, as `Vs2::Process` sets it.
  if (lane == triage::Lane::kFast) select.descriptor_index = true;
  uint64_t matches = counters.matches.value();
  uint64_t extractions = counters.extractions.value();
  result.extractions =
      core::SelectEntities(result.observed, result.tree, vs2.pattern_book(),
                           vs2.entity_specs(), embedding, select);
  double i2 = NowSec();
  totals->select_ms[static_cast<size_t>(lane)] += (i2 - i1) * 1e3;
  totals->stages_ms += (i2 - i0) * 1e3;
  totals->matches += counters.matches.value() - matches;
  totals->extractions += counters.extractions.value() - extractions;
  return result;
}

void AddLayerMetrics(const LayerReport& r, MetricSet* metrics) {
  auto per = [](double total, size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const StageTotals& t = r.stages;
  size_t fast = t.lanes[1], full = t.lanes[2];
  size_t segmented = fast + full;
  MetricSet& m = *metrics;
  m.Add("triage.classify_us_mean", per(t.classify_us, t.docs), "us");
  m.Add("triage.lane_frac.skip", per(t.lanes[0], t.docs), "frac");
  m.Add("triage.lane_frac.fast", per(fast, t.docs), "frac");
  m.Add("triage.lane_frac.full", per(full, t.docs), "frac");
  m.Add("triage.xycut_ms_mean", per(t.xycut_ms, fast), "ms");
  m.Add("ocr.transcribe_us_mean", per(t.transcribe_us, t.docs), "us");
  m.Add("core.segment_ms_mean", per(t.segment_ms, full), "ms");
  m.Add("core.segment.cuts_per_doc", per(t.cuts, full), "count");
  m.Add("core.segment.cluster_calls_per_doc", per(t.cluster_calls, full),
        "count");
  m.Add("core.segment.merges_per_doc", per(t.merges, full), "count");
  m.Add("core.interest_points_ms_mean", per(t.interest_points_ms, segmented),
        "ms");
  m.Add("core.select_ms_mean.full", per(t.select_ms[2], full), "ms");
  m.Add("core.select_ms_mean.fast", per(t.select_ms[1], fast), "ms");
  m.Add("core.select.matches_per_doc", per(t.matches, segmented), "count");
  m.Add("core.select.useful_frac", per(t.extractions, t.matches), "frac");
  m.Add("core.unattributed_frac",
        r.process_ms > 0.0 ? (r.process_ms - t.stages_ms) / r.process_ms : 0.0,
        "frac");
  m.Add("eval.f1.d1", r.f1[0].F1(), "frac");
  m.Add("eval.f1.d2", r.f1[1].F1(), "frac");
  m.Add("eval.f1.d3", r.f1[2].F1(), "frac");
  m.Add("doc.from_json_us_mean", r.from_json_us, "us");
  m.Add("doc.extractions_to_json_us_mean", r.to_json_us, "us");
  m.Add("doc.request_kb_mean", r.request_kb, "KB");
  m.Add("serve.content_address_us_mean", r.content_address_us, "us");
  m.Add("serve.cache.hit_frac", r.cache_hit_frac, "frac");
  m.Add("serve.cache.evict_per_req", r.cache_evict_per_req, "count");
  m.Add("serve.worker_ms_p50", r.worker_ms_p50, "ms");
  m.Add("serve.worker_ms_p99", r.worker_ms_p99, "ms");
  m.Add("serve.worker_ms_mean", r.worker_ms_mean, "ms");
  m.Add("serve.pipeline_ms_p50", r.pipeline_ms_p50, "ms");
  m.Add("serve.cache_lookup_ms_p50", r.cache_lookup_ms_p50, "ms");
  m.Add("serve.queue_wait_ms_p50", r.queue_wait_ms_p50, "ms");
  m.Add("serve.queue_wait_ms_p99", r.queue_wait_ms_p99, "ms");
  m.Add("fleet.round_trip_ms_mean", r.round_trip_ms_mean, "ms");
  m.Add("fleet.hop_ms_p50", r.hop_ms_p50, "ms");
  m.Add("fleet.router_parse_us_mean", r.router_parse_us, "us");
  m.Add("fleet.transport_ms_mean", r.transport_ms_mean, "ms");
  m.Add("fleet.shed_frac", r.shed_frac, "frac");
  m.Add("fleet.reroute_frac", r.reroute_frac, "frac");
  m.Add("loadgen.late_ms_p99", r.late_ms_p99, "ms");
  m.Add("loadgen.achieved_rps", r.achieved_rps, "1/s");
  m.Add("trace.overhead_frac", r.overhead_frac, "frac");
  m.Add("host.kernel_ms", r.host_kernel_ms, "ms");
}

}  // namespace vs2::benchmark

/// \file main.cpp
/// `vs2_benchmark`: runs one workload and prints, as its last stdout line,
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
///
///   vs2_benchmark --workload batch-mixed|fleet-hot|fleet-cold --seed N
///                 --seconds S --trace 0|1 [--commit SHA]
///   vs2_benchmark --print-schedule --workload W --seed N --seconds S
///
/// `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
/// breakdown. `--print-schedule` prints the open-loop schedule a run would
/// send (rates, request counts and a digest of the due times) and exits.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

using namespace vs2::benchmark;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vs2_benchmark --workload batch-mixed|fleet-hot|"
               "fleet-cold --seed N --seconds S --trace 0|1 [--commit SHA]\n"
               "       vs2_benchmark --print-schedule --workload W --seed N "
               "--seconds S\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

int PrintSchedule(const RunOptions& options, const RatePlan& plan) {
  Schedules schedules = MakeSchedules(plan, options.seed, options.seconds);
  for (size_t k = 0; k < schedules.due_sec.size(); ++k) {
    std::string due;
    for (double t : schedules.due_sec[k]) due += vs2::util::Format("%a,", t);
    std::printf("%s requests=%zu digest=%016llx\n", schedules.names[k].c_str(),
                schedules.due_sec[k].size(),
                static_cast<unsigned long long>(vs2::util::Fnv1a64(due)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool print_schedule = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print-schedule") {
      print_schedule = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseUint(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (arg == "--seconds" && ParseUint(value, &number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (arg == "--trace" && ParseUint(value, &number) && number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else if (arg == "--commit") {
      options.commit = value;
    } else {
      return Usage();
    }
  }
  RatePlan plan;
  if (!have_workload || !have_seed || !have_seconds ||
      !PlanFor(options.workload, &plan)) {
    return Usage();
  }
  if (print_schedule) return PrintSchedule(options, plan);
  if (!have_trace) return Usage();

  PrintStamp(options);
  RunResult result;
  if (options.workload == "batch-mixed") {
    result = RunBatchMixed(options);
  } else if (options.workload == "fleet-hot") {
    result = RunFleetHot(options);
  } else {
    result = RunFleetCold(options);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

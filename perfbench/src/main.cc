// perfbench: the dbps benchmark program.
//
//   perfbench --workload fire_contended|serve_mixed --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Prints one JSON line of run facts, then the result line
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) the workload measured. run.py orders them as BENCHMARK.json
// lists them. A run whose output checks fail prints correct=false and no
// metrics.

#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (argc % 2 == 0) return Usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return Usage();
      }
    }
  } catch (const std::exception&) {
    return Usage();
  }

  pb::Outcome out;
  if (args.workload == "fire_contended") {
    out = pb::RunFire(args);
  } else if (args.workload == "serve_mixed") {
    out = pb::RunServe(args);
  } else {
    return Usage();
  }
  const std::string selftest = pb::SelfTest(args.seed);
  if (!selftest.empty()) out.Fail("generator self-test: " + selftest);
  if (out.attempted == 0) out.Fail("nothing attempted");

  if (!out.correct) out.metrics.clear();

  out.facts["workload"] = args.workload;
  out.facts["seed"] = std::to_string(args.seed);
  out.facts["seconds"] = std::to_string(args.seconds);
  out.facts["trace"] = args.trace ? "1" : "0";
  out.facts["nproc"] = std::to_string(pb::NumWorkers());
  out.facts["engine_workers"] = std::to_string(pb::NumWorkers());
  out.facts["compiler"] = PB_COMPILER;
  out.facts["build_type"] = PB_BUILD_TYPE;
#ifdef __OPTIMIZE__
  out.facts["optimized"] = "yes";
#else
  out.facts["optimized"] = "NO - timings are not representative";
#endif
  std::cout << out.FactsJson() << "\n" << out.ResultJson() << std::endl;
  return 0;
}

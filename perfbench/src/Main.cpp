//===- perfbench/src/Main.cpp - perfbench workload binary -----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints, as its last stdout line, one JSON object
// with every metric it measured (end-to-end and per-layer), the number of
// operations attempted and the failed ones. perfbench/run.py builds this
// binary, runs it, and selects the metrics BENCHMARK.json names.
//
//   perfbench --workload paper-sweep|serve-replay --seed N --seconds S
//             --run-dir DIR [--trace] [--spans FILE] [--serve-bin PATH]
//             [--prefill-bin PATH] [--smoke]
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>

using namespace perfbench;

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", F.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (F == "--workload")
      A.Workload = Next();
    else if (F == "--seed")
      A.Seed = std::stoull(Next());
    else if (F == "--seconds")
      A.Seconds = static_cast<unsigned>(std::stoul(Next()));
    else if (F == "--run-dir")
      A.RunDir = Next();
    else if (F == "--serve-bin")
      A.ServeBin = Next();
    else if (F == "--prefill-bin")
      A.PrefillBin = Next();
    else if (F == "--spans")
      A.SpansPath = Next();
    else if (F == "--trace")
      A.Trace = true;
    else if (F == "--smoke")
      A.Smoke = true;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", F.c_str());
      return 2;
    }
  }
  if (A.RunDir.empty()) {
    std::fprintf(stderr, "perfbench: --run-dir is required\n");
    return 2;
  }
  std::filesystem::create_directories(A.RunDir);

  Metrics M;
  Ledger L;
  Tracer T;
  initLayerMetrics(M);
  try {
    if (!A.SpansPath.empty())
      T.open(A.SpansPath);
    if (A.Workload == "paper-sweep")
      runPaperSweep(A, M, L, T);
    else if (A.Workload == "serve-replay")
      runServeReplay(A, M, L, T);
    else
      throw std::runtime_error("unknown workload '" + A.Workload + "'");
  } catch (const std::exception &E) {
    // A broken set-up, not a failed operation: no result line.
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  M.put("trace.spans", static_cast<double>(T.spans()), "count");

  for (size_t I = 0; I < L.Failures.size(); ++I)
    if (I < 20)
      std::fprintf(stderr, "FAILED: %s\n", L.Failures[I].c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              L.Failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(L.Attempted), L.Failures.size(),
              M.json().c_str());
  return 0;
}

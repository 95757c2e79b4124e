//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing shared by the perfbench workloads: arguments, the seeded RNG,
/// percentiles, the metric table every run fills, the failed-operation
/// ledger, the JSON-lines span tracer, the certificate checker, the traced
/// layer replays, SMT-LIB alpha-renaming and the BTOR2 machine family.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "runtime/ResultStore.h"
#include "solver/ChcSolve.h"
#include "support/Error.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 20;
  bool Trace = false;
  bool Smoke = false;
  std::string RunDir;    ///< Scratch directory of this run (store, socket).
  std::string ServeBin;  ///< mucyc-serve under test (serve-replay).
  /// mucyc-serve that fills the store before the daemon under test starts:
  /// the release build, also when ServeBin is the -pg one.
  std::string PrefillBin;
  std::string SpansPath; ///< JSON-lines span file (traced runs).
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// The P-th percentile (P in [0,100]) by the Harrell-Davis estimator: a
/// Beta-weighted mean of all order statistics. In the sparse upper tail of
/// a latency sample it moves far less with one sample more or less than
/// interpolating between two neighbours does. 0 for an empty sample.
double percentile(std::vector<double> V, double P);

/// The plain sample median (mean of the middle two); 0 for an empty sample.
double median(std::vector<double> V);

/// Every metric a run reports, in insertion order, with its unit. The
/// runner picks the end-to-end or the per-layer subset and checks the
/// names and units against BENCHMARK.json.
class Metrics {
public:
  void put(const std::string &Name, double Value, const std::string &Unit);
  void add(const std::string &Name, double Delta);
  double get(const std::string &Name) const;
  std::string json() const;

private:
  struct Row {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Row> Rows;
  Row *find(const std::string &Name);
};

/// Puts every per-layer metric at zero with its unit, so a workload only
/// overwrites the layers it reaches. The gprof-derived smt/itp/mbp/qe
/// metrics are added by the runner, not here.
void initLayerMetrics(Metrics &M);

/// Config spelling -> the metric id used in solver.<id>.*.
std::string configId(const std::string &Config);
extern const char *const AllConfigIds[5];

/// Failed operations, with the reason of each, against those attempted.
struct Ledger {
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
  void fail(std::string Why) { Failures.push_back(std::move(Why)); }
};

/// Unknown for these reasons is an expected outcome (deadline or budget),
/// not a failed operation.
bool benignUnknown(mucyc::ErrorCode C);

/// JSON-lines span writer: one line per span with its name, start and end
/// (microseconds since the tracer opened), parent span id and request id.
/// Totals per name are kept whether or not a file is open.
class Tracer {
public:
  Tracer() = default;
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;
  /// Starts writing spans to \p Path; throws if it cannot be created.
  void open(const std::string &Path);
  ~Tracer();
  uint64_t spans() const { return Count; }

  class Span {
  public:
    Span(Tracer &T, const char *Name, const std::string &Request);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &T;
    const char *Name;
    std::string Request;
    uint64_t Id, Parent;
    Clock::time_point Start;
  };

  /// Records a span measured elsewhere, as a child of the open span.
  void record(const char *Name, const std::string &Request,
              Clock::time_point Start, Clock::time_point End);

  /// Total milliseconds spent in spans named \p Name.
  double totalMs(const std::string &Name) const;

private:
  void emit(const char *Name, const std::string &Request, uint64_t Id,
            uint64_t Parent, Clock::time_point Start, Clock::time_point End);

  FILE *Out = nullptr;
  Clock::time_point Epoch = Clock::now();
  uint64_t NextId = 1, Current = 0, Count = 0;
  std::vector<std::pair<std::string, double>> Totals;
};

/// Renames every symbol the text declares (declare-fun names and forall
/// binders) to a fresh seeded spelling: an alpha-equivalent system with the
/// same fingerprint and a different byte string.
std::string alphaRenameSmtLib(const std::string &Text, uint64_t Salt);

/// The BTOR2 texts of 16 hardware machines: saturating, free-running and
/// wrap-around counters at widths 8/16/32/64 and FIFO occupancy trackers
/// at depths 4/8/16/32. The ts layer is timed on them.
std::vector<std::string> btor2Machines();

/// Switches gprof sampling and call counting on or off (a no-op outside
/// the -pg build), so a traced run's layer split covers only the timed
/// work, not the checks and replays around it.
void profiling(bool On);

/// Peak resident set of this process in MB.
double selfPeakRssMb();

/// Result of re-checking one certificate with the independent checker.
enum class CertCheck {
  Ok,               ///< Verified as the service's store admission would.
  DepthUnderstated, ///< Unsat piece reachable, but deeper than Depth + 2.
  Rejected,         ///< Not an invariant / no reachable bad state found.
};

/// One certificate to re-check against a fresh build of its instance.
struct CertJob {
  std::string Id; ///< Names the job in spans and messages.
  std::function<mucyc::NormalizedChc(mucyc::TermContext &)> Build;
  mucyc::ChcStatus Status;
  int Depth;
  std::string Cert; ///< ResultStore::serializeCert() text.
};

/// What re-checking one certificate found.
struct CertResult {
  CertCheck Check = CertCheck::Rejected;
  size_t Nodes = 0, KidBytes = 0; ///< Of the check's TermContext.
};

/// Re-checks every job in a fresh context. Sat: verifyInvariant. Unsat:
/// verifyCexPiece at Depth + 2, the bound the store admission and
/// VerifyResult use; when that fails, at doubling bounds up to 64, so a
/// valid piece with an understated depth is told apart from a wrong one. A
/// certificate that does not parse is Rejected. The checks share no state
/// and the slowest take seconds, so they are spread over this process and
/// up to \p Procs - 1 forked ones. A check that throws, or whose process
/// dies, is Rejected. Each check is recorded as a solver.verify span.
std::vector<CertResult> checkCertificates(Tracer &T,
                                          const std::vector<CertJob> &Jobs,
                                          unsigned Procs);

/// Traced replay of the layers a request crosses before any engine runs:
/// each SMT-LIB text through parseChc, preprocess, normalize and
/// fingerprintNormalized, each BTOR2 text through parseBtor2 plus CHC
/// encoding, every call in its own span. Three passes; puts the median
/// pass total of each layer as chc.*_ms / ts.parse_ms.
void replayFrontEnd(Tracer &T, const std::vector<std::string> &SmtTexts,
                    const std::vector<std::string> &BtorTexts, Metrics &M);

/// Traced replay of the result store: inserts \p Entries into an empty
/// store at \p Dir, reopens it, and looks every fingerprint up twice (disk
/// tier, then memory tier). Puts runtime.store_insert_ms / _lookup_ms.
void replayStore(
    Tracer &T, const std::string &Dir,
    const std::vector<std::pair<std::string, mucyc::ResultStore::Entry>>
        &Entries,
    Metrics &M);

/// The workloads. Each fills every end-to-end metric and the per-layer
/// metrics it reaches, and records failed operations in \p L.
void runPaperSweep(const Args &A, Metrics &M, Ledger &L, Tracer &T);
void runServeReplay(const Args &A, Metrics &M, Ledger &L, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

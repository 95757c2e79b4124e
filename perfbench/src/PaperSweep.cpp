//===- perfbench/src/PaperSweep.cpp - paper-sweep workload ----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's sweep: the 35-instance suite x the five fig2_cactus configs,
// built programmatically and run one job at a time through solveRequest()
// under a fixed per-job deadline. Pass 1 runs every job. Every certificate
// it produced is then re-checked in a fresh context, untimed, and the
// verified answers fill a result store. Later rounds run the decided jobs
// again, each followed by a batch of warm hits: resubmissions of a stored
// instance. A job's solver counters must be identical in every round that
// decides it. A traced run then replays the front end and the store on the
// suite inside spans.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bench_suite/Suite.h"
#include "chc/Export.h"
#include "chc/Fingerprint.h"
#include "runtime/Request.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace mucyc;

namespace perfbench {
namespace {

/// What one job left behind for the checks after the timed phase.
struct JobResult {
  ChcStatus Status = ChcStatus::Unknown;
  double Ms = 0;
  SolveStats Stats;
  ErrorInfo Error;
  int Depth = 0;
  std::string Cert; ///< serializeCert() text; empty when undecided.
  std::string Fp;
  std::vector<Sort> ZSorts;
  size_t Nodes = 0, KidBytes = 0;
};

JobResult runJob(const BenchInstance &I, const SolverOptions &Opts,
                 uint64_t DeadlineMs) {
  struct Captured {
    TermContext *Ctx = nullptr;
    NormalizedChc N;
  };
  auto Cap = std::make_shared<Captured>();
  auto Build = I.Build;
  SolveRequest R = SolveRequest::fromBuilder(
      [Cap, Build](TermContext &C) {
        NormalizedChc N = Build(C);
        Cap->Ctx = &C;
        Cap->N = N;
        return N;
      },
      Opts);
  R.DeadlineMs = DeadlineMs;
  Clock::time_point T0 = Clock::now();
  SolveResponse Resp = solveRequest(R);
  JobResult J;
  J.Ms = msBetween(T0, Clock::now());
  J.Status = Resp.Status;
  J.Stats = Resp.Stats;
  J.Error = Resp.Error;
  J.Depth = Resp.Depth;
  if (Resp.Status == ChcStatus::Unknown || !Resp.Ctx ||
      Resp.Ctx.get() != Cap->Ctx)
    return J;
  TermContext &C = *Resp.Ctx;
  TermRef Cert =
      Resp.Status == ChcStatus::Sat ? Resp.Invariant : Resp.CexPiece;
  if (Cert.isValid())
    J.Cert = ResultStore::serializeCert(C, Cap->N, Cert);
  J.Fp = fingerprintNormalized(C, Cap->N).hex();
  for (VarId V : Cap->N.Z)
    J.ZSorts.push_back(C.varInfo(V).S);
  J.Nodes = C.numTerms();
  J.KidBytes = C.kidArenaBytes();
  return J;
}

std::string countsLine(const SolveStats &S) {
  std::ostringstream O;
  O << S.SmtChecks << ' ' << S.SmtCacheHits << ' ' << S.SmtCacheEvicts << ' '
    << S.PoolRetires << ' ' << S.MbpCalls << ' ' << S.ItpCalls << ' '
    << S.RefineCalls << ' ' << S.Unfolds << ' ' << S.Retries << ' '
    << S.Degradations;
  return O.str();
}

} // namespace

void runPaperSweep(const Args &A, Metrics &M, Ledger &L, Tracer &T) {
  const std::vector<std::string> Configs = {
      "SpacerTS(fig1)", "Ind(Yld(T,MBP(1)))", "Ind(Ret(F,MBP(0)))",
      "Ret(F,Model)", "Solve"};
  // The paper's method: a fixed per-job deadline. 500 ms, not the ROADMAP
  // baseline's 2 s, so that a run fits the benchmark's time budget; the
  // jobs that decide only between 0.5 and 2 s count as undecided.
  const uint64_t DeadlineMs = A.Smoke ? 300 : 500;
  // Rounds over the decided jobs: at least one after pass 1, and more
  // while the timed phase is shorter than --seconds. The host's speed can
  // swing by 2x from one tenth of a second to the next, so every latency
  // is a job's best of its rounds, taken at different points of the run.
  // A traced run makes pass 1 only: it reports layers, and the -pg build
  // runs about 2x slower.
  const unsigned MinPasses = A.Trace ? 1 : 2;
  // From round 3 on, a job runs while its time spent so far is at most
  // this much per round, so the cheap jobs, where verdict_p50_ms lies, get
  // many samples and the few slow ones no more than they need.
  const double RoundShareMs = 50;

  // --- Set-up: enumerate the suite and build every system once, which
  // also proves each source well-formed before anything is timed. One
  // set-up takes under a millisecond, so it is repeated in 100 batches of
  // at least 10 ms each; setup_s is the best batch's time per set-up.
  profiling(false);
  std::vector<BenchInstance> Insts;
  const double BatchMs = A.Smoke ? 1 : 10;
  double SetupS = 1e9;
  for (int Batch = 0; Batch < 100; ++Batch) {
    Clock::time_point S0 = Clock::now();
    unsigned Reps = 0;
    double Ms = 0;
    do {
      Insts = buildSuite();
      if (A.Smoke)
        Insts.resize(4);
      for (const BenchInstance &I : Insts) {
        TermContext C;
        (void)I.Build(C);
      }
      ++Reps;
      Ms = msBetween(S0, Clock::now());
    } while (Ms < BatchMs);
    SetupS = std::min(SetupS, Ms / 1000.0 / Reps);
  }
  M.put("setup_s", SetupS, "s");

  std::map<std::string, SolverOptions> Opts;
  for (const std::string &Cfg : Configs) {
    auto O = SolverOptions::parse(Cfg);
    if (!O)
      throw std::runtime_error("bad config " + Cfg);
    Opts.emplace(Cfg, *O);
  }
  using Key = std::pair<size_t, std::string>;
  std::vector<Key> Jobs;
  for (const std::string &Cfg : Configs)
    for (size_t I = 0; I < Insts.size(); ++I)
      Jobs.emplace_back(I, Cfg);
  Rng R(A.Seed);
  auto JobName = [&](const Key &K) {
    return Insts[K.first].Name + " " + K.second;
  };

  // --- Pass 1 (timed): every job once, in seeded order.
  std::map<Key, JobResult> Results;
  std::map<Key, std::vector<double>> Samples; // Decided latencies per job.
  std::vector<double> Overruns;
  std::vector<std::pair<double, std::string>> Worst;
  auto NoteOverrun = [&](const Key &K, const JobResult &J) {
    if (J.Ms >= static_cast<double>(DeadlineMs)) {
      Overruns.push_back(J.Ms - static_cast<double>(DeadlineMs));
      Worst.emplace_back(J.Ms - static_cast<double>(DeadlineMs), JobName(K));
    }
  };
  R.shuffle(Jobs);
  profiling(true);
  Clock::time_point Pass1 = Clock::now();
  for (const Key &K : Jobs) {
    JobResult J = runJob(Insts[K.first], Opts.at(K.second), DeadlineMs);
    NoteOverrun(K, J);
    Results[K] = std::move(J);
  }
  double TimedMs = msBetween(Pass1, Clock::now());
  profiling(false);

  // --- Certificate re-check (untimed): every correct definitive answer.
  std::vector<Key> Checked;
  std::vector<CertJob> CertJobs;
  for (auto &[K, J] : Results)
    if (J.Status == Insts[K.first].Expected && !J.Cert.empty()) {
      Checked.push_back(K);
      CertJobs.push_back(
          {JobName(K), Insts[K.first].Build, J.Status, J.Depth, J.Cert});
    }
  Clock::time_point CheckStart = Clock::now();
  std::vector<CertResult> Verdicts = checkCertificates(
      T, CertJobs, std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::fprintf(stderr, "perfbench: %zu certificates checked in %.1f s\n",
               Verdicts.size(), msBetween(CheckStart, Clock::now()) / 1000.0);
  std::map<Key, CertCheck> CertOf;
  for (size_t I = 0; I < Checked.size(); ++I)
    CertOf[Checked[I]] = Verdicts[I].Check;

  // --- The store warm hits go to: each instance with a verified answer,
  // the way the service admits (verified, memory tier). When several
  // configs decided it, the entry is the first config's in list order.
  ResultStore Store;
  std::vector<size_t> Stored;
  std::vector<std::pair<std::string, ResultStore::Entry>> Entries;
  for (const std::string &Cfg : Configs)
    for (size_t I = 0; I < Insts.size(); ++I) {
      auto It = CertOf.find({I, Cfg});
      if (It == CertOf.end() || It->second != CertCheck::Ok ||
          std::count(Stored.begin(), Stored.end(), I))
        continue;
      const JobResult &J = Results[{I, Cfg}];
      ResultStore::Entry E;
      E.Status = J.Status;
      E.Depth = J.Depth;
      E.Config = Cfg;
      E.ZSorts = J.ZSorts;
      E.Cert = J.Cert;
      Entries.emplace_back(J.Fp, E);
      E.Verified = true;
      Store.insert(J.Fp, E);
      Stored.push_back(I);
    }

  // A visit resubmits one stored instance HitBatch times back to back;
  // each resubmission must be served from the store with the cold verdict.
  // One hit takes tens of microseconds, so a sample is the batch's time
  // per resubmission. Visits go round the stored instances in seeded order,
  // VisitsPerJob after every job of every round, so each instance gets
  // dozens of samples spread over the run.
  const unsigned HitBatch = 5, VisitsPerJob = 4;
  std::map<size_t, std::vector<double>> HitSamples;
  auto HitInstance = [&](size_t Idx) {
    const BenchInstance &I = Insts[Idx];
    SolveRequest Req =
        SolveRequest::fromBuilder(I.Build, Opts.at(Configs[0]));
    Req.DeadlineMs = DeadlineMs;
    Req.KeepContext = false;
    Clock::time_point T0 = Clock::now();
    for (unsigned Rep = 0; Rep < HitBatch; ++Rep) {
      SolveResponse Resp = solveRequest(Req, &Store, nullptr);
      ++L.Attempted;
      if (Resp.Cache == CacheSource::None)
        L.fail(I.Name + ": warm resubmission missed the store");
      else if (Resp.Status != I.Expected)
        L.fail(I.Name + ": served " + chcStatusName(Resp.Status) +
               ", cold verdict " + chcStatusName(I.Expected));
    }
    HitSamples[Idx].push_back(msBetween(T0, Clock::now()) / HitBatch);
  };
  std::vector<size_t> HitOrder = Stored;
  R.shuffle(HitOrder);
  size_t HitCursor = 0;
  auto WarmHit = [&] {
    for (unsigned V = 0; V < VisitsPerJob && !HitOrder.empty(); ++V)
      HitInstance(HitOrder[HitCursor++ % HitOrder.size()]);
  };

  // Verdicts against ground truth; Unknown only for a deadline or budget.
  std::vector<Key> Decided;
  for (auto &[K, J] : Results) {
    const BenchInstance &I = Insts[K.first];
    ++L.Attempted;
    if (J.Status == ChcStatus::Unknown) {
      if (!benignUnknown(J.Error.Code))
        L.fail(JobName(K) + ": unknown with error " + J.Error.describe());
      continue;
    }
    if (J.Status != I.Expected) {
      L.fail(JobName(K) + ": answered " + chcStatusName(J.Status) +
             ", expected " + chcStatusName(I.Expected));
      continue;
    }
    if (J.Cert.empty()) {
      L.fail(JobName(K) + ": definitive answer without a certificate");
      continue;
    }
    if (CertOf[K] == CertCheck::Rejected)
      L.fail(JobName(K) + ": certificate rejected by the independent checker");
    if (CertOf[K] == CertCheck::DepthUnderstated) {
      M.add("solver.cex_depth_understated", 1);
      std::printf("depth understated: %s reported depth %d, but its "
                  "counterexample needs a deeper bound; the store refuses "
                  "it\n",
                  JobName(K).c_str(), J.Depth);
    }
    Decided.push_back(K);
    Samples[K].push_back(J.Ms);
    M.add("solver." + configId(K.second) + ".solved", 1);
    M.add("solver.smt_checks", static_cast<double>(J.Stats.SmtChecks));
    M.add("solver.smt_cache_hits", static_cast<double>(J.Stats.SmtCacheHits));
    M.add("solver.pool_retires", static_cast<double>(J.Stats.PoolRetires));
    M.add("solver.refine_calls", static_cast<double>(J.Stats.RefineCalls));
    M.add("solver.mbp_calls", static_cast<double>(J.Stats.MbpCalls));
    M.add("solver.itp_calls", static_cast<double>(J.Stats.ItpCalls));
    M.add("solver.unfolds", static_cast<double>(J.Stats.Unfolds));
    M.add("term.nodes", static_cast<double>(J.Nodes));
    M.add("term.kid_arena_bytes", static_cast<double>(J.KidBytes));
  }
  if (!Decided.empty()) {
    double N = static_cast<double>(Decided.size());
    M.put("term.nodes", M.get("term.nodes") / N, "count");
    M.put("term.kid_arena_bytes", M.get("term.kid_arena_bytes") / N, "bytes");
  }
  double Checks = M.get("solver.smt_checks"),
         CacheHits = M.get("solver.smt_cache_hits");
  M.put("solver.smt_cache_hit_ratio",
        Checks + CacheHits > 0 ? CacheHits / (Checks + CacheHits) : 0,
        "ratio");
  M.put("solver.verify_ms", T.totalMs("solver.verify"), "ms");

  // --- Rounds 2..N (timed): decided jobs again, each round in a new
  // seeded order. Round 2 runs them all. Exact-count check: a repeat must
  // give the same verdict and solver counters byte-identical to pass 1's;
  // one that stops at the deadline this time adds no sample.
  std::set<Key> CountChecked;
  unsigned CountMismatches = 0;
  std::map<Key, double> Spent;
  for (const Key &K : Decided)
    Spent[K] = Results[K].Ms;
  for (unsigned Pass = 2;
       Pass <= MinPasses ||
       (!A.Smoke && !A.Trace && TimedMs / 1000.0 < A.Seconds);
       ++Pass) {
    std::vector<Key> Order;
    for (const Key &K : Decided)
      if (Pass == 2 || Spent[K] <= RoundShareMs * (Pass - 1))
        Order.push_back(K);
    R.shuffle(Order);
    profiling(true);
    Clock::time_point RoundStart = Clock::now();
    for (const Key &K : Order) {
      JobResult J = runJob(Insts[K.first], Opts.at(K.second), DeadlineMs);
      Spent[K] += J.Ms;
      NoteOverrun(K, J);
      WarmHit();
      ++L.Attempted;
      if (J.Status == ChcStatus::Unknown) {
        if (!benignUnknown(J.Error.Code))
          L.fail(JobName(K) + ": unknown with error " + J.Error.describe());
        continue;
      }
      if (J.Status != Insts[K.first].Expected) {
        L.fail(JobName(K) + ": pass " + std::to_string(Pass) + " answered " +
               chcStatusName(J.Status));
        continue;
      }
      CountChecked.insert(K);
      if (countsLine(J.Stats) != countsLine(Results[K].Stats)) {
        ++CountMismatches;
        L.fail(JobName(K) + ": solver counts " + countsLine(J.Stats) +
               " differ from pass 1's " + countsLine(Results[K].Stats));
      }
      Samples[K].push_back(J.Ms);
    }
    TimedMs += msBetween(RoundStart, Clock::now());
    profiling(false);
  }
  profiling(true);
  for (size_t Idx : Stored) // Every stored instance hit.
    if (!HitSamples.count(Idx))
      HitInstance(Idx);
  profiling(false);
  M.put("peak_rss_mb", selfPeakRssMb(), "MB");
  M.put("solver.count_checked_jobs", static_cast<double>(CountChecked.size()),
        "count");
  M.put("solver.count_mismatches", CountMismatches, "count");
  std::fprintf(stderr, "perfbench: timed phase %.1f s\n", TimedMs / 1000.0);

  // --- End-to-end metrics from best-of-passes latencies.
  auto Best = [](const std::vector<double> &V) {
    return *std::min_element(V.begin(), V.end());
  };
  std::vector<double> SolvedMs, AllMs, HitMs;
  double WallS = 0;
  for (auto &[K, J] : Results) {
    auto S = Samples.find(K);
    double Ms = S == Samples.end() ? J.Ms : Best(S->second);
    AllMs.push_back(Ms);
    WallS += Ms / 1000.0;
    M.add("solver." + configId(K.second) + ".busy_s", Ms / 1000.0);
    if (S != Samples.end())
      SolvedMs.push_back(Ms);
  }
  size_t HitVisits = 0, Runs = 0;
  for (auto &[K, V] : Samples)
    Runs += V.size();
  for (auto &[Idx, V] : HitSamples) {
    HitMs.push_back(Best(V));
    HitVisits += V.size();
  }
  for (const char *Id : AllConfigIds)
    std::fprintf(stderr, "perfbench: %s busy %.2f s (best of passes)\n", Id,
                 M.get(std::string("solver.") + Id + ".busy_s"));
  std::printf("samples: %zu jobs (%zu decided, %zu decided runs), %zu hit "
              "batches of %u over %zu stored instances\n",
              Results.size(), Decided.size(), Runs, HitVisits, HitBatch,
              HitSamples.size());
  M.put("solved", static_cast<double>(Decided.size()), "count");
  M.put("verdict_p50_ms", percentile(SolvedMs, 50), "ms");
  M.put("verdict_p90_ms", percentile(SolvedMs, 90), "ms");
  M.put("wall_s", WallS, "s");
  M.put("hit_p50_ms", percentile(HitMs, 50), "ms");
  M.put("hit_p99_ms", percentile(HitMs, 99), "ms");
  M.put("miss_p50_ms", percentile(AllMs, 50), "ms");
  ResultStore::Counters SC = Store.counters();
  M.put("runtime.store_mem_hits", static_cast<double>(SC.MemHits), "count");
  M.put("runtime.store_disk_hits", static_cast<double>(SC.DiskHits), "count");
  M.put("runtime.store_misses", static_cast<double>(SC.Misses), "count");
  double Looked = static_cast<double>(SC.MemHits + SC.DiskHits + SC.Misses);
  M.put("runtime.store_hit_ratio",
        Looked > 0 ? static_cast<double>(SC.MemHits + SC.DiskHits) / Looked
                   : 0,
        "ratio");
  M.put("trace.verdict_p50_ms", M.get("verdict_p50_ms"), "ms");
  M.put("trace.wall_s", WallS, "s");

  // Deadline overruns, kept whole: every sample past its deadline counts.
  M.put("runtime.deadline_overrun_p50_ms", percentile(Overruns, 50), "ms");
  M.put("runtime.deadline_overrun_max_ms",
        Overruns.empty() ? 0
                         : *std::max_element(Overruns.begin(), Overruns.end()),
        "ms");
  std::sort(Worst.rbegin(), Worst.rend());
  for (size_t I = 0; I < Worst.size() && I < 5; ++I)
    std::printf("deadline overrun: %s ran %.0f ms past its %llu ms deadline\n",
                Worst[I].second.c_str(), Worst[I].first,
                static_cast<unsigned long long>(DeadlineMs));

  if (!A.Trace)
    return;

  // --- Traced replays of the layers a request crosses before any engine
  // runs: the suite's SMT-LIB rendering through the chc layers and, since
  // the suite has no BTOR2 input, the hardware machines through the ts
  // front end.
  std::vector<std::string> SmtTexts;
  for (const BenchInstance &I : Insts) {
    TermContext C;
    NormalizedChc N = I.Build(C);
    SmtTexts.push_back(alphaRenameSmtLib(exportSmtLib(C, N), R.next()));
  }
  replayFrontEnd(T, SmtTexts, btor2Machines(), M);
  replayStore(T, A.RunDir + "/replay-store", Entries, M);
}

} // namespace perfbench

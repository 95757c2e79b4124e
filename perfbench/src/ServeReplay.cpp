//===- perfbench/src/ServeReplay.cpp - serve-replay workload --------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The service workload. The shipped mucyc-serve daemon (default
// --isolate crash) runs on a store pre-filled with most of the exported
// suite; this process drives it over its UNIX socket with an open-loop
// generator at a fixed rate: alpha-renamed resubmissions of the stored
// instances (served from the store, disk tier first, then memory),
// interleaved with first submissions of a fixed held-back set, which run
// an engine in a worker and insert into the store beside the hits.
//
// Set-up: an untimed prefill daemon solves the stored part and exits; the
// daemon is then restarted on that store several times (recovery scan to
// first answered ping), and setup_s is the median restart.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bench_suite/Suite.h"
#include "chc/Export.h"
#include "runtime/Request.h"
#include "runtime/Serve.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace mucyc;

namespace perfbench {
namespace {

const char *const SocketName = "serve.sock";
const char *const Config = "SpacerTS(fig1)";
const uint64_t MissDeadlineMs = 10000;

struct Inst {
  std::string Name;
  ChcStatus Expected;
  std::string Text; ///< Exported SMT-LIB.
};

int connectSocket();
bool exchange(int Fd, const WireMessage &Req, WireMessage &Resp);

/// The daemon under test, one process; stopped and reaped on destruction.
class Daemon {
public:
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  Daemon(const std::string &Bin, unsigned Jobs) {
    std::string JobsArg = std::to_string(Jobs);
    Pid = fork();
    if (Pid == 0) {
      int Log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0) {
        dup2(Log, 1);
        dup2(Log, 2);
      }
      execl(Bin.c_str(), Bin.c_str(), "--socket", SocketName, "--store-dir",
            "store", "--jobs", JobsArg.c_str(), static_cast<char *>(nullptr));
      _exit(127);
    }
  }
  ~Daemon() { stop(); }

  pid_t pid() const { return Pid; }

  /// Connects and pings until the daemon answers; returns the connection,
  /// or -1 when the daemon exits or stays silent for 10 s.
  int ready() {
    for (int I = 0; I < 2000; ++I) {
      if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return -1;
      }
      int Fd = connectSocket();
      if (Fd >= 0) {
        WireMessage Ping, Pong;
        Ping.Verb = "ping";
        if (exchange(Fd, Ping, Pong) && Pong.Verb == "pong")
          return Fd;
        close(Fd);
      }
      usleep(5000);
    }
    return -1;
  }

  /// SIGTERM, then SIGKILL if it has not exited within 10 s.
  void stop() {
    if (Pid <= 0)
      return;
    kill(Pid, SIGTERM);
    for (int I = 0; I < 1000; ++I) {
      if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      usleep(10000);
    }
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

  /// Peak resident set (VmHWM) in MB, read before stop().
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    for (std::string Line; std::getline(In, Line);)
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::stod(Line.substr(6)) / 1024.0;
    return 0;
  }

private:
  pid_t Pid = -1;
};

int connectSocket() {
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketName, sizeof(Addr.sun_path) - 1);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    close(Fd);
    return -1;
  }
  return Fd;
}

/// One request/response exchange; false on a transport or framing error.
bool exchange(int Fd, const WireMessage &Req, WireMessage &Resp) {
  if (!writeFrame(Fd, formatWireMessage(Req)))
    return false;
  std::string Payload;
  if (readFrame(Fd, Payload, 64u << 20) != FrameStatus::Ok)
    return false;
  return parseWireMessage(Payload, Resp, nullptr);
}

WireMessage solveMessage(const std::string &Text, const std::string &Tag) {
  WireMessage M;
  M.Verb = "solve";
  M.Headers["config"] = Config;
  M.Headers["deadline-ms"] = std::to_string(MissDeadlineMs);
  M.Headers["tags"] = Tag;
  M.Body = Text;
  return M;
}

ChcStatus statusOf(const WireMessage &M) {
  std::string S = M.header("status");
  return S == "sat" ? ChcStatus::Sat
         : S == "unsat" ? ChcStatus::Unsat
                        : ChcStatus::Unknown;
}

/// An "error" response header is "<code-name>: detail"; deadline and budget
/// codes are expected outcomes.
bool benignErrorHeader(const std::string &E) {
  return E.empty() || E.rfind("timeout", 0) == 0 ||
         E.rfind("resource-exhausted-steps", 0) == 0;
}

struct Sent {
  size_t Inst = 0;
  bool Miss = false;
  double AtMs = 0; ///< Scheduled offset from the start of the timed phase.
  bool NoStore = false;
  std::string Text;
  // Filled by the connection thread.
  double LateMs = 0, LatMs = 0;
  bool Ok = false;
  WireMessage Resp;
};

} // namespace

void runServeReplay(const Args &A, Metrics &M, Ledger &L, Tracer &T) {
  if (A.ServeBin.empty() || A.PrefillBin.empty())
    throw std::runtime_error(
        "serve-replay needs --serve-bin and --prefill-bin");
  if (chdir(A.RunDir.c_str()) != 0)
    throw std::runtime_error("cannot enter " + A.RunDir);
  unsigned Cores = std::max(2u, std::thread::hardware_concurrency());
  const unsigned Conns = std::min(4u, Cores); // One of them polls stats.
  const unsigned Jobs = std::min(4u, Cores);
  // A traced run reports layers, not latencies: 15 s of traffic suffice.
  const double Seconds = A.Smoke   ? 3.0
                         : A.Trace ? std::min(15.0, double(A.Seconds))
                                   : static_cast<double>(A.Seconds);
  // A quarter of the hit capacity: 3 connections sending hits back to back
  // drew about 1370 hits/s from this daemon (4 cores, x86-64), so the
  // open loop offers 350/s, leaving headroom for the cold solves. The -pg
  // daemon of a traced run is several times slower, and a backlog at that
  // rate stretched a traced run to 141 s, so it is offered a quarter.
  const double HitRps = A.Smoke ? 20.0 : A.Trace ? 90.0 : 350.0;

  Clock::time_point RunStart = Clock::now();
  // The exported suite; every third instance in name order is held back.
  std::vector<Inst> Insts;
  for (BenchInstance &B : buildSuite()) {
    TermContext C;
    NormalizedChc N = B.Build(C);
    Insts.push_back({B.Name, B.Expected, exportSmtLib(C, N)});
  }
  std::sort(Insts.begin(), Insts.end(),
            [](const Inst &X, const Inst &Y) { return X.Name < Y.Name; });
  if (A.Smoke)
    Insts.resize(6);
  std::vector<size_t> Stored, Held;
  for (size_t I = 0; I < Insts.size(); ++I)
    (I % 3 == 1 ? Held : Stored).push_back(I);

  // --- Untimed prefill: a daemon solves the stored part cold into an
  // empty store and exits. The hit stream draws from the answers it
  // admitted; a decided answer it refused (its admission re-checks the
  // certificate at the reported depth + 2) is counted and named, never
  // resubmitted.
  std::map<size_t, ChcStatus> Cold;
  std::vector<size_t> Admitted;
  auto refused = [&](size_t I) {
    M.add("solver.cex_depth_understated", 1);
    std::printf("store refused: %s was decided but not admitted\n",
                Insts[I].Name.c_str());
  };
  {
    Daemon D(A.PrefillBin, Jobs);
    int Fd = D.ready();
    if (Fd < 0)
      throw std::runtime_error("the prefill daemon did not start");
    for (size_t I : Stored) {
      WireMessage Resp;
      ++L.Attempted;
      if (!exchange(Fd, solveMessage(Insts[I].Text, "prefill"), Resp) ||
          Resp.Verb != "result") {
        L.fail(Insts[I].Name + ": prefill got no result frame");
        continue;
      }
      Cold[I] = statusOf(Resp);
      if (Cold[I] != Insts[I].Expected)
        L.fail(Insts[I].Name + ": prefill answered " + Resp.header("status") +
               ", expected " + chcStatusName(Insts[I].Expected));
      else if (std::ifstream("store/" + Resp.header("fingerprint") +
                             ".mucyc-result"))
        Admitted.push_back(I);
      else
        refused(I);
    }
    close(Fd);
  }
  std::fprintf(stderr, "perfbench: prefill ready in %.1f s\n",
               msBetween(RunStart, Clock::now()) / 1000.0);

  // --- Set-up (timed): restart on the filled store until the first pong.
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  int StatsFd = -1;
  for (int Rep = 0; Rep < 5; ++Rep) {
    if (D) {
      close(StatsFd);
      D.reset();
    }
    Clock::time_point S0 = Clock::now();
    D = std::make_unique<Daemon>(A.ServeBin, Jobs);
    StatsFd = D->ready();
    SetupS.push_back(msBetween(S0, Clock::now()) / 1000.0);
    if (StatsFd < 0)
      throw std::runtime_error("the daemon did not restart");
  }
  M.put("setup_s", median(SetupS), "s");
  std::ofstream(A.RunDir + "/daemon.pid") << D->pid() << "\n";

  // --- Warm-up (untimed): every stored instance once, so the daemon loads
  // each entry from the disk tier and re-verifies its certificate. Some
  // take seconds; in the open loop they would stall the connections behind
  // them, so the timed phase measures the memory tier beside cold solves
  // and the restart cost is reported apart, as runtime.store_warmup_ms.
  {
    Clock::time_point W0 = Clock::now();
    for (size_t I : Admitted) {
      WireMessage Resp;
      ++L.Attempted;
      if (!exchange(StatsFd, solveMessage(Insts[I].Text, "warm-up"), Resp) ||
          Resp.header("cache") != "disk-hit" || statusOf(Resp) != Cold[I])
        L.fail(Insts[I].Name + ": warm-up was not a verified disk hit");
    }
    M.put("runtime.store_warmup_ms", msBetween(W0, Clock::now()), "ms");
  }

  // --- Schedule: hits at a fixed rate over the stored instances; each
  // held-back instance six times at seeded times, first as a plain
  // submission (solved cold, inserted into the store) in the first 70%,
  // then five times with no-store (solved cold again), anywhere in the
  // run. miss_p50_ms takes each instance's best of its six solves.
  Rng R(A.Seed);
  std::vector<Sent> Sched;
  auto Push = [&](size_t I, bool Miss, double AtMs) {
    Sent S;
    S.Inst = I;
    S.Miss = Miss;
    S.AtMs = AtMs;
    S.Text = alphaRenameSmtLib(Insts[I].Text, R.next());
    Sched.push_back(std::move(S));
  };
  size_t NumHits = static_cast<size_t>(Seconds * HitRps);
  for (size_t K = 0; K < NumHits; ++K) {
    size_t I = Admitted[R.below(Admitted.size())];
    Push(I, false, 1000.0 * static_cast<double>(K) / HitRps);
  }
  for (size_t I : Held) {
    Push(I, true, R.unit() * 700.0 * Seconds);
    for (int Rep = 0; Rep < 5; ++Rep) {
      Push(I, true, R.unit() * 900.0 * Seconds);
      Sched.back().NoStore = true;
    }
  }
  std::stable_sort(
      Sched.begin(), Sched.end(),
      [](const Sent &X, const Sent &Y) { return X.AtMs < Y.AtMs; });

  // --- Timed phase: Conns - 1 connections send in schedule order, each
  // request at its scheduled time or as soon as a connection frees up.
  std::atomic<size_t> Next{0};
  std::atomic<bool> Done{false};
  std::vector<int> Fds;
  for (unsigned C = 0; C + 1 < Conns; ++C) {
    int Fd = connectSocket();
    if (Fd < 0)
      throw std::runtime_error("cannot connect to the daemon");
    Fds.push_back(Fd);
  }
  uint64_t PendingMax = 0;
  Clock::time_point Start = Clock::now();
  std::thread Poller([&] {
    while (!Done.load()) {
      WireMessage Q, S;
      Q.Verb = "stats";
      if (exchange(StatsFd, Q, S))
        PendingMax = std::max<uint64_t>(
            PendingMax, std::strtoull(S.header("pending", "0").c_str(),
                                      nullptr, 10));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  std::vector<std::thread> Senders;
  for (int Fd : Fds)
    Senders.emplace_back([&, Fd] {
      for (size_t K; (K = Next.fetch_add(1)) < Sched.size();) {
        Sent &S = Sched[K];
        Clock::time_point At =
            Start + std::chrono::microseconds(
                        static_cast<int64_t>(S.AtMs * 1000.0));
        std::this_thread::sleep_until(At);
        Clock::time_point T0 = Clock::now();
        S.LateMs = msBetween(At, T0);
        WireMessage Req = solveMessage(S.Text, std::to_string(K));
        if (S.NoStore)
          Req.Headers["no-store"] = "1";
        S.Ok = exchange(Fd, Req, S.Resp);
        // Timed from when the request was due, so a stall also charges the
        // requests queued behind it.
        S.LatMs = msBetween(At, Clock::now());
      }
    });
  for (std::thread &Th : Senders)
    Th.join();
  double WallS = msBetween(Start, Clock::now()) / 1000.0;
  Done = true;
  Poller.join();
  for (int Fd : Fds)
    close(Fd);

  WireMessage Q, Stats;
  Q.Verb = "stats";
  exchange(StatsFd, Q, Stats);
  M.put("peak_rss_mb", D->peakRssMb(), "MB");
  close(StatsFd);
  D->stop();

  // --- Verdicts: a hit must come from the store and equal the cold
  // verdict; a miss must be decided correctly or stop at its deadline, and
  // the cold solves of one instance must report identical SMT check counts
  // (the exact-count check). Latencies are each instance's best, as in
  // paper-sweep.
  std::map<size_t, std::vector<double>> HitMs, MissMs;
  std::vector<double> Late, Overruns;
  std::map<size_t, std::string> Fps; // Instance -> store fingerprint.
  std::map<size_t, std::string> MissCounts;
  std::set<size_t> SolvedHeld, CountChecked;
  unsigned CountMismatches = 0;
  for (const Sent &S : Sched) {
    const Inst &I = Insts[S.Inst];
    ++L.Attempted;
    Late.push_back(S.LateMs);
    if (!S.Ok || S.Resp.Verb != "result") {
      L.fail(I.Name + ": " +
             (S.Ok ? "'" + S.Resp.Verb + "' response " +
                         S.Resp.header("detail")
                   : std::string("malformed or missing response")));
      continue;
    }
    ChcStatus St = statusOf(S.Resp);
    std::string Err = S.Resp.header("error");
    bool FromStore = S.Resp.header("cache") != "cold";
    if (S.Miss && S.LatMs >= static_cast<double>(MissDeadlineMs))
      Overruns.push_back(S.LatMs - static_cast<double>(MissDeadlineMs));
    if (!S.Miss && !FromStore) {
      L.fail(I.Name + ": resubmission was not served from the store");
      continue;
    }
    if (St == ChcStatus::Unknown) {
      if (!benignErrorHeader(Err))
        L.fail(I.Name + ": unknown with error " + Err);
      continue;
    }
    if (St != I.Expected || (!S.Miss && Cold.count(S.Inst) &&
                             St != Cold[S.Inst])) {
      L.fail(I.Name + ": answered " + S.Resp.header("status") +
             ", expected " + chcStatusName(I.Expected));
      continue;
    }
    (S.Miss ? MissMs : HitMs)[S.Inst].push_back(S.LatMs);
    if (!S.NoStore)
      Fps[S.Inst] = S.Resp.header("fingerprint");
    if (!S.Miss)
      continue;
    std::string Count = S.Resp.header("smt-checks");
    auto [It, New] = MissCounts.emplace(S.Inst, Count);
    if (!New) {
      CountChecked.insert(S.Inst);
      if (It->second != Count) {
        ++CountMismatches;
        L.fail(I.Name + ": cold solves reported " + It->second + " and " +
               Count + " SMT checks");
      }
    }
    if (!S.NoStore)
      SolvedHeld.insert(S.Inst);
  }
  auto Bests = [](const std::map<size_t, std::vector<double>> &By) {
    std::vector<double> Out;
    for (auto &[Idx, V] : By)
      Out.push_back(*std::min_element(V.begin(), V.end()));
    return Out;
  };
  std::vector<double> HitBest = Bests(HitMs), MissBest = Bests(MissMs);
  // Verdict latencies: every answer, valued at its instance's best of the
  // same kind, so the percentiles follow the hit/miss mix.
  std::vector<double> VerdictBest;
  for (auto *By : {&HitMs, &MissMs})
    for (auto &[Idx, V] : *By)
      VerdictBest.insert(VerdictBest.end(), V.size(),
                         *std::min_element(V.begin(), V.end()));
  auto Total = [](const std::map<size_t, std::vector<double>> &By) {
    size_t N = 0;
    for (auto &[Idx, V] : By)
      N += V.size();
    return N;
  };
  std::printf("samples: %zu hits over %zu stored instances, %zu cold solves "
              "over %zu held-back instances\n",
              Total(HitMs), HitMs.size(), Total(MissMs), MissMs.size());
  for (size_t Idx : SolvedHeld) {
    M.add("solver.spacer_ts.solved", 1);
    M.add("solver.smt_checks", std::strtod(MissCounts[Idx].c_str(), nullptr));
  }
  for (double Ms : MissBest)
    M.add("solver.spacer_ts.busy_s", Ms / 1000.0);
  auto StatU = [&](const char *K) {
    return std::strtod(Stats.header(K, "0").c_str(), nullptr);
  };
  M.put("solver.count_checked_jobs", static_cast<double>(CountChecked.size()),
        "count");
  M.put("solver.count_mismatches", CountMismatches, "count");
  M.put("solved", static_cast<double>(SolvedHeld.size()), "count");
  M.put("verdict_p50_ms", percentile(VerdictBest, 50), "ms");
  M.put("verdict_p90_ms", percentile(VerdictBest, 90), "ms");
  M.put("wall_s", WallS, "s");
  M.put("hit_p50_ms", percentile(HitBest, 50), "ms");
  M.put("hit_p99_ms", percentile(HitBest, 99), "ms");
  M.put("miss_p50_ms", percentile(MissBest, 50), "ms");
  M.put("runtime.store_mem_hits", StatU("store-mem-hits"), "count");
  M.put("runtime.store_disk_hits", StatU("store-disk-hits"), "count");
  M.put("runtime.store_misses", StatU("store-misses"), "count");
  double Looked = StatU("store-mem-hits") + StatU("store-disk-hits") +
                  StatU("store-misses");
  M.put("runtime.store_hit_ratio",
        Looked > 0
            ? (StatU("store-mem-hits") + StatU("store-disk-hits")) / Looked
            : 0,
        "ratio");
  M.put("runtime.worker_crashes", StatU("worker-crashes"), "count");
  M.put("runtime.overloaded", StatU("overloaded"), "count");
  M.put("runtime.serve_pending_max", static_cast<double>(PendingMax), "count");
  M.put("runtime.client_late_ms", percentile(Late, 99), "ms");
  M.put("runtime.deadline_overrun_p50_ms", percentile(Overruns, 50), "ms");
  M.put("runtime.deadline_overrun_max_ms",
        Overruns.empty() ? 0
                         : *std::max_element(Overruns.begin(), Overruns.end()),
        "ms");
  if (StatU("worker-crashes") > 0)
    L.fail("daemon reported worker crashes");
  M.put("trace.verdict_p50_ms", M.get("verdict_p50_ms"), "ms");
  M.put("trace.wall_s", WallS, "s");

  std::fprintf(stderr, "perfbench: timed phase done at %.1f s\n",
               msBetween(RunStart, Clock::now()) / 1000.0);

  // --- Certificate re-check (untimed): every served or inserted store
  // entry, parsed over the instance's own exported text in a fresh context.
  std::vector<std::pair<std::string, ResultStore::Entry>> Entries;
  std::vector<CertJob> CertJobs;
  for (auto &[Idx, Fp] : Fps) {
    const Inst &I = Insts[Idx];
    std::ifstream In("store/" + Fp + ".mucyc-result");
    if (!In && std::find(Held.begin(), Held.end(), Idx) != Held.end()) {
      refused(Idx);
      continue;
    }
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    std::optional<ResultStore::Entry> E = ResultStore::parseFileText(Text);
    if (!E || E->Status != I.Expected) {
      L.fail(I.Name + ": store entry " + Fp + " missing or wrong");
      continue;
    }
    auto Src = std::make_shared<TextSource>(I.Text);
    CertJobs.push_back({I.Name,
                        [Src](TermContext &C) { return Src->build(C); },
                        E->Status, E->Depth, E->Cert});
    Entries.emplace_back(Fp, *E);
  }
  double Nodes = 0, KidBytes = 0;
  std::vector<CertResult> Checks = checkCertificates(T, CertJobs, Jobs);
  for (size_t K = 0; K < Checks.size(); ++K) {
    if (Checks[K].Check != CertCheck::Ok)
      L.fail(CertJobs[K].Id + ": certificate in the store rejected");
    Nodes += static_cast<double>(Checks[K].Nodes);
    KidBytes += static_cast<double>(Checks[K].KidBytes);
  }
  M.put("solver.verify_ms", T.totalMs("solver.verify"), "ms");
  if (!Checks.empty()) {
    double N = static_cast<double>(Checks.size());
    M.put("term.nodes", Nodes / N, "count");
    M.put("term.kid_arena_bytes", KidBytes / N, "bytes");
  }

  if (!A.Trace)
    return;

  // --- Traced replays on the serve stream's own texts (one renaming of
  // each instance) and, since the stream carries no BTOR2, the machines.
  std::vector<std::string> Texts;
  for (const Inst &I : Insts)
    Texts.push_back(alphaRenameSmtLib(I.Text, R.next()));
  replayFrontEnd(T, Texts, btor2Machines(), M);
  replayStore(T, A.RunDir + "/replay-store", Entries, M);
}

} // namespace perfbench

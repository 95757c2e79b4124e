//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "chc/Fingerprint.h"
#include "chc/Parser.h"
#include "chc/Preprocess.h"
#include "ts/Btor2.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <map>
#include <new>
#include <stdexcept>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mucyc;

namespace perfbench {

namespace {

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz), valid for X < (A + 1) / (A + B + 2).
double betaContinuedFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  auto Guard = [&](double V) { return std::fabs(V) < Tiny ? Tiny : V; };
  double C = 1, D = 1 / Guard(1 - (A + B) * X / (A + 1)), H = D;
  for (int M = 1; M <= 300; ++M) {
    double Even = M * (B - M) * X / ((A + 2 * M - 1) * (A + 2 * M));
    D = 1 / Guard(1 + Even * D);
    C = Guard(1 + Even / C);
    H *= D * C;
    double Odd = -(A + M) * (A + B + M) * X / ((A + 2 * M) * (A + 2 * M + 1));
    D = 1 / Guard(1 + Odd * D);
    C = Guard(1 + Odd / C);
    H *= D * C;
    if (std::fabs(D * C - 1) < 1e-12)
      break;
  }
  return H;
}

/// Regularized incomplete beta function I_X(A, B).
double betaRegularized(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double Front = std::exp(std::lgamma(A + B) - std::lgamma(A) -
                          std::lgamma(B) + A * std::log(X) +
                          B * std::log(1 - X));
  if (X < (A + 1) / (A + B + 2))
    return Front * betaContinuedFraction(A, B, X) / A;
  return 1 - Front * betaContinuedFraction(B, A, 1 - X) / B;
}

} // namespace

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double N = static_cast<double>(V.size()), Q = P / 100.0;
  double A = Q * (N + 1), B = (1 - Q) * (N + 1);
  if (A <= 0 || V.size() == 1)
    return V.front();
  if (B <= 0)
    return V.back();
  double Sum = 0, Below = 0;
  for (size_t I = 1; I <= V.size(); ++I) {
    double Upto = betaRegularized(A, B, static_cast<double>(I) / N);
    Sum += (Upto - Below) * V[I - 1];
    Below = Upto;
  }
  return Sum;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

Metrics::Row *Metrics::find(const std::string &Name) {
  for (Row &R : Rows)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

void Metrics::put(const std::string &Name, double Value,
                  const std::string &Unit) {
  if (Row *R = find(Name)) {
    R->Value = Value;
    R->Unit = Unit;
    return;
  }
  Rows.push_back({Name, Value, Unit});
}

void Metrics::add(const std::string &Name, double Delta) {
  Row *R = find(Name);
  if (!R) {
    std::fprintf(stderr, "perfbench: add to undeclared metric %s\n",
                 Name.c_str());
    std::abort();
  }
  R->Value += Delta;
}

double Metrics::get(const std::string &Name) const {
  for (const Row &R : Rows)
    if (R.Name == Name)
      return R.Value;
  return 0;
}

std::string Metrics::json() const {
  std::string Out = "{";
  for (size_t I = 0; I < Rows.size(); ++I) {
    char Buf[64];
    double V = std::isfinite(Rows[I].Value) ? Rows[I].Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + Rows[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Rows[I].Unit + "\"}";
  }
  return Out + "}";
}

const char *const AllConfigIds[5] = {"spacer_ts", "ind_yld", "ind_ret",
                                     "ret_model", "solve"};

std::string configId(const std::string &Config) {
  static const std::map<std::string, std::string> Ids = {
      {"SpacerTS(fig1)", "spacer_ts"},   {"Ind(Yld(T,MBP(1)))", "ind_yld"},
      {"Ind(Ret(F,MBP(0)))", "ind_ret"}, {"Ret(F,Model)", "ret_model"},
      {"Solve", "solve"}};
  auto It = Ids.find(Config);
  return It == Ids.end() ? "other" : It->second;
}

void initLayerMetrics(Metrics &M) {
  for (const char *N : {"chc.parse_ms", "chc.preprocess_ms",
                        "chc.normalize_ms", "chc.fingerprint_ms",
                        "ts.parse_ms"})
    M.put(N, 0, "ms");
  for (const char *N :
       {"solver.smt_checks", "solver.smt_cache_hits", "solver.pool_retires",
        "solver.refine_calls", "solver.mbp_calls", "solver.itp_calls",
        "solver.unfolds"})
    M.put(N, 0, "count");
  M.put("solver.smt_cache_hit_ratio", 0, "ratio");
  for (const char *Id : AllConfigIds) {
    M.put(std::string("solver.") + Id + ".solved", 0, "count");
    M.put(std::string("solver.") + Id + ".busy_s", 0, "s");
  }
  M.put("solver.verify_ms", 0, "ms");
  M.put("solver.count_checked_jobs", 0, "count");
  M.put("solver.count_mismatches", 0, "count");
  M.put("solver.cex_depth_understated", 0, "count");
  M.put("runtime.deadline_overrun_p50_ms", 0, "ms");
  M.put("runtime.deadline_overrun_max_ms", 0, "ms");
  M.put("runtime.store_lookup_ms", 0, "ms");
  M.put("runtime.store_mem_hits", 0, "count");
  M.put("runtime.store_disk_hits", 0, "count");
  M.put("runtime.store_misses", 0, "count");
  M.put("runtime.store_hit_ratio", 0, "ratio");
  M.put("runtime.store_insert_ms", 0, "ms");
  M.put("runtime.store_warmup_ms", 0, "ms");
  M.put("runtime.serve_pending_max", 0, "count");
  M.put("runtime.client_late_ms", 0, "ms");
  M.put("runtime.worker_crashes", 0, "count");
  M.put("runtime.overloaded", 0, "count");
  M.put("term.nodes", 0, "count");
  M.put("term.kid_arena_bytes", 0, "bytes");
  M.put("trace.spans", 0, "count");
  M.put("trace.verdict_p50_ms", 0, "ms");
  M.put("trace.wall_s", 0, "s");
}

bool benignUnknown(ErrorCode C) {
  return C == ErrorCode::None || C == ErrorCode::Timeout ||
         C == ErrorCode::ResourceExhaustedSteps;
}

//===----------------------------------------------------------------------===
// Tracer
//===----------------------------------------------------------------------===

void Tracer::open(const std::string &Path) {
  Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
  Epoch = Clock::now();
}

Tracer::~Tracer() {
  if (Out)
    std::fclose(Out);
}

Tracer::Span::Span(Tracer &T, const char *Name, const std::string &Request)
    : T(T), Name(Name), Request(Request), Id(T.NextId++), Parent(T.Current),
      Start(Clock::now()) {
  T.Current = Id;
}

Tracer::Span::~Span() {
  T.Current = Parent;
  T.emit(Name, Request, Id, Parent, Start, Clock::now());
}

void Tracer::record(const char *Name, const std::string &Request,
                    Clock::time_point Start, Clock::time_point End) {
  emit(Name, Request, NextId++, Current, Start, End);
}

void Tracer::emit(const char *Name, const std::string &Request, uint64_t Id,
                  uint64_t Parent, Clock::time_point Start,
                  Clock::time_point End) {
  ++Count;
  double Ms = msBetween(Start, End);
  auto It = std::find_if(Totals.begin(), Totals.end(),
                         [&](const auto &P) { return P.first == Name; });
  if (It == Totals.end())
    Totals.emplace_back(Name, Ms);
  else
    It->second += Ms;
  if (!Out)
    return;
  auto Us = [&](Clock::time_point P) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::microseconds>(P - Epoch)
            .count());
  };
  std::fprintf(Out,
               "{\"name\": \"%s\", \"start_us\": %lld, \"end_us\": %lld, "
               "\"id\": %llu, \"parent\": %llu, \"request\": \"%s\"}\n",
               Name, Us(Start), Us(End), static_cast<unsigned long long>(Id),
               static_cast<unsigned long long>(Parent), Request.c_str());
}

double Tracer::totalMs(const std::string &Name) const {
  for (const auto &P : Totals)
    if (P.first == Name)
      return P.second;
  return 0;
}

//===----------------------------------------------------------------------===
// Alpha-renaming
//===----------------------------------------------------------------------===

namespace {

std::string freshName(uint64_t Salt, size_t Index) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "r%llx_%zu",
                static_cast<unsigned long long>(Salt & 0xffffff), Index);
  return Buf;
}

/// Splits SMT-LIB text into parens, symbols and whitespace runs, so the
/// text can be reassembled byte-for-byte with some symbols swapped.
std::vector<std::string> tokenize(const std::string &Text) {
  std::vector<std::string> Toks;
  size_t I = 0;
  while (I < Text.size()) {
    char C = Text[I];
    size_t J = I + 1;
    if (C == '(' || C == ')') {
    } else if (C == ';') {
      while (J < Text.size() && Text[J] != '\n')
        ++J;
    } else if (std::isspace(static_cast<unsigned char>(C))) {
      while (J < Text.size() &&
             std::isspace(static_cast<unsigned char>(Text[J])))
        ++J;
    } else {
      while (J < Text.size() && Text[J] != '(' && Text[J] != ')' &&
             !std::isspace(static_cast<unsigned char>(Text[J])))
        ++J;
    }
    Toks.push_back(Text.substr(I, J - I));
    I = J;
  }
  return Toks;
}

bool isSpace(const std::string &T) {
  return !T.empty() && (std::isspace(static_cast<unsigned char>(T[0])) ||
                        T[0] == ';');
}

} // namespace

std::string alphaRenameSmtLib(const std::string &Text, uint64_t Salt) {
  std::vector<std::string> Toks = tokenize(Text);
  std::map<std::string, std::string> Map;
  auto NextSym = [&](size_t I) {
    while (I < Toks.size() && isSpace(Toks[I]))
      ++I;
    return I;
  };
  for (size_t I = 0; I < Toks.size(); ++I) {
    if (Toks[I] == "declare-fun") {
      size_t J = NextSym(I + 1);
      if (J < Toks.size() && !Map.count(Toks[J]))
        Map.emplace(Toks[J], freshName(Salt, Map.size()));
    } else if (Toks[I] == "forall" || Toks[I] == "exists") {
      // (forall ((name Sort) (name Sort) ...) body)
      size_t J = NextSym(I + 1);
      if (J >= Toks.size() || Toks[J] != "(")
        continue;
      for (J = NextSym(J + 1); J < Toks.size() && Toks[J] == "(";) {
        size_t Name = NextSym(J + 1);
        if (Name < Toks.size() && !Map.count(Toks[Name]))
          Map.emplace(Toks[Name], freshName(Salt, Map.size()));
        size_t K = Name;
        while (K < Toks.size() && Toks[K] != ")")
          ++K;
        J = NextSym(K + 1);
      }
    }
  }
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 4);
  for (const std::string &T : Toks) {
    auto It = Map.find(T);
    Out += It == Map.end() ? T : It->second;
  }
  return Out;
}

//===----------------------------------------------------------------------===
// BTOR2 machines
//===----------------------------------------------------------------------===

namespace {

std::string num(unsigned long long V) { return std::to_string(V); }

/// Counter at width W: "safe" saturates 5 below the top (bad one above the
/// saturation point, unreachable); "unsafe" runs free from 0 (bad at 5,
/// depth 5); "wrap" starts 2 below the top (bad at 1, reachable only
/// through the wrap-around case split).
std::string counterMachine(unsigned W, const std::string &Mode) {
  unsigned long long Top = W >= 64 ? ~0ull : (1ull << W) - 1;
  std::string T =
      "1 sort bitvec " + num(W) + "\n2 state 1 c\n8 sort bitvec 1\n";
  if (Mode == "safe") {
    T += "3 zero 1\n4 init 1 2 3\n5 constd 1 " + num(Top - 5) + "\n";
    T += "9 ult 8 2 5\n10 inc 1 2\n11 ite 1 9 10 2\n12 next 1 2 11\n";
    T += "13 constd 1 " + num(Top - 4) + "\n14 eq 8 2 13\n15 bad 14\n";
  } else if (Mode == "unsafe") {
    T += "3 zero 1\n4 init 1 2 3\n10 inc 1 2\n12 next 1 2 10\n";
    T += "13 constd 1 5\n14 eq 8 2 13\n15 bad 14\n";
  } else {
    T += "3 constd 1 " + num(Top - 1) + "\n4 init 1 2 3\n";
    T += "10 inc 1 2\n12 next 1 2 10\n";
    T += "13 constd 1 1\n14 eq 8 2 13\n15 bad 14\n";
  }
  return T;
}

/// FIFO occupancy tracker of depth D with push/pop inputs; the environment
/// never pushes when full nor pops when empty, so cnt <= D holds.
std::string fifoMachine(unsigned D) {
  std::string T = "1 sort bitvec 8\n2 sort bitvec 1\n3 state 1 cnt\n";
  T += "4 input 2 push\n5 input 2 pop\n6 zero 1\n7 init 1 3 6\n";
  T += "8 constd 1 " + num(D) + "\n";
  T += "9 inc 1 3\n10 dec 1 3\n11 ite 1 5 10 3\n12 ite 1 5 3 9\n";
  T += "13 ite 1 4 12 11\n14 next 1 3 13\n";
  T += "15 ugte 2 3 8\n16 and 2 4 15\n17 not 2 16\n18 constraint 17\n";
  T += "19 zero 1\n20 eq 2 3 19\n21 and 2 5 20\n22 not 2 21\n";
  T += "23 constraint 22\n24 ugt 2 3 8\n25 bad 24\n";
  return T;
}

} // namespace

std::vector<std::string> btor2Machines() {
  std::vector<std::string> Ms;
  for (unsigned W : {8u, 16u, 32u, 64u})
    for (const char *Mode : {"safe", "unsafe", "wrap"})
      Ms.push_back(counterMachine(W, Mode));
  for (unsigned D : {4u, 8u, 16u, 32u})
    Ms.push_back(fifoMachine(D));
  return Ms;
}

namespace {

CertCheck checkOne(const CertJob &J, TermContext &C) {
  NormalizedChc N = J.Build(C);
  TermRef Cert = ResultStore::parseCert(C, N, J.Cert, nullptr);
  if (!Cert.isValid())
    return CertCheck::Rejected;
  if (J.Status == ChcStatus::Sat)
    return verifyInvariant(C, N, Cert) ? CertCheck::Ok : CertCheck::Rejected;
  if (verifyCexPiece(C, N, Cert, J.Depth + 2))
    return CertCheck::Ok;
  for (int K = 2 * (J.Depth + 2); K <= 64; K *= 2)
    if (verifyCexPiece(C, N, Cert, K))
      return CertCheck::DepthUnderstated;
  return CertCheck::Rejected;
}

/// One row of the table the checking processes share.
struct CheckSlot {
  std::atomic<bool> Done;
  CertResult Result;
  Clock::time_point Start, End;
};

} // namespace

std::vector<CertResult> checkCertificates(Tracer &T,
                                          const std::vector<CertJob> &Jobs,
                                          unsigned Procs) {
  // A shared anonymous mapping: the next job to take, then one slot per
  // job. Every process takes jobs until none is left.
  size_t Bytes = sizeof(CheckSlot) * (Jobs.size() + 1);
  void *Mem = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    throw std::runtime_error("cannot map the certificate check table");
  auto *Next = new (Mem) std::atomic<size_t>(0);
  CheckSlot *Slots = static_cast<CheckSlot *>(Mem) + 1;
  for (size_t I = 0; I < Jobs.size(); ++I)
    new (&Slots[I]) CheckSlot{{false}, {}, {}, {}};
  auto Work = [&] {
    for (size_t I; (I = Next->fetch_add(1)) < Jobs.size();) {
      CheckSlot &S = Slots[I];
      S.Start = Clock::now();
      TermContext C;
      try {
        S.Result.Check = checkOne(Jobs[I], C);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench: checking %s threw: %s\n",
                     Jobs[I].Id.c_str(), E.what());
        S.Result.Check = CertCheck::Rejected;
      }
      S.Result.Nodes = C.numTerms();
      S.Result.KidBytes = C.kidArenaBytes();
      S.End = Clock::now();
      S.Done.store(true);
      double Ms = msBetween(S.Start, S.End);
      if (Ms > 500)
        std::fprintf(stderr, "perfbench: slow certificate check: %s %.0f ms\n",
                     Jobs[I].Id.c_str(), Ms);
    }
  };
  std::vector<pid_t> Pids;
  for (unsigned P = 1; P < Procs && P < Jobs.size(); ++P) {
    pid_t Pid = fork();
    if (Pid == 0) {
      Work();
      _exit(0);
    }
    if (Pid < 0) // This process takes the jobs the missing ones would have.
      break;
    Pids.push_back(Pid);
  }
  Work();
  for (pid_t Pid : Pids)
    while (waitpid(Pid, nullptr, 0) < 0 && errno == EINTR)
      ;
  std::vector<CertResult> Out(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!Slots[I].Done.load()) {
      std::fprintf(stderr, "perfbench: the process checking %s died\n",
                   Jobs[I].Id.c_str());
      continue;
    }
    Out[I] = Slots[I].Result;
    T.record("solver.verify", Jobs[I].Id, Slots[I].Start, Slots[I].End);
  }
  munmap(Mem, Bytes);
  return Out;
}

void replayFrontEnd(Tracer &T, const std::vector<std::string> &SmtTexts,
                    const std::vector<std::string> &BtorTexts, Metrics &M) {
  const char *const Layers[] = {"chc.parse", "chc.preprocess",
                                "chc.normalize", "chc.fingerprint",
                                "ts.parse"};
  std::map<std::string, std::vector<double>> Passes;
  for (int Pass = 0; Pass < 3; ++Pass) {
    std::map<std::string, double> Before;
    for (const char *L : Layers)
      Before[L] = T.totalMs(L);
    for (size_t I = 0; I < SmtTexts.size(); ++I) {
      std::string Id = "smt" + std::to_string(I);
      TermContext C;
      ParseResult Parsed = [&] {
        Tracer::Span S(T, "chc.parse", Id);
        return parseChc(C, SmtTexts[I]);
      }();
      if (!Parsed.Ok)
        continue;
      ChcSystem Work = [&] {
        Tracer::Span S(T, "chc.preprocess", Id);
        return preprocess(*Parsed.System);
      }();
      NormalizeResult NR = [&] {
        Tracer::Span S(T, "chc.normalize", Id);
        return normalize(Work);
      }();
      Tracer::Span S(T, "chc.fingerprint", Id);
      (void)fingerprintNormalized(C, NR.Sys);
    }
    for (size_t I = 0; I < BtorTexts.size(); ++I) {
      std::string Id = "btor" + std::to_string(I);
      TermContext C;
      Tracer::Span S(T, "ts.parse", Id);
      Btor2Result BR = parseBtor2(C, BtorTexts[I]);
      if (BR.Ok)
        (void)BR.Ts->encodeChc();
    }
    for (auto &[L, B] : Before)
      Passes[L].push_back(T.totalMs(L) - B);
  }
  for (auto &[L, V] : Passes)
    M.put(L + "_ms", median(V), "ms");
}

void replayStore(
    Tracer &T, const std::string &Dir,
    const std::vector<std::pair<std::string, ResultStore::Entry>> &Entries,
    Metrics &M) {
  {
    ResultStore S(Dir);
    for (const auto &[Fp, E] : Entries) {
      Tracer::Span Sp(T, "runtime.store_insert", Fp);
      S.insert(Fp, E);
    }
  }
  ResultStore S(Dir);
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const auto &[Fp, E] : Entries) {
      Tracer::Span Sp(T, "runtime.store_lookup", Fp);
      (void)S.lookup(Fp);
    }
  M.put("runtime.store_insert_ms", T.totalMs("runtime.store_insert"), "ms");
  M.put("runtime.store_lookup_ms", T.totalMs("runtime.store_lookup"), "ms");
}

#ifdef PERFBENCH_GPROF
extern "C" void moncontrol(int Mode); // glibc; not declared in sys/gmon.h.
void profiling(bool On) { moncontrol(On ? 1 : 0); }
#else
void profiling(bool) {}
#endif

double selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

} // namespace perfbench

// perfbench: one end-to-end benchmark for both engines of the translator.
//
//   perfbench --workload compile|apps_interp|apps_c --seed N --seconds S
//             --trace 0|1 [--root DIR]
//
// --root names the source checkout (default: the current directory);
// scratch files go to <root>/.bench_build/perfbench/work, the report and
// the traced run's spans next to it.
//
// Each workload is a closed loop with one client (this process):
//   compile      compiles a seeded corpus one program at a time, the way
//                `mmc --emit-c -O1` does (fresh Translator, so compose
//                runs every time; translate; emitC)
//   apps_interp  runs the paper's programs on the interpreter with the
//                fork-join pool at 4 threads, compiled once in setup
//   apps_c       runs the same programs (minus conncomp, which is
//                interpreter-only) as emitted C built with cc -fopenmp,
//                as child processes with OMP_NUM_THREADS=4
//
// Every output is checked against an oracle that does not use the
// compiler. The last stdout line is one JSON object: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics, gathered in a
// separate traced pass over the same inputs.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <utility>

#include "bench_stats.hpp"
#include "corpus.hpp"
#include "interp/interp.hpp"
#include "oracles.hpp"
#include "pipeline.hpp"
#include "probe.hpp"
#include "proc.hpp"
#include "runtime/backend.hpp"
#include "runtime/matio.hpp"
#include "runtime/memsys.hpp"
#include "runtime/ssh_synth.hpp"
#include "statslib.hpp"
#include "support/metrics.hpp"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

using namespace mmx;

constexpr unsigned kThreads = 4;     // program threads (interp pool, OMP)
constexpr int kSetupReps = 5;        // setups per run at least; setup_s is
constexpr double kSetupMinS = 2;     // their median, over this long at least
constexpr int kSmallGenerated = 10;  // generated programs in the small class
constexpr double kExecTimeoutS = 20; // one execution or compile
constexpr double kCcTimeoutS = 60;   // one cc invocation
constexpr double kSmallShare = 0.4;  // of the compile loop: small class
constexpr int kDefectRuns = 3;       // runs of apps_c's known defect
const char* kCcFlags[] = {"-O2", "-std=gnu99", "-msse4.2", "-fopenmp"};

// ---- statistics ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = size_t(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / double(v.size()));
}

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path root = ".";
};

bool parseArgs(int argc, char** argv, Options& o, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + a;
      return false;
    }
    std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v != "0";
    else if (a == "--root") o.root = v;
    else {
      err = "unknown argument " + a;
      return false;
    }
  }
  if (o.workload != "compile" && o.workload != "apps_interp" &&
      o.workload != "apps_c") {
    err = "--workload must be compile, apps_interp or apps_c";
    return false;
  }
  if (!(o.seconds > 0)) {
    err = "--seconds must be positive";
    return false;
  }
  return true;
}

// ---- operation log -------------------------------------------------------

/// Outcomes of the operations on one program: one compile or one execution
/// each. Failed operations are left out of the timings and never retried.
struct OpLog {
  std::vector<double> ms;
  std::vector<size_t> probeAt; // probe samples taken before each op ended
  int attempted = 0;
  int failed = 0;
  std::map<std::string, int> failures; // failure class -> count
  std::string firstFailure;
};

/// Per-layer work the traced pass observed, beyond what its spans hold.
struct Layers {
  std::map<std::string, LayerCounts> perProgram; // distinct programs
  // interpreter runtime, summed over executions with metrics enabled
  int interpRuns = 0;
  double matmulFlops = 0;
  double cpuUserS = 0, cpuSysS = 0;
  uint64_t cacheHits = 0, cacheMisses = 0;
  // emitted-C runtime, summed over --instrument=counters executions
  int crtRuns = 0;
  double crtAllocs = 0, crtMatmulNs = 0, crtBusyNs = 0, crtSysS = 0;
  double ccBinaryBytes = 0;
  int ccBuilds = 0;
};

// The run ends when one in-process operation (a compile or an
// interpretation) outlasts kExecTimeoutS. A hung call in this process
// cannot be cancelled, so SIGALRM names it on stderr and exits 124 without
// a result. Child processes are killed and counted instead.
char gInFlight[256]; // the operation the alarm is armed for

extern "C" void onTimeout(int) {
  const char head[] = "perfbench: timeout: ";
  ssize_t w = write(STDERR_FILENO, head, sizeof head - 1);
  w += write(STDERR_FILENO, gInFlight, std::strlen(gInFlight));
  w += write(STDERR_FILENO, "\n", 1);
  (void)w;
  _exit(124);
}

void armTimeout(const std::string& what) {
  std::snprintf(gInFlight, sizeof gInFlight, "%s", what.c_str());
  alarm(unsigned(kExecTimeoutS));
}
void disarmTimeout() { alarm(0); }

struct Ctx {
  Options opt;
  Tracer tracer{false};
  std::map<std::string, OpLog> log;
  Layers layers;
  std::vector<double> setupS; // raw
  // Setup runs on one thread (compose, compile, synthesis, cc), the
  // programs on the workload's threads: each gets a probe of its width.
  HostProbe setupProbe{1}; // sampled around each setup
  HostProbe probe;         // sampled through the untraced timed loop
  double peakChildRssKb = 0;
  fs::path apps;                          // perfbench/apps
  std::map<std::string, int> ids;         // span program id per name
  std::vector<size_t> programBytes;       // source size per program id
  /// The workload's programs: their median op times make up op_ms.
  std::vector<std::string> programs;
  /// Executions of a known defect, kept out of the operations (apps_c).
  std::map<std::string, OpLog> defects;

  /// A stable id per program, for the spans.
  int registerProgram(const Program& p) {
    auto [it, fresh] = ids.emplace(p.name, int(programBytes.size()));
    if (fresh) programBytes.push_back(p.source.size());
    return it->second;
  }
  OpLog& at(const std::string& name) { return log[name]; }
  void ok(const std::string& name, double ms, bool timed) {
    OpLog& l = at(name);
    ++l.attempted;
    if (!timed) return;
    l.ms.push_back(ms);
    l.probeAt.push_back(probe.count());
  }
  void fail(const std::string& name, Fail f, const std::string& why) {
    OpLog& l = at(name);
    ++l.attempted;
    ++l.failed;
    ++l.failures[failName(f)];
    if (l.firstFailure.empty()) l.firstFailure = why.substr(0, 300);
  }
  /// Compiles `p` under a span of its own, recording the layer counts of
  /// traced compiles.
  Compiled compile(const Program& p, const CompileRequest& req) {
    int id = registerProgram(p);
    Compiled out;
    armTimeout("compiling " + p.name);
    {
      SpanScope s(&tracer, "op", id);
      out = compileProgram(p, req, &tracer, id);
    }
    disarmTimeout();
    if (out.ok && tracer.on()) layers.perProgram[p.name] = out.counts;
    return out;
  }
};

// ---- executions ----------------------------------------------------------

/// A compiled program ready to execute on either engine, with the check
/// its output must pass.
struct Runnable {
  Program prog;
  Compiled compiled;
  fs::path binary; // emitted-C engine only
  std::function<oracle::Verdict(const std::string& stdoutText)> check;
};

std::string outputFile(const Program& p) {
  return "out_" + p.name.substr(p.name.find('/') + 1) + ".mmx";
}

std::unique_ptr<rt::Executor> makeExecutor() {
  rt::RuntimeConfig cfg;
  cfg.executor = rt::ExecutorKind::ForkJoin;
  cfg.threads = kThreads;
  return cfg.make();
}

/// Interprets `r` once, timing runMain. With `metricsOn` the metrics
/// registry is enabled around the execution only (never around
/// translate, where it would turn on the depend pass).
void runInterp(Ctx& c, Runnable& r, bool metricsOn, bool timed) {
  std::error_code ec;
  fs::remove(outputFile(r.prog), ec);
  // A pool per execution, started before the timed window and joined when
  // this returns: no pool thread is alive while the host-speed probe runs
  // between operations, so the probe does not depend on the pool.
  std::unique_ptr<rt::Executor> exec = makeExecutor();
  interp::Machine vm(*r.compiled.module, *exec);
  vm.setBoundsChecks(r.compiled.bounds, r.compiled.plan);
  rusage ru0{}, ru1{};
  rt::MsCacheStats cs0 = rt::msCacheStats();
  getrusage(RUSAGE_SELF, &ru0);
  if (metricsOn) metrics::enable(true);
  int code = 0;
  std::string error;
  armTimeout("running " + r.prog.name);
  uint64_t t0 = nowNs();
  {
    SpanScope s(&c.tracer, "interp", c.registerProgram(r.prog));
    try {
      code = vm.runMain();
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  double ms = double(nowNs() - t0) / 1e6;
  disarmTimeout();
  if (metricsOn) {
    metrics::enable(false);
    getrusage(RUSAGE_SELF, &ru1);
    rt::MsCacheStats cs1 = rt::msCacheStats();
    Layers& L = c.layers;
    ++L.interpRuns;
    L.matmulFlops += r.prog.matmulFlops;
    L.cacheHits += cs1.hits - cs0.hits;
    L.cacheMisses += cs1.misses - cs0.misses;
    L.cpuUserS += double(ru1.ru_utime.tv_sec - ru0.ru_utime.tv_sec) +
                  double(ru1.ru_utime.tv_usec - ru0.ru_utime.tv_usec) / 1e6;
    L.cpuSysS += double(ru1.ru_stime.tv_sec - ru0.ru_stime.tv_sec) +
                 double(ru1.ru_stime.tv_usec - ru0.ru_stime.tv_usec) / 1e6;
  }
  if (!error.empty())
    return c.fail(r.prog.name, Fail::NonzeroExit, "runtime error: " + error);
  if (code != 0)
    return c.fail(r.prog.name, Fail::NonzeroExit,
                  "exit code " + std::to_string(code));
  if (oracle::Verdict v = r.check(vm.output()); !v.empty())
    return c.fail(r.prog.name, Fail::WrongOutput, v);
  c.ok(r.prog.name, ms, timed);
}

/// Runs the emitted-C binary of `r` once as a child process, timing spawn
/// to exit. An instrumented binary's $MMX_PROF_JSON feeds the crt.* layer.
void runChild(Ctx& c, Runnable& r, bool instrumented, bool timed) {
  std::error_code ec;
  fs::remove(outputFile(r.prog), ec);
  std::vector<std::string> env = {"OMP_NUM_THREADS=" +
                                  std::to_string(kThreads)};
  const std::string prof = "prof.json";
  if (instrumented) {
    fs::remove(prof, ec);
    env.push_back("MMX_PROF_JSON=" + prof);
  }
  ProcResult p;
  {
    SpanScope s(&c.tracer, "crt", c.registerProgram(r.prog));
    p = runProcess({fs::absolute(r.binary).string()}, env, kExecTimeoutS,
                   "child");
  }
  if (p.fail == Fail::NonzeroExit)
    return c.fail(r.prog.name, p.fail,
                  "exit " + std::to_string(p.exitCode) + ": " + p.err);
  if (p.fail == Fail::Signal)
    return c.fail(r.prog.name, p.fail, "signal " + std::to_string(p.signal));
  if (p.fail == Fail::Timeout)
    return c.fail(r.prog.name, p.fail, "killed after the execution timeout");
  if (oracle::Verdict v = r.check(p.out); !v.empty())
    return c.fail(r.prog.name, Fail::WrongOutput, v);
  if (instrumented) {
    stats::Json doc;
    std::string err;
    if (!stats::parseJson(slurp(prof), doc, err))
      return c.fail(r.prog.name, Fail::WrongOutput, prof + ": " + err);
    std::map<std::string, double> j = stats::flatten(doc);
    Layers& L = c.layers;
    ++L.crtRuns;
    L.crtAllocs += j["rt.alloc.count"];
    L.crtMatmulNs += j["kernel.matmul.ns"];
    for (const auto& [k, v] : j)
      if (k.rfind("omp.t", 0) == 0 && k.size() > 8 &&
          k.compare(k.size() - 8, 8, ".busy_ns") == 0)
        L.crtBusyNs += v;
    L.crtSysS += p.sysS;
  }
  // Like the timings, peak RSS comes from successful executions only.
  c.peakChildRssKb = std::max(c.peakChildRssKb, double(p.maxRssKb));
  c.ok(r.prog.name, p.wallMs, timed);
}

/// Builds the emitted C of `r` into `binary` with the system compiler.
bool buildC(Ctx& c, Runnable& r, const std::string& binary) {
  if (!r.compiled.emitted) {
    c.fail(r.prog.name, Fail::Translate, r.compiled.c);
    return false;
  }
  const std::string src = binary + ".c";
  {
    std::ofstream out(src, std::ios::binary);
    out << r.compiled.c;
  }
  std::vector<std::string> argv = {"cc"};
  for (const char* f : kCcFlags) argv.push_back(f);
  argv.insert(argv.end(), {src, "-o", binary, "-lm"});
  ProcResult p;
  {
    SpanScope s(&c.tracer, "cc", c.registerProgram(r.prog));
    p = runProcess(argv, {}, kCcTimeoutS, "cc");
  }
  if (p.fail != Fail::None) {
    c.fail(r.prog.name, Fail::Translate, "cc failed: " + p.err);
    return false;
  }
  r.binary = binary;
  std::error_code ec;
  c.layers.ccBinaryBytes += double(fs::file_size(binary, ec));
  ++c.layers.ccBuilds;
  return true;
}

// ---- the app programs ----------------------------------------------------

/// Input sizes of one app workload. The interpreter runs scalar code about
/// a hundred times slower than emitted C, so each engine gets its own.
struct AppSizes {
  int64_t mean[3], conncomp[3], eddy[3];
  int chainM, chainN, mmN;
};
// temporal_mean's field is 2.4 MB (interp) and 16.8 MB (C): beyond one
// core's 2 MiB L2 in both.
// chain's total stays below 2^24 in both (exact in float).
constexpr AppSizes kInterpSizes = {{96, 96, 64}, {128, 128, 32}, {20, 20, 48},
                                   600, 600, 768};
constexpr AppSizes kCSizes = {{256, 256, 64}, {128, 128, 32}, {64, 64, 64},
                              1400, 1400, 768};
constexpr float kConnThreshold = -0.2f;

oracle::Field toField(const rt::Matrix& m) {
  oracle::Field f;
  f.nlat = m.dim(0);
  f.nlon = m.dim(1);
  f.ntime = m.dim(2);
  f.v.assign(m.f32(), m.f32() + m.dim(0) * m.dim(1) * m.dim(2));
  return f;
}

/// The output matrix an app wrote, or a reason it is missing.
std::optional<rt::Matrix> readOutput(const std::string& app, std::string& why) {
  try {
    return rt::readMatrixFile("out_" + app + ".mmx");
  } catch (const std::exception& e) {
    why = std::string("cannot read output: ") + e.what();
    return std::nullopt;
  }
}

using Check = std::function<oracle::Verdict(const std::string&)>;

/// Checks a matrix output of `app` of the given element kind and rank
/// against a reference computed on first use, so its cost stays out of
/// setup_s and out of every timing.
template <typename Ref, typename Cmp>
Check matrixCheck(const std::string& app, rt::Elem elem, uint32_t rank,
                  std::function<Ref()> compute, Cmp cmp) {
  auto ref = std::make_shared<std::optional<Ref>>();
  return [=](const std::string&) -> oracle::Verdict {
    if (!*ref) *ref = compute();
    std::string why;
    auto out = readOutput(app, why);
    if (!out) return why;
    if (out->elem() != elem || out->rank() != rank)
      return "output has the wrong element kind or rank";
    return cmp(**ref, *out);
  };
}

/// Synthesises every app's inputs from the seed into the current
/// directory (where the programs read them) and returns the output checks.
std::map<std::string, Check> synthesizeApps(uint64_t seed, const AppSizes& sz) {
  auto field = [&](const int64_t* d, uint64_t k, const char* path) {
    rt::SshParams p;
    p.nlat = d[0];
    p.nlon = d[1];
    p.ntime = d[2];
    p.seed = seed * 8 + k;
    p.numEddies = 6;
    rt::Matrix m = rt::synthesizeSsh(p);
    rt::writeMatrixFile(path, m);
    return std::make_shared<oracle::Field>(toField(m));
  };
  auto ints = [](const char* path, std::vector<int32_t> v) {
    rt::Matrix m = rt::Matrix::zeros(rt::Elem::I32, {int64_t(v.size())});
    std::copy(v.begin(), v.end(), m.i32());
    rt::writeMatrixFile(path, m);
  };
  auto size = [](const rt::Matrix& m) {
    size_t n = 1;
    for (int64_t d : m.dims()) n *= size_t(d);
    return n;
  };
  std::map<std::string, Check> checks;

  auto mean = field(sz.mean, 1, "ssh_mean.mmx");
  checks["temporal_mean"] = matrixCheck<std::vector<double>>(
      "temporal_mean", rt::Elem::F32, 2,
      [mean] { return oracle::temporalMean(*mean); },
      [size](const std::vector<double>& ref, const rt::Matrix& out) {
        return oracle::checkTemporalMean(ref, out.f32(), size(out));
      });

  auto conn = field(sz.conncomp, 2, "ssh_conncomp.mmx");
  checks["conncomp"] = matrixCheck<std::vector<int32_t>>(
      "conncomp", rt::Elem::I32, 3,
      [conn] { return oracle::componentLabels(*conn, kConnThreshold); },
      [conn, size](const std::vector<int32_t>& ref, const rt::Matrix& out) {
        if (size(out) != ref.size()) return std::string("output shape differs");
        return oracle::checkComponents(ref, out.i32(), *conn);
      });

  auto eddy = field(sz.eddy, 3, "ssh_eddy.mmx");
  checks["eddy_score"] = matrixCheck<std::vector<float>>(
      "eddy_score", rt::Elem::F32, 3,
      [eddy] { return oracle::eddyScores(*eddy); },
      [size](const std::vector<float>& ref, const rt::Matrix& out) {
        return oracle::checkEddyScores(ref, out.f32(), size(out));
      });

  ints("params_chain.mmx", {sz.chainM, sz.chainN});
  double chainRef = oracle::chainTotal(sz.chainM, sz.chainN);
  checks["chain"] = [chainRef](const std::string& printed) {
    return oracle::checkScalar(chainRef, printed, 0);
  };

  // matmul's operands: uniform in [-1, 1) from the seed.
  auto operand = [&](uint64_t k, const char* path) {
    Rng r(seed * 8 + k);
    auto v = std::make_shared<std::vector<float>>(size_t(sz.mmN) * sz.mmN);
    for (float& x : *v) x = float(r.next() >> 40) / float(1 << 23) - 1.0f;
    rt::writeMatrixFile(path, rt::Matrix::fromF32({sz.mmN, sz.mmN}, *v));
    return v;
  };
  auto a = operand(4, "mat_a.mmx"), b = operand(5, "mat_b.mmx");
  int n = sz.mmN;
  checks["matmul"] = matrixCheck<std::vector<double>>(
      "matmul", rt::Elem::F32, 2,
      [a, b, n] { return oracle::matmul(*a, *b, n); },
      [size](const std::vector<double>& ref, const rt::Matrix& out) {
        return oracle::checkMatmul(ref, out.f32(), size(out));
      });
  return checks;
}

Program loadApp(const Ctx& c, const std::string& name) {
  Program p;
  p.name = "app/" + name;
  p.cls = "app";
  p.source = slurp((c.apps / (name + ".xc")).string());
  if (p.source.empty())
    throw std::runtime_error("cannot read " + (c.apps / (name + ".xc")).string());
  return p;
}

/// The apps each engine runs: conncomp is interpreter-only in emitted C,
/// and eddy_score's emitted C is a known defect (see runKnownDefect).
std::vector<std::string> appNames(bool emitC) {
  if (emitC) return {"temporal_mean", "chain", "matmul"};
  return {"temporal_mean", "conncomp", "eddy_score", "chain", "matmul"};
}

/// Synthesises the inputs and compiles `names` for one engine (building
/// the emitted C with cc) — the setup the app workloads time as setup_s.
std::vector<Runnable> setupApps(Ctx& c, bool emitC,
                                ir::InstrumentMode instrument,
                                const std::vector<std::string>& names) {
  const AppSizes& sz = emitC ? kCSizes : kInterpSizes;
  std::map<std::string, Check> checks = synthesizeApps(c.opt.seed, sz);
  std::vector<Runnable> out;
  for (const std::string& name : names) {
    Runnable r;
    r.prog = loadApp(c, name);
    r.check = checks.at(name);
    if (name == "matmul")
      r.prog.matmulFlops = 2.0 * double(sz.mmN) * sz.mmN * sz.mmN;
    CompileRequest req;
    req.emit = emitC;
    req.instrument = instrument;
    r.compiled = c.compile(r.prog, req);
    if (!r.compiled.ok) {
      c.fail(r.prog.name, Fail::Translate, r.compiled.diagnostics);
      continue;
    }
    if (emitC) {
      std::string bin = "bin_" + name;
      if (instrument != ir::InstrumentMode::Off) bin += "_prof";
      if (!buildC(c, r, bin)) continue;
    }
    out.push_back(std::move(r));
  }
  return out;
}

// ---- timed regions -------------------------------------------------------

/// Runs `setup` kSetupReps times and for kSetupMinS at least, timing
/// each, and keeps the last result. The setup probe is sampled before,
/// between and after the setups; the median of its samples scales setup_s.
template <typename F>
auto timedSetup(Ctx& c, F&& setup) {
  decltype(setup()) result;
  const uint64_t end = nowNs() + uint64_t(kSetupMinS * 1e9);
  for (int i = 0; i < kSetupReps || nowNs() < end; ++i) {
    c.setupProbe.sample();
    uint64_t t0 = nowNs();
    result = setup();
    c.setupS.push_back(double(nowNs() - t0) / 1e9);
  }
  c.setupProbe.sample();
  return result;
}

/// Per-program timing sample counts at a point in the run.
using Mark = std::map<std::string, size_t>;
Mark mark(const Ctx& c) {
  Mark m;
  for (const auto& [k, l] : c.log) m[k] = l.ms.size();
  return m;
}

/// The timed region's marks: the untraced loop's samples lie between
/// `start` and `mid`, the traced loop's (--trace 1) between `mid` and `end`.
struct Timed {
  Mark start, mid, end;
  double scale = 1; // raw -> reference host speed, over the untraced loop
};

/// The samples of program `k` taken between two marks: raw, or scaled to
/// the reference host speed by the probe samples around each.
std::vector<double> window(const Ctx& c, const std::string& k, const Mark& a,
                           const Mark& b, bool scaled = false) {
  const OpLog& l = c.log.at(k);
  size_t from = a.count(k) ? a.at(k) : 0, to = b.count(k) ? b.at(k) : 0;
  std::vector<double> out;
  for (size_t i = from; i < to; ++i)
    out.push_back(scaled ? l.ms[i] * c.probe.scaleAround(l.probeAt[i])
                         : l.ms[i]);
  return out;
}

/// Runs `body(seconds, traced)` as the timed region. With --trace 1 the
/// untraced loop gets half the time and a traced loop (spans, metrics
/// around executions, instrumented binaries) the other half.
template <typename F>
Timed timedRegion(Ctx& c, F&& body) {
  Timed t;
  double s = c.opt.trace ? c.opt.seconds / 2 : c.opt.seconds;
  t.start = mark(c);
  c.probe.sample();
  body(s, false);
  t.end = t.mid = mark(c);
  t.scale = c.probe.scale();
  if (c.opt.trace) {
    metrics::reset();
    c.tracer = Tracer(true);
    body(s, true);
    t.end = mark(c);
  }
  return t;
}

/// How often the untraced loops sample the host-speed probe.
constexpr double kProbeIntervalMs = 100;

/// Round-robin closed loop over `progs` until `seconds` elapse; every
/// program runs at least once.
template <typename F>
void closedLoop(Ctx& c, std::vector<Runnable>& progs, double seconds,
                bool traced, F&& runOne) {
  uint64_t end = nowNs() + uint64_t(seconds * 1e9);
  for (bool first = true; first || nowNs() < end; first = false)
    for (Runnable& r : progs) {
      runOne(r);
      if (!traced) c.probe.sampleEvery(kProbeIntervalMs);
    }
}

/// eddy_score's emitted C races at 4 OMP threads: the matrixMap loop's
/// slice temporary is declared at function scope, so every thread writes
/// it (a src/ir/cemit.cpp defect). It crashes, fails at run time or, now
/// and then, passes, so its failure count could not repeat between runs:
/// it is no operation of apps_c. After the timed region it is built and
/// run kDefectRuns times at 4 threads, each run classified as an operation
/// would be, and the report lists the outcomes. Nothing of this reaches
/// the result line, the layers or the spans.
void runKnownDefect(Ctx& c) {
  auto log = std::exchange(c.log, {});
  const Layers layers = c.layers;
  Tracer tracer = std::exchange(c.tracer, Tracer(false));
  const double rss = c.peakChildRssKb;
  for (Runnable& r :
       setupApps(c, true, ir::InstrumentMode::Off, {"eddy_score"}))
    for (int i = 0; i < kDefectRuns; ++i) runChild(c, r, false, false);
  c.defects = std::exchange(c.log, std::move(log));
  c.layers = layers;
  c.tracer = std::move(tracer);
  c.peakChildRssKb = rss;
}

// ---- workloads -------------------------------------------------------------

Timed workloadApps(Ctx& c, bool emitC) {
  c.probe = HostProbe(kThreads); // the programs run on kThreads threads
  const auto names = appNames(emitC);
  for (const std::string& n : names) c.programs.push_back("app/" + n);
  std::vector<Runnable> progs = timedSetup(
      c, [&] { return setupApps(c, emitC, ir::InstrumentMode::Off, names); });
  // One untimed execution each computes the references.
  for (Runnable& r : progs) {
    if (emitC) runChild(c, r, false, false);
    else runInterp(c, r, false, false);
  }
  Timed t = timedRegion(c, [&](double s, bool traced) {
    std::vector<Runnable> tracedProgs;
    if (traced) // compiled again under spans; emitted C instrumented
      tracedProgs = setupApps(c, emitC,
                              emitC ? ir::InstrumentMode::Counters
                                    : ir::InstrumentMode::Off,
                              names);
    std::vector<Runnable>& set = traced ? tracedProgs : progs;
    closedLoop(c, set, s, traced, [&](Runnable& r) {
      if (emitC) runChild(c, r, traced, true);
      else runInterp(c, r, traced, true);
    });
  });
  if (c.opt.trace) {
    for (const std::string& n : names)
      if (std::string d = replicaCheck(loadApp(c, n), translatorPassOrder());
          !d.empty())
        c.fail("app/" + n, Fail::WrongOutput, "pipeline replica: " + d);
    // The other engine, once, on the GEMM-bound program, so every runtime
    // layer of both copies reports from this workload's traced run.
    if (emitC) {
      for (Runnable& r : setupApps(c, false, ir::InstrumentMode::Off, {"matmul"}))
        runInterp(c, r, true, false);
    } else {
      for (Runnable& r :
           setupApps(c, true, ir::InstrumentMode::Counters, {"matmul"}))
        runChild(c, r, true, false);
    }
  }
  if (emitC) runKnownDefect(c);
  return t;
}

Timed workloadCompile(Ctx& c) {
  const fs::path examples = c.opt.root / "examples" / "xc";
  std::vector<Program> corpus = timedSetup(c, [&] {
    std::vector<Program> v =
        makeCorpus(c.opt.seed, examples.string(), kSmallGenerated);
    compileProgram(v.front(), {}, nullptr, -1); // first-touch warm-up
    return v;
  });
  std::vector<Program*> small, large, generatedSmall;
  for (Program& p : corpus) {
    c.programs.push_back(p.name);
    (p.cls == "large" ? large : small).push_back(&p);
    if (p.cls == "small" && p.hasExpected) generatedSmall.push_back(&p);
  }

  // The first compile's emit artifact per program; every later compile
  // must reproduce it byte for byte.
  std::map<std::string, std::string> artifact;
  auto compileOnce = [&](Program& p, bool timed) {
    uint64_t t0 = nowNs();
    Compiled out = c.compile(p, {});
    double ms = double(nowNs() - t0) / 1e6;
    if (!out.ok) return c.fail(p.name, Fail::Translate, out.diagnostics);
    auto [it, fresh] = artifact.emplace(p.name, out.c);
    if (!fresh && it->second != out.c)
      return c.fail(p.name, Fail::WrongOutput,
                    "emitted C differs from the first compile");
    c.ok(p.name, ms, timed);
  };
  auto loop = [&](std::vector<Program*>& cls, double seconds, bool traced) {
    uint64_t end = nowNs() + uint64_t(seconds * 1e9);
    for (bool first = true; first || nowNs() < end; first = false)
      for (Program* p : cls) {
        if (!first && nowNs() >= end) break;
        compileOnce(*p, true);
        if (!traced) c.probe.sampleEvery(kProbeIntervalMs);
      }
  };
  Timed t = timedRegion(c, [&](double s, bool traced) {
    loop(small, s * kSmallShare, traced);
    loop(large, s * (1 - kSmallShare), traced);
  });
  // A program compiled only once gets a second, untimed compile, so every
  // program's emitted C is compared across two compiles.
  for (Program& p : corpus)
    if (c.at(p.name).attempted < 2) compileOnce(p, false);

  // Correctness sample: a seeded draw of generated programs, interpreted
  // and checked against the output the generator computed natively.
  Rng r(c.opt.seed ^ 0x5eedull);
  std::vector<Program*> sample = {generatedSmall.front(), large.front()};
  for (int i = 0; i < 2; ++i)
    sample.push_back(
        generatedSmall[size_t(r.range(1, int(generatedSmall.size()) - 1))]);
  for (Program* p : sample) {
    Runnable run;
    run.prog = *p;
    run.compiled = compileProgram(*p, {}, nullptr, -1);
    if (!run.compiled.ok) {
      c.fail(p->name, Fail::Translate, run.compiled.diagnostics);
      continue;
    }
    run.check = [expected = p->expected](const std::string& out) {
      return out == expected ? std::string()
                             : "printed output differs from the generator's";
    };
    runInterp(c, run, c.opt.trace, false);
    if (c.opt.trace && p == sample.front()) {
      // The emitted-C engine on the same program, built instrumented.
      CompileRequest req;
      req.instrument = ir::InstrumentMode::Counters;
      run.compiled = c.compile(*p, req);
      if (run.compiled.ok && buildC(c, run, "bin_sample"))
        runChild(c, run, true, false);
    }
  }
  if (c.opt.trace) {
    // The pipeline replica must equal Translator::translate + emitC on
    // every corpus program.
    for (Program& p : corpus)
      if (std::string d = replicaCheck(p, translatorPassOrder()); !d.empty())
        c.fail(p.name, Fail::WrongOutput, "pipeline replica: " + d);
  }
  return t;
}

// ---- reporting -----------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The spans as Chrome trace-event JSON (tid = program id).
std::string traceJson(const Tracer& t) {
  std::ostringstream o;
  o << "{\"traceEvents\": [";
  const std::vector<Span>& spans = t.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.program
      << ", \"ts\": " << num(double(s.start) / 1e3)
      << ", \"dur\": " << num(double(s.end - s.start) / 1e3)
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  o << "\n]}\n";
  return o.str();
}

std::string ccVersion() {
  ProcResult p = runProcess({"cc", "--version"}, {}, 30, "ccversion");
  std::string line = p.out.substr(0, p.out.find('\n'));
  return line.empty() ? "unknown" : line;
}

/// How much slower the traced loop ran than the untraced one: the
/// geometric mean over programs of the ratio of their median op times.
double overheadPct(const Ctx& c, const Timed& t) {
  std::vector<double> ratios;
  for (const auto& [k, l] : c.log) {
    std::vector<double> a = window(c, k, t.start, t.mid),
                        b = window(c, k, t.mid, t.end);
    if (!a.empty() && !b.empty()) ratios.push_back(median(b) / median(a));
  }
  return ratios.empty() ? 0 : (geomean(ratios) - 1) * 100;
}

/// The per-layer metrics of the traced pass (plus its samples).
std::vector<Metric> perLayer(const Ctx& c, const Timed& t) {
  std::map<std::string, double> self = c.tracer.selfMs();
  auto perCall = [&](const char* span) {
    size_t n = c.tracer.count(span);
    return n ? self[span] / double(n) : 0.0;
  };
  double parseBytes = 0, parseMs = 0;
  for (const Span& s : c.tracer.spans())
    if (s.name == "parse") {
      parseBytes += double(c.programBytes[size_t(s.program)]);
      parseMs += double(s.end - s.start) / 1e6;
    }
  LayerCounts sum;
  for (const auto& [k, v] : c.layers.perProgram) {
    sum.irLinesSema += v.irLinesSema;
    sum.irLinesOpt += v.irLinesOpt;
    sum.fused += v.fused;
    sum.tempsEliminated += v.tempsEliminated;
    sum.inplace += v.inplace;
    sum.autoparPromoted += v.autoparPromoted;
    sum.autoparBlocked += v.autoparBlocked;
    sum.demoted += v.demoted;
    sum.guardsElided += v.guardsElided;
    sum.guardsKept += v.guardsKept;
    sum.emitBytes += v.emitBytes;
  }
  metrics::Snapshot snap = metrics::snapshot(true);
  auto counter = [&](const char* name) {
    for (const auto& r : snap.counters)
      if (r.name == name) return double(r.value);
    return 0.0;
  };
  auto timerMs = [&](const char* name) {
    for (const auto& r : snap.timers)
      if (r.name == name) return double(r.totalNs) / 1e6;
    return 0.0;
  };
  auto hist = [&](const char* name, bool p99) {
    for (const auto& r : snap.histograms)
      if (r.name == name) return double(p99 ? r.p99 : r.p50);
    return 0.0;
  };
  const Layers& L = c.layers;
  auto perRun = [](double v, int n) { return n ? v / n : 0.0; };
  double kernelMs = timerMs("kernel.matmul");
  double regions = counter("pool.regions"),
         inlined = counter("pool.inlinedDispatches");
  return {
      {"compose.ms", "ms", perCall("compose")},
      {"parse.ms", "ms", perCall("parse")},
      {"parse.kbps", "KB/s", parseMs > 0 ? parseBytes / 1024 / (parseMs / 1e3) : 0},
      {"sema.ms", "ms", perCall("sema")},
      {"ir.lines.sema", "count", double(sum.irLinesSema)},
      {"ir.lines.opt", "count", double(sum.irLinesOpt)},
      {"optimizer.ms", "ms", perCall("optimizer")},
      {"optimizer.fused", "count", double(sum.fused)},
      {"optimizer.temps_eliminated", "count", double(sum.tempsEliminated)},
      {"optimizer.inplace", "count", double(sum.inplace)},
      {"optimizer.autopar_promoted", "count", double(sum.autoparPromoted)},
      {"optimizer.autopar_blocked", "count", double(sum.autoparBlocked)},
      {"parsafe.ms", "ms", perCall("parsafe")},
      {"parsafe.demoted", "count", double(sum.demoted)},
      {"shapecheck.ms", "ms", perCall("shapecheck")},
      {"shapecheck.guards_elided", "count", double(sum.guardsElided)},
      {"shapecheck.guards_kept", "count", double(sum.guardsKept)},
      {"emit.ms", "ms", perCall("emit")},
      {"emit.bytes", "bytes", double(sum.emitBytes)},
      {"cc.ms", "ms", perCall("cc")},
      {"cc.binary_bytes", "bytes", perRun(L.ccBinaryBytes, L.ccBuilds)},
      {"interp.ms", "ms", perCall("interp")},
      {"interp.stmts", "count", perRun(counter("interp.stmts"), L.interpRuns)},
      {"kernel.matmul.ms", "ms", perRun(kernelMs, L.interpRuns)},
      {"kernel.matmul.gflops", "GFLOP/s",
       kernelMs > 0 ? L.matmulFlops / (kernelMs / 1e3) / 1e9 : 0},
      {"alloc.count", "count", perRun(counter("rt.alloc.count"), L.interpRuns)},
      {"alloc.hit_ratio", "ratio",
       L.cacheHits + L.cacheMisses
           ? double(L.cacheHits) / double(L.cacheHits + L.cacheMisses)
           : 0},
      {"alloc.peak_bytes", "bytes", counter("rt.alloc.peakBytes")},
      {"pool.regions", "count", perRun(regions, L.interpRuns)},
      {"pool.inlined_ratio", "ratio",
       regions + inlined > 0 ? inlined / (regions + inlined) : 0},
      {"pool.task_latency_ns.p50", "ns", hist("pool.task.latency_ns", false)},
      {"pool.task_latency_ns.p99", "ns", hist("pool.task.latency_ns", true)},
      {"pool.cpu_user_s", "s", perRun(L.cpuUserS, L.interpRuns)},
      {"pool.cpu_sys_s", "s", perRun(L.cpuSysS, L.interpRuns)},
      {"crt.alloc.count", "count", perRun(L.crtAllocs, L.crtRuns)},
      {"crt.matmul.ms", "ms", perRun(L.crtMatmulNs / 1e6, L.crtRuns)},
      {"crt.thread_busy_ms", "ms", perRun(L.crtBusyNs / 1e6, L.crtRuns)},
      {"crt.cpu_sys_s", "s", perRun(L.crtSysS, L.crtRuns)},
      {"trace.overhead_pct", "%", overheadPct(c, t)},
  };
}

int run(Options opt) {
  opt.root = fs::absolute(opt.root);
  const fs::path out = opt.root / ".bench_build" / "perfbench";
  // One work directory per process, so runs never share scratch files.
  const fs::path work = out / ("work-" + std::to_string(getpid()));
  Ctx c;
  c.opt = opt;
  c.apps = opt.root / "perfbench" / "apps";
  if (!fs::is_directory(opt.root / "examples" / "xc") ||
      !fs::is_directory(c.apps)) {
    std::cerr << "perfbench: " << opt.root << " is not a source checkout\n";
    return 2;
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work);
  fs::current_path(work);
  std::signal(SIGALRM, onTimeout);

  // Harness self-checks: the oracles must reject wrong results, and the
  // replica check must catch a reordered pass sequence.
  if (std::string e = oracle::selfCheck(); !e.empty()) {
    std::cerr << "perfbench: oracle self-check failed: " << e << "\n";
    return 1;
  }
  Program chain = loadApp(c, "chain");
  if (std::string d = replicaCheck(chain, translatorPassOrder()); !d.empty()) {
    std::cerr << "perfbench: pipeline replica differs: " << d << "\n";
    return 1;
  }
  if (replicaCheck(chain, {Pass::ShapeCheck, Pass::ParSafe, Pass::Optimizer})
          .empty()) {
    std::cerr << "perfbench: replica check missed a reordered pipeline\n";
    return 1;
  }

  Timed t = opt.workload == "compile"
                ? workloadCompile(c)
                : workloadApps(c, opt.workload == "apps_c");

  int attempted = 0, failed = 0;
  for (const auto& [k, l] : c.log) {
    attempted += l.attempted;
    failed += l.failed;
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  const double peakRssMb =
      (opt.workload == "apps_c" ? c.peakChildRssKb : double(self.ru_maxrss)) /
      1024.0;

  // End-to-end timings come from the untraced timed region only.
  auto untraced = [&](const std::string& k) {
    return window(c, k, t.start, t.mid);
  };
  std::vector<double> smallMs;
  double largeBytes = 0, largeS = 0;
  std::ostringstream rep;
  rep << "perfbench workload=" << opt.workload << " seed=" << opt.seed
      << " seconds=" << opt.seconds << " trace=" << opt.trace
      << " threads=" << kThreads << "\n";
  for (const auto& [k, v] : bench::hostInfo()) rep << k << ": " << v << "\n";
  rep << "build.type: " << PERFBENCH_BUILD_TYPE << "\n";
  rep << "cc.version: " << ccVersion() << "\n";
  rep << "program attempted failed samples p50_ms p90_ms [failures]\n";
  // op_ms.p50 is the geometric mean of the programs' median op
  // times, from the samples scaled to the reference host speed; one without
  // a single successful op counts as the execution timeout.
  // The pooled p90 (every sample relative to its program's median) is
  // reported but is no end-to-end metric: host hiccups move it by a third
  // between runs even after scaling.
  std::vector<double> p50s, relative;
  for (const std::string& k : c.programs) {
    std::vector<double> ms = c.log.count(k) ? window(c, k, t.start, t.mid, true)
                                            : std::vector<double>{};
    double med = ms.empty() ? kExecTimeoutS * 1e3 : median(ms);
    p50s.push_back(med);
    for (double v : ms) relative.push_back(v / med);
  }
  const double opP50 = geomean(p50s);
  for (const auto& [k, l] : c.log) {
    std::vector<double> ms = untraced(k);
    if (k.rfind("gen/l", 0) == 0) {
      for (double v : ms) largeS += v / 1e3;
      largeBytes += double(c.programBytes[size_t(c.ids.at(k))] * ms.size());
    } else {
      smallMs.insert(smallMs.end(), ms.begin(), ms.end());
    }
    rep << "  " << k << " " << l.attempted << " " << l.failed << " "
        << ms.size() << " " << num(median(ms)) << " "
        << num(quantile(ms, 0.9));
    for (const auto& [cls, n] : l.failures) rep << " " << cls << "=" << n;
    if (!l.firstFailure.empty()) rep << " first: " << l.firstFailure;
    rep << "\n";
  }
  for (const auto& [k, l] : c.defects) {
    rep << "known defect, no operation: " << k << " (emitted C, "
        << kThreads << " threads) failed " << l.failed << " of "
        << l.attempted << " runs";
    for (const auto& [cls, n] : l.failures) rep << " " << cls << "=" << n;
    if (!l.firstFailure.empty()) rep << " first: " << l.firstFailure;
    rep << "\n";
  }
  if (opt.workload == "compile") {
    rep << "compile_small_ms.p50 " << num(median(smallMs)) << " ms (n="
        << smallMs.size() << ")\n"
        << "compile_small_ms.p90 " << num(quantile(smallMs, 0.9))
        << " ms (n=" << smallMs.size() << ")\n"
        << "compile_large_kbps " << num(largeS > 0 ? largeBytes / 1024 / largeS : 0)
        << " KB/s (" << num(largeBytes) << " bytes in " << num(largeS)
        << " s)\n";
  } else {
    for (const auto& [k, l] : c.log)
      if (k.rfind("app/", 0) == 0) {
        std::vector<double> ms = untraced(k);
        rep << "run_ms." << k.substr(4) << " " << num(median(ms)) << " ms (n="
            << ms.size() << ")\n";
      }
  }
  rep << "failed_share " << num(attempted ? double(failed) / attempted : 0)
      << " ratio (" << failed << " of " << attempted << " operations)\n"
      << "peak_rss_mb " << num(peakRssMb) << " MB\n"
      << "setup_s.raw " << num(median(c.setupS)) << " s (median of "
      << c.setupS.size() << "; probe scale around setup "
      << num(c.setupProbe.scale()) << ")\n"
      << "host_probe_scale " << num(t.scale) << " (median over "
      << c.probe.count()
      << " probes; the timings below are at the reference host speed)\n"
      << "op_ms.p90 "
      << num(opP50 * (relative.empty() ? 1 : quantile(relative, 0.9)))
      << " ms (pooled over " << relative.size() << " samples)\n";

  std::vector<Metric> result;
  if (opt.trace) {
    result = perLayer(c, t);
  } else {
    result = {{"setup_s", "s", median(c.setupS) * c.setupProbe.scale()},
              {"op_ms.p50", "ms", opP50},
              // failed_share's complement: a ratio that is never 0.
              {"ok_share", "ratio",
               attempted ? double(attempted - failed) / attempted : 0},
              {"peak_rss_mb", "MB", peakRssMb}};
  }
  for (const Metric& m : result)
    rep << m.name << " " << num(m.value) << " " << m.unit << "\n";

  // The report and the spans also go next to the work directory.
  fs::current_path(opt.root);
  std::ofstream(out / ("report-" + opt.workload + ".txt")) << rep.str();
  if (opt.trace)
    std::ofstream(out / ("trace-" + opt.workload + ".json")) << traceJson(c.tracer);
  fs::remove_all(work, ec);

  std::istringstream lines(rep.str());
  for (std::string line; std::getline(lines, line);) std::cout << "# " << line << "\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < result.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << result[i].name
              << "\": {\"value\": " << num(result[i].value)
              << ", \"unit\": \"" << result[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string err;
  try {
    if (!perfbench::parseArgs(argc, argv, opt, err)) {
      std::cerr << "perfbench: " << err << "\n";
      return 2;
    }
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

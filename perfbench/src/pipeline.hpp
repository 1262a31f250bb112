// Compiling one program the way `mmc --emit-c -O1` does: a fresh
// Translator (so compose runs every time), translate, then emitC.
//
// The traced variant drives the pipeline itself, one public entry point
// per layer and in the order Translator::translate uses (parse ->
// Sema::translate -> optimizeModule -> enforceParallelSafety ->
// checkShapes), then emitC, with a span around each call. replicaCheck()
// proves the replica equals Translator::translate + emitC byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "driver/translator.hpp"
#include "ir/cemit.hpp"

namespace perfbench {

/// The -O1 translate options mmc uses.
mmx::driver::TranslateOptions o1Options();

/// Work counts of the compile layers for one program.
struct LayerCounts {
  uint64_t irLinesSema = 0;  // ir::dump lines after Sema::translate
  uint64_t irLinesOpt = 0;   // ... and after the optimizer
  uint64_t fused = 0, tempsEliminated = 0, inplace = 0;
  uint64_t autoparPromoted = 0, autoparBlocked = 0;
  uint64_t demoted = 0;      // loops parsafe demoted to serial
  uint64_t guardsElided = 0, guardsKept = 0;
  uint64_t emitBytes = 0;
};

struct Compiled {
  bool ok = false;           // translation succeeded
  std::string diagnostics;   // rendered translate diagnostics on failure
  std::unique_ptr<mmx::ir::Module> module;
  std::shared_ptr<const mmx::ir::GuardPlan> plan;
  mmx::ir::BoundsCheckMode bounds = mmx::ir::BoundsCheckMode::Auto;
  /// The emit artifact: the C text, or the emitter's rejection list for
  /// programs using interpreter-only builtins. Either must repeat byte
  /// for byte across compiles.
  bool emitted = false;
  std::string c;
  LayerCounts counts;        // filled by the traced replica only
};

/// The passes after Sema::translate, in a configurable order so the
/// harness can prove the replica check catches a reordering.
enum class Pass { Optimizer, ParSafe, ShapeCheck };
const std::vector<Pass>& translatorPassOrder();

struct CompileRequest {
  bool emit = true;
  mmx::ir::InstrumentMode instrument = mmx::ir::InstrumentMode::Off;
};

/// Compiles `p`. With a tracer that is on, runs the traced replica in
/// translatorPassOrder() and records one span per layer call.
Compiled compileProgram(const Program& p, const CompileRequest& req,
                        Tracer* tracer, int programId);

/// Compiles `p` with the replica in `order` and with Translator::translate
/// + emitC; returns an empty string when the IR dumps and the emitted C
/// are byte-identical, otherwise what differs.
std::string replicaCheck(const Program& p, const std::vector<Pass>& order);

} // namespace perfbench

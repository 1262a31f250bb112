#include "pipeline.hpp"

#include <algorithm>

#include "analysis/parsafe.hpp"
#include "analysis/shapecheck.hpp"
#include "attr/engine.hpp"
#include "cminus/sema.hpp"
#include "ext_matrix/matrix_ext.hpp"
#include "ext_refcount/refcount_ext.hpp"
#include "ext_transform/transform_ext.hpp"
#include "ir/optimize.hpp"

namespace perfbench {

using namespace mmx;

driver::TranslateOptions o1Options() {
  driver::TranslateOptions o;
  o.optFuse = o.optElimTemp = o.optInplace = o.optAutopar = true;
  return o;
}

const std::vector<Pass>& translatorPassOrder() {
  static const std::vector<Pass> order = {Pass::Optimizer, Pass::ParSafe,
                                          Pass::ShapeCheck};
  return order;
}

namespace {

/// A composed translator over mmc's extension set. The extensions stay
/// reachable so the replica can install their semantics into its own
/// Sema, as Translator::translate does.
struct Composed {
  driver::Translator t;
  std::vector<ext::LanguageExtension*> exts;
  bool ok = false;
};

void compose(Composed& c, Tracer* tracer, int id) {
  ext::ExtensionPtr exts[] = {ext_matrix::matrixExtension(),
                              ext_refcount::refcountExtension(),
                              ext_transform::transformExtension()};
  for (ext::ExtensionPtr& e : exts) {
    c.exts.push_back(e.get());
    c.t.addExtension(std::move(e));
  }
  SpanScope s(tracer, "compose", id);
  c.ok = c.t.compose(o1Options());
}

uint64_t lineCount(const std::string& s) {
  return static_cast<uint64_t>(std::count(s.begin(), s.end(), '\n'));
}

void emit(Compiled& out, const ir::CEmitOptions& base,
          std::shared_ptr<const SourceManager> sm) {
  ir::CEmitOptions eo = base;
  eo.boundsChecks = out.bounds;
  eo.plan = out.plan;
  eo.sourceManager = std::move(sm);
  ir::CEmitResult r = ir::emitC(*out.module, eo);
  out.emitted = r.ok;
  if (r.ok) {
    out.c = std::move(r.code);
  } else {
    out.c = "emit rejected:\n";
    for (const auto& e : r.errors) out.c += e + "\n";
  }
}

/// Translator::translate + emitC, as mmc runs them.
Compiled plainCompile(Composed& c, const Program& p, const CompileRequest& req) {
  Compiled out;
  driver::TranslateResult res = c.t.translate(p.name, p.source);
  if (!res.ok) {
    out.diagnostics = res.renderDiagnostics();
    return out;
  }
  out.ok = true;
  out.module = std::move(res.module);
  out.plan = res.guardPlan;
  out.bounds = res.boundsChecks;
  if (req.emit) {
    ir::CEmitOptions eo;
    eo.instrument = req.instrument;
    emit(out, eo, res.sourceManager);
  }
  return out;
}

/// The pipeline driven one public entry point at a time, in `order`.
Compiled replica(Composed& c, const Program& p, const CompileRequest& req,
                 const std::vector<Pass>& order, Tracer* tracer, int id) {
  const driver::TranslateOptions opts = o1Options();
  Compiled out;
  auto sm = std::make_shared<SourceManager>();
  DiagnosticEngine diags;
  FileId file = sm->add(p.name, p.source);

  ast::NodePtr tree;
  {
    SpanScope s(tracer, "parse", id);
    tree = c.t.parser()->parse(*sm, file, diags);
  }
  auto fail = [&]() -> Compiled {
    std::vector<Diagnostic> d = diags.take();
    out.diagnostics = renderDiagnostics(d, sm.get());
    return std::move(out);
  };
  if (!tree) return fail();

  attr::Registry reg;
  cm::Sema sema(diags, reg);
  sema.fusionEnabled = opts.fusion;
  sema.sliceEliminationEnabled = opts.sliceElimination;
  sema.autoParallelEnabled = opts.autoParallel;
  sema.warnShape = opts.warnShape;
  sema.strictShape = opts.strictShape;
  sema.warnTransform = opts.warnTransform;
  sema.strictTransform = opts.strictTransform;
  cm::installHostSemantics(sema);
  for (ext::LanguageExtension* e : c.exts) e->installSemantics(sema);

  auto mod = std::make_unique<ir::Module>();
  bool ok;
  {
    SpanScope s(tracer, "sema", id);
    ok = sema.translate(tree, *mod);
  }
  if (!ok) return fail();
  const bool counting = tracer && tracer->on();
  if (counting) out.counts.irLinesSema = lineCount(ir::dump(*mod));

  auto plan = std::make_shared<ir::GuardPlan>();
  for (Pass pass : order) {
    switch (pass) {
    case Pass::Optimizer: {
      ir::OptOptions oo;
      oo.fuse = opts.optFuse;
      oo.elimTemp = opts.optElimTemp;
      oo.inplace = opts.optInplace;
      oo.autopar = opts.optAutopar;
      ir::OptStats st;
      {
        SpanScope s(tracer, "optimizer", id);
        st = ir::optimizeModule(*mod, oo);
      }
      out.counts.fused = st.fused;
      out.counts.tempsEliminated = st.tempsEliminated;
      out.counts.inplace = st.inplaceConverted;
      out.counts.autoparPromoted = st.autoparPromoted;
      out.counts.autoparBlocked = st.autoparBlocked;
      break;
    }
    case Pass::ParSafe: {
      analysis::ParSafeOptions po;
      po.warnParallel = opts.warnParallel;
      po.strictParallel = opts.strictParallel;
      SpanScope s(tracer, "parsafe", id);
      out.counts.demoted =
          analysis::enforceParallelSafety(*mod, diags, po).size();
      break;
    }
    case Pass::ShapeCheck: {
      analysis::ShapeCheckOptions so;
      so.warnShape = opts.warnShape;
      so.strictShape = opts.strictShape;
      analysis::ShapeCheckStats st;
      {
        SpanScope s(tracer, "shapecheck", id);
        st = analysis::checkShapes(*mod, *plan, diags, so);
      }
      out.counts.guardsElided = st.guardsSafe;
      out.counts.guardsKept = st.guardsKept();
      break;
    }
    }
  }
  if (diags.hasErrors()) return fail();
  if (counting) out.counts.irLinesOpt = lineCount(ir::dump(*mod));

  out.ok = true;
  out.module = std::move(mod);
  out.plan = std::move(plan);
  out.bounds = opts.boundsChecks;
  if (req.emit) {
    ir::CEmitOptions eo;
    eo.instrument = req.instrument;
    SpanScope s(tracer, "emit", id);
    emit(out, eo, sm);
  }
  out.counts.emitBytes = out.c.size();
  return out;
}

} // namespace

Compiled compileProgram(const Program& p, const CompileRequest& req,
                        Tracer* tracer, int programId) {
  Composed c;
  compose(c, tracer, programId);
  if (!c.ok) {
    Compiled out;
    out.diagnostics = c.t.renderComposeDiagnostics();
    return out;
  }
  if (tracer && tracer->on())
    return replica(c, p, req, translatorPassOrder(), tracer, programId);
  return plainCompile(c, p, req);
}

std::string replicaCheck(const Program& p, const std::vector<Pass>& order) {
  Composed c;
  compose(c, nullptr, -1);
  if (!c.ok) return "compose failed";
  CompileRequest req;
  Compiled ref = plainCompile(c, p, req);
  Compiled rep = replica(c, p, req, order, nullptr, -1);
  if (ref.ok != rep.ok)
    return std::string("translate ") + (ref.ok ? "succeeded" : "failed") +
           " but the replica " + (rep.ok ? "succeeded" : "failed");
  if (!ref.ok) return "";
  if (ir::dump(*ref.module) != ir::dump(*rep.module))
    return "IR dump differs";
  if (ref.c != rep.c) return "emitted C differs";
  return "";
}

} // namespace perfbench

// Shared types of the end-to-end benchmark client: programs under test,
// failure classes, and the in-memory span recorder the traced run uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The contents of a file; empty when it cannot be read.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// One extended-C program the benchmark compiles or runs.
struct Program {
  std::string name;   // e.g. "example/profile_demo.xc", "gen/s3", "app/chain"
  std::string cls;    // "small", "large" or "app"
  std::string source;
  /// Printed output the generator computed natively; empty for programs
  /// that carry no expectation (the hand-written examples).
  std::string expected;
  bool hasExpected = false;
  /// Floating-point operations of the matrix products one execution
  /// performs, computed from the operand shapes.
  double matmulFlops = 0;
};

/// Why an operation (one compile or one execution) failed.
enum class Fail { None, Translate, WrongOutput, NonzeroExit, Signal, Timeout };

inline const char* failName(Fail f) {
  switch (f) {
  case Fail::None: return "none";
  case Fail::Translate: return "translate_error";
  case Fail::WrongOutput: return "wrong_output";
  case Fail::NonzeroExit: return "nonzero_exit";
  case Fail::Signal: return "signal";
  case Fail::Timeout: return "timeout";
  }
  return "unknown";
}

/// A span around one call into a layer: name, start, end, the span that
/// caused it, and the program it worked on.
struct Span {
  std::string name;
  uint64_t start = 0;
  uint64_t end = 0;
  int parent = -1;
  int program = -1;
};

/// Records spans in memory when enabled; a disabled tracer records
/// nothing and costs one branch per scope.
class Tracer {
public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int open(const char* name, int program) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.program = program;
    s.start = nowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[id].end = nowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in milliseconds: each span's duration minus
  /// the durations of its direct children.
  std::map<std::string, double> selfMs() const {
    std::vector<uint64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) childNs[s.parent] += s.end - s.start;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] +=
          double(spans_[i].end - spans_[i].start - childNs[i]) / 1e6;
    return out;
  }

  /// Number of spans with the given name.
  size_t count(const std::string& name) const {
    size_t n = 0;
    for (const Span& s : spans_) n += s.name == name;
    return n;
  }

private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
public:
  SpanScope(Tracer* t, const char* name, int program)
      : t_(t && t->on() ? t : nullptr),
        id_(t_ ? t_->open(name, program) : -1) {}
  ~SpanScope() {
    if (t_) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  Tracer* t_;
  int id_;
};

} // namespace perfbench

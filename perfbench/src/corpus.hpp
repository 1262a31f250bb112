// Seeded corpus generator for the compile workload. Every generated
// program is a set of small functions drawn from feature templates (host
// C loops, with-loop genarray/fold, §V transform clauses, matrixMap,
// tuples, refcount pointers, matrix products, fusable chains) and a main
// that prints each function's result. The generator evaluates every
// function natively, so each program carries its expected output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64): the same seed yields the
/// same sequence on every platform and standard library.
class Rng {
public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % uint64_t(hi - lo + 1));
  }

private:
  uint64_t s_;
};

/// The compile corpus for `seed`: the hand-written examples (read from
/// `exampleDir`), `smallCount` generated programs of a few dozen lines
/// (the first one leads with a matrix product), and one generated program
/// per large-class size (48, 96, 144 and 192 KB: fixed, so every seed
/// gives the same size mix and only the content varies).
std::vector<Program> makeCorpus(uint64_t seed, const std::string& exampleDir,
                                int smallCount);

} // namespace perfbench

// Independent references for the app programs: plain C++ loops that call
// no mmx::rt kernel, each with a stated tolerance, plus the comparators
// that turn a program's output into a verdict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::oracle {

/// A rank-3 lat x lon x time field, row-major (time fastest).
struct Field {
  int64_t nlat = 0, nlon = 0, ntime = 0;
  std::vector<float> v;
  float at(int64_t i, int64_t j, int64_t t) const {
    return v[(i * nlon + j) * ntime + t];
  }
};

/// Empty when the output matches, otherwise the first mismatch.
using Verdict = std::string;

// Fig. 1: per-point mean over time. Tolerance: |got - ref| <= 1e-4 *
// max(1, |ref|) per element.
std::vector<double> temporalMean(const Field& f);
Verdict checkTemporalMean(const std::vector<double>& ref, const float* got,
                          size_t n);

// Fig. 4: per time step, 4-connected components of `value < threshold`,
// labelled by breadth-first search. Compared by component membership: the
// background must agree and the labels of each time step must map one to
// one, whatever numbers the program chose.
std::vector<int32_t> componentLabels(const Field& f, float threshold);
Verdict checkComponents(const std::vector<int32_t>& ref, const int32_t* got,
                        const Field& shape);

// Fig. 8: scoreTS ported line by line, applied to every time series.
// Tolerance: |got - ref| <= 1e-3 * max(1, |ref|) per element.
std::vector<float> eddyScores(const Field& f);
Verdict checkEddyScores(const std::vector<float>& ref, const float* got,
                        size_t n);

// chain.xc: the fold over b = a * 2 + 1 with a = (i + j) % 4. Every
// partial sum is an integer below 2^24, so the printed total is exact.
// Tolerance: none.
double chainTotal(int m, int n);
Verdict checkScalar(double ref, const std::string& printed, double relTol);

// matmul.xc: c = a * b for n x n operands, in double. Tolerance:
// |got - ref| <= 1e-3 * max |ref| per element.
std::vector<double> matmul(const std::vector<float>& a,
                           const std::vector<float>& b, int n);
Verdict checkMatmul(const std::vector<double>& ref, const float* got,
                    size_t n);

/// Feeds every comparator a deliberately wrong result (and a relabelled
/// but equivalent one for the component check); returns the first
/// comparator that failed to react correctly, or empty.
std::string selfCheck();

} // namespace perfbench::oracle

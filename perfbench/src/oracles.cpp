#include "oracles.hpp"

#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>

namespace perfbench::oracle {
namespace {

std::string mismatch(size_t k, double got, double ref) {
  return "element " + std::to_string(k) + ": got " + std::to_string(got) +
         ", expected " + std::to_string(ref);
}

template <typename Ref, typename Got>
Verdict compareElements(const std::vector<Ref>& ref, const Got* got, size_t n,
                        double tol, double scale) {
  if (n != ref.size())
    return "size " + std::to_string(n) + ", expected " +
           std::to_string(ref.size());
  for (size_t k = 0; k < n; ++k) {
    double r = ref[k], g = got[k];
    double bound = tol * (scale > 0 ? scale : std::max(1.0, std::fabs(r)));
    if (!(std::fabs(g - r) <= bound)) return mismatch(k, g, r);
  }
  return "";
}

// Fig. 8's helpers, one statement per line of the listing.
struct Trough {
  int beginning = 0, end = 0;
};

Trough getTrough(const float* ts, int n, int i) {
  Trough t;
  t.beginning = i;
  while (i + 1 < n && ts[i] >= ts[i + 1]) i = i + 1;
  while (i + 1 < n && ts[i] < ts[i + 1]) i = i + 1;
  t.end = i;
  return t;
}

float computeArea(const float* aoi, int len) {
  float y1 = aoi[0];
  float y2 = aoi[len - 1];
  int x1 = 0;
  int x2 = len - 1;
  float slope = 0.0f;
  if (x2 > x1) slope = (y1 - y2) / static_cast<float>(x1 - x2);
  float b = y1 - slope * x1;
  float area = 0.0f;
  for (int q = 0; q <= x2 - x1; ++q)
    area += (static_cast<float>(x1 + q) * slope + b) - aoi[q];
  return area;
}

void scoreTS(const float* ts, int n, float* scores) {
  for (int k = 0; k < n; ++k) scores[k] = 0.0f;
  int i = 0;
  while (i + 1 < n && ts[i] < ts[i + 1]) i = i + 1;
  while (i < n - 1) {
    Trough t = getTrough(ts, n, i);
    i = t.end;
    if (i <= t.beginning) return;
    float area = computeArea(ts + t.beginning, i - t.beginning + 1);
    for (int k = t.beginning; k <= i; ++k) scores[k] = area;
  }
}

} // namespace

std::vector<double> temporalMean(const Field& f) {
  std::vector<double> out(f.nlat * f.nlon);
  for (int64_t i = 0; i < f.nlat; ++i)
    for (int64_t j = 0; j < f.nlon; ++j) {
      double s = 0;
      for (int64_t t = 0; t < f.ntime; ++t) s += f.at(i, j, t);
      out[i * f.nlon + j] = s / double(f.ntime);
    }
  return out;
}

Verdict checkTemporalMean(const std::vector<double>& ref, const float* got,
                          size_t n) {
  return compareElements(ref, got, n, 1e-4, 0);
}

std::vector<int32_t> componentLabels(const Field& f, float threshold) {
  std::vector<int32_t> labels(f.v.size(), 0);
  std::deque<std::pair<int64_t, int64_t>> queue;
  for (int64_t t = 0; t < f.ntime; ++t) {
    int32_t next = 0;
    auto idx = [&](int64_t i, int64_t j) { return (i * f.nlon + j) * f.ntime + t; };
    auto fg = [&](int64_t i, int64_t j) { return f.at(i, j, t) < threshold; };
    for (int64_t i = 0; i < f.nlat; ++i)
      for (int64_t j = 0; j < f.nlon; ++j) {
        if (!fg(i, j) || labels[idx(i, j)] != 0) continue;
        labels[idx(i, j)] = ++next;
        queue.push_back({i, j});
        while (!queue.empty()) {
          auto [ci, cj] = queue.front();
          queue.pop_front();
          const int64_t nb[4][2] = {{ci - 1, cj}, {ci + 1, cj}, {ci, cj - 1},
                                    {ci, cj + 1}};
          for (const auto& p : nb) {
            if (p[0] < 0 || p[0] >= f.nlat || p[1] < 0 || p[1] >= f.nlon)
              continue;
            if (!fg(p[0], p[1]) || labels[idx(p[0], p[1])] != 0) continue;
            labels[idx(p[0], p[1])] = next;
            queue.push_back({p[0], p[1]});
          }
        }
      }
  }
  return labels;
}

Verdict checkComponents(const std::vector<int32_t>& ref, const int32_t* got,
                        const Field& shape) {
  for (int64_t t = 0; t < shape.ntime; ++t) {
    std::map<int32_t, int32_t> fwd, back; // ref -> got, got -> ref
    for (int64_t ij = 0; ij < shape.nlat * shape.nlon; ++ij) {
      size_t k = size_t(ij * shape.ntime + t);
      int32_t r = ref[k], g = got[k];
      if ((r == 0) != (g == 0))
        return "time step " + std::to_string(t) + ": background differs at " +
               std::to_string(ij);
      if (r == 0) continue;
      auto [fi, fnew] = fwd.emplace(r, g);
      auto [bi, bnew] = back.emplace(g, r);
      if (fi->second != g || bi->second != r)
        return "time step " + std::to_string(t) +
               ": component membership differs at " + std::to_string(ij);
    }
  }
  return "";
}

std::vector<float> eddyScores(const Field& f) {
  std::vector<float> out(f.v.size());
  for (int64_t ij = 0; ij < f.nlat * f.nlon; ++ij)
    scoreTS(f.v.data() + ij * f.ntime, int(f.ntime),
            out.data() + ij * f.ntime);
  return out;
}

Verdict checkEddyScores(const std::vector<float>& ref, const float* got,
                        size_t n) {
  return compareElements(ref, got, n, 1e-3, 0);
}

double chainTotal(int m, int n) {
  long s = 0;
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) s += ((i + j) % 4) * 2 + 1;
  return double(s);
}

Verdict checkScalar(double ref, const std::string& printed, double relTol) {
  char* end = nullptr;
  double got = std::strtod(printed.c_str(), &end);
  if (end == printed.c_str()) return "no number in output '" + printed + "'";
  if (!(std::fabs(got - ref) <= relTol * std::max(1.0, std::fabs(ref))))
    return "got " + std::to_string(got) + ", expected " + std::to_string(ref);
  return "";
}

std::vector<double> matmul(const std::vector<float>& a,
                           const std::vector<float>& b, int n) {
  std::vector<double> c(size_t(n) * n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < n; ++l) {
      double ail = a[size_t(i) * n + l];
      const float* brow = &b[size_t(l) * n];
      double* crow = &c[size_t(i) * n];
      for (int j = 0; j < n; ++j) crow[j] += ail * brow[j];
    }
  return c;
}

Verdict checkMatmul(const std::vector<double>& ref, const float* got,
                    size_t n) {
  double scale = 0;
  for (double v : ref) scale = std::max(scale, std::fabs(v));
  return compareElements(ref, got, n, 1e-3, std::max(scale, 1e-30));
}

std::string selfCheck() {
  // A small field with two separate blobs per time step.
  Field f;
  f.nlat = 6;
  f.nlon = 7;
  f.ntime = 5;
  for (int64_t i = 0; i < f.nlat; ++i)
    for (int64_t j = 0; j < f.nlon; ++j)
      for (int64_t t = 0; t < f.ntime; ++t)
        f.v.push_back(std::sin(0.9f * i + 0.3f * t) * std::cos(1.3f * j) -
                      0.1f * t);

  std::vector<double> mean = temporalMean(f);
  std::vector<float> meanF(mean.begin(), mean.end());
  if (!checkTemporalMean(mean, meanF.data(), meanF.size()).empty())
    return "temporal_mean rejected its own reference";
  meanF[3] += 0.5f;
  if (checkTemporalMean(mean, meanF.data(), meanF.size()).empty())
    return "temporal_mean accepted a wrong result";

  std::vector<int32_t> lab = componentLabels(f, -0.2f);
  std::vector<int32_t> relabelled = lab;
  for (int32_t& l : relabelled)
    if (l != 0) l += 100; // same membership, other numbers
  if (!checkComponents(lab, relabelled.data(), f).empty())
    return "conncomp rejected a relabelled but equal result";
  std::vector<int32_t> merged = lab;
  bool changed = false;
  for (int32_t& l : merged)
    if (l == 2) l = 1, changed = true; // two components fused into one
  if (!changed) return "conncomp self-check field has one component";
  if (checkComponents(lab, merged.data(), f).empty())
    return "conncomp accepted merged components";

  std::vector<float> sc = eddyScores(f);
  std::vector<float> scBad = sc;
  scBad[scBad.size() / 2] += 1.0f;
  if (!checkEddyScores(sc, sc.data(), sc.size()).empty())
    return "eddy_score rejected its own reference";
  if (checkEddyScores(sc, scBad.data(), scBad.size()).empty())
    return "eddy_score accepted a wrong result";

  double total = chainTotal(20, 30);
  if (!checkScalar(total, std::to_string(long(total)) + "\n", 0).empty())
    return "chain rejected its own reference";
  if (checkScalar(total, std::to_string(long(total) + 1) + "\n", 0).empty())
    return "chain accepted a wrong result";

  std::vector<float> a(f.v.begin(), f.v.begin() + 36),
      b(f.v.begin() + 36, f.v.begin() + 72);
  std::vector<double> mm = matmul(a, b, 6);
  std::vector<float> mmF(mm.begin(), mm.end());
  if (!checkMatmul(mm, mmF.data(), mmF.size()).empty())
    return "matmul rejected its own reference";
  mmF[10] += 0.01f * float(std::fabs(mm[10]) + 1.0);
  if (checkMatmul(mm, mmF.data(), mmF.size()).empty())
    return "matmul accepted a wrong result";
  return "";
}

} // namespace perfbench::oracle

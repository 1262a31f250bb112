// Host-speed probe. On a shared host the speed of memory-bound code drifts
// by a third between runs minutes apart, and the drift is common to every
// piece of code running at the time. The probe times a fixed kernel of
// its own (allocation, hashing, sorting; it calls nothing in the
// translator), so the end-to-end timings can be reported at a reference
// host speed: raw time * kReferenceMs / probe time, with the probe sampled
// around each setup and every ~100 ms between operations, and each timing
// scaled by the samples around it, so that the drift within a run cancels
// too. No thread of the program under test (an interpreter pool, a child
// process) is alive while the probe runs, so a change to the translator or
// its runtime moves the timings and leaves the probe alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"

namespace perfbench {

class HostProbe {
public:
  /// The probe time the normalised timings are scaled to.
  static constexpr double kReferenceMs = 1.0;

  /// A probe for operations that run on `threads` threads. It runs the
  /// kernel on as many threads at once and keeps the slowest, as a
  /// parallel region waits for its slowest thread: a core the host takes
  /// away slows the probe as it slows the operations.
  explicit HostProbe(unsigned threads = 1) : threads_(threads) {}

  /// Times the kernel three times back to back and keeps the median, so
  /// the cache state the previous operation left behind does not count.
  double sample() {
    double t[3];
    for (double& x : t) x = slowestMs();
    std::sort(t, t + 3);
    samples_.push_back(t[1]);
    last_ = nowNs();
    return t[1];
  }

  /// Samples when the last sample is older than `intervalMs`.
  void sampleEvery(double intervalMs) {
    if (double(nowNs() - last_) / 1e6 >= intervalMs) sample();
  }

  /// Scale factor from raw times to the reference host speed over the
  /// samples taken so far (median probe time); 1 without samples.
  double scale() const {
    if (samples_.empty()) return 1;
    std::vector<double> s = samples_;
    std::nth_element(s.begin(), s.begin() + long(s.size() / 2), s.end());
    return kReferenceMs / s[s.size() / 2];
  }

  /// Scale factor for an operation that ended after `n` samples: by the
  /// mean of the last sample before it and the first one after it.
  double scaleAround(size_t n) const {
    double sum = 0;
    int k = 0;
    for (size_t i : {n - 1, n})
      if (i < samples_.size()) sum += samples_[i], ++k;
    return k ? kReferenceMs / (sum / k) : 1;
  }

  size_t count() const { return samples_.size(); }

private:
  double slowestMs() const {
    if (threads_ <= 1) return kernelMs();
    std::vector<double> ms(threads_);
    std::vector<std::thread> helpers;
    for (unsigned i = 1; i < threads_; ++i)
      helpers.emplace_back([&ms, i] { ms[i] = kernelMs(); });
    ms[0] = kernelMs();
    for (std::thread& h : helpers) h.join();
    return *std::max_element(ms.begin(), ms.end());
  }

  static double kernelMs() {
    uint64_t t0 = nowNs();
    Rng r(42);
    std::unordered_map<uint64_t, uint64_t> m;
    for (int i = 0; i < 4000; ++i) m[r.next() % 100000] += uint64_t(i);
    std::vector<std::string> v;
    for (int i = 0; i < 2000; ++i) v.push_back(std::to_string(r.next()));
    std::sort(v.begin(), v.end());
    volatile size_t sink = m.size() + v.size();
    (void)sink;
    return double(nowNs() - t0) / 1e6;
  }

  unsigned threads_;
  std::vector<double> samples_;
  uint64_t last_ = 0;
};

} // namespace perfbench

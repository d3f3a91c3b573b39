// Measurement helpers for the end-to-end benchmark: a cheap cycle clock
// calibrated to nanoseconds, an exact 1-unit histogram for latencies and
// signed span differences, and a minimal JSON writer for the result line.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

// Every request is timed, so the clock read sits on the hot path: rdtsc
// costs about half of a vDSO steady_clock read on KVM guests. The tick rate
// is calibrated against steady_clock once per process.
inline uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct Clock {
  double ns_per_tick = 1.0;
  // Median cost of one back-to-back pair of Ticks() reads, in ns; every
  // span subtracts it so that a span measures the call it wraps.
  double read_ns = 0.0;

  static Clock Calibrate() {
    Clock clock;
#if defined(__x86_64__)
    const auto wall0 = std::chrono::steady_clock::now();
    const uint64_t t0 = Ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const auto wall1 = std::chrono::steady_clock::now();
    const uint64_t t1 = Ticks();
    clock.ns_per_tick =
        std::chrono::duration<double, std::nano>(wall1 - wall0).count() /
        static_cast<double>(t1 - t0);
#endif
    std::vector<uint64_t> pairs(20001);
    for (auto& d : pairs) {
      const uint64_t a = Ticks();
      d = Ticks() - a;
    }
    std::nth_element(pairs.begin(), pairs.begin() + pairs.size() / 2,
                     pairs.end());
    clock.read_ns =
        static_cast<double>(pairs[pairs.size() / 2]) * clock.ns_per_tick;
    return clock;
  }

  // Duration of a span in ns, net of the clock read itself.
  int64_t SpanNs(uint64_t begin, uint64_t end) const {
    return static_cast<int64_t>(
        static_cast<double>(end - begin) * ns_per_tick - read_ns);
  }
  double Seconds(uint64_t ticks) const {
    return static_cast<double>(ticks) * ns_per_tick * 1e-9;
  }
  uint64_t TicksFor(double seconds) const {
    return static_cast<uint64_t>(seconds * 1e9 / ns_per_tick);
  }
};

// Latency histogram: exact 1-unit buckets below 1024, then 128 buckets per
// power of two (under 0.8% wide). Samples of a bucket are taken as spread
// evenly across it, so quantiles are continuous rather than bucket bounds.
// Signed samples (self-time differences) shift by an offset first; anything
// still below zero lands in the lowest bucket. About 32 KB, allocated on
// first use, so the many per-slice histograms stay small next to the store.
// (harness/histogram.h returns bucket bounds at 1/32 resolution, so its
// percentiles are quantized, and it has no signed range.)
class Hist {
 public:
  Hist() = default;
  explicit Hist(int64_t offset) : offset_(offset) {}

  void Record(int64_t v) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    const int64_t shifted = v + offset_;
    ++counts_[BucketOf(shifted < 0 ? 0 : static_cast<uint64_t>(shifted))];
    ++n_;
  }

  void Merge(const Hist& other) {
    if (other.n_ == 0) return;
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    n_ += other.n_;
  }

  uint64_t n() const { return n_; }

  double Quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_);
    double below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      const double c = counts_[i];
      if (c > 0 && below + c >= rank) {
        const auto [low, width] = BucketRange(i);
        return static_cast<double>(low) - static_cast<double>(offset_) +
               static_cast<double>(width) * (rank - below) / c;
      }
      below += c;
    }
    return 0.0;
  }

  // Samples above the q-quantile: the support of that percentile.
  uint64_t CountAbove(double q) const {
    return n_ - static_cast<uint64_t>(q * static_cast<double>(n_));
  }

 private:
  static constexpr int kLinearBits = 10;
  static constexpr int kSubBits = 7;
  static constexpr size_t kLinear = size_t{1} << kLinearBits;
  static constexpr size_t kBuckets =
      kLinear + (64 - kLinearBits) * (size_t{1} << kSubBits);

  static size_t BucketOf(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const uint64_t sub = (v >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear +
           static_cast<size_t>(msb - kLinearBits) * (size_t{1} << kSubBits) +
           static_cast<size_t>(sub);
  }

  // Lowest value and width of bucket i.
  static std::pair<uint64_t, uint64_t> BucketRange(size_t i) {
    if (i < kLinear) return {i, 1};
    const size_t j = i - kLinear;
    const int msb = static_cast<int>(j >> kSubBits) + kLinearBits;
    const uint64_t sub = j & ((1u << kSubBits) - 1);
    const int shift = msb - kSubBits;
    return {((uint64_t{1} << kSubBits) | sub) << shift, uint64_t{1} << shift};
  }

  int64_t offset_ = 0;
  std::vector<uint32_t> counts_;
  uint64_t n_ = 0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Flat JSON object writer: numbers print in shortest round-trip form, so
// every measured digit reaches the result line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return Raw(key, std::string(buf, r.ptr));
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

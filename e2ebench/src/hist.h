// Fixed-size latency histogram for per-call samples.
//
// A traced run records millions of calls; keeping them in vectors would
// make the benchmark's own memory grow with the length of the run. Buckets
// are log-linear (see Index), and quantiles interpolate linearly inside the
// bucket by rank.
#ifndef SVR4PROC_E2EBENCH_HIST_H_
#define SVR4PROC_E2EBENCH_HIST_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace e2e {

class Hist {
 public:
  Hist() : counts_(kBuckets, 0) {}

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
    sum_ += v;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double Mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }

  // The q-quantile (0 <= q <= 1) of the recorded values; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    double rank = q * static_cast<double>(count_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      uint64_t c = counts_[i];
      if (c == 0) {
        continue;
      }
      if (rank < static_cast<double>(seen + c)) {
        double lo = static_cast<double>(Lower(i));
        double width = static_cast<double>(Lower(i + 1)) - lo;
        double frac = (rank - static_cast<double>(seen) + 0.5) / static_cast<double>(c);
        return lo + frac * width;
      }
      seen += c;
    }
    return static_cast<double>(Lower(kBuckets));
  }

 private:
  // Values below 2^kSubBits get a bucket each; every octave above gets
  // kHalf buckets, so a bucket is under 0.2 % of its value wide.
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr uint64_t kHalf = kSub / 2;
  // Values up to 2^42 ns (over an hour); larger ones share the top bucket.
  static constexpr int kMaxBits = 42;
  static constexpr size_t kBuckets = kSub + (kMaxBits - kSubBits) * kHalf;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    int msb = 63 - std::countl_zero(v);  // >= kSubBits
    if (msb >= kMaxBits) {
      return kBuckets - 1;
    }
    int shift = msb - kSubBits + 1;  // leaves kSubBits - 1 bits below the msb
    return kSub + static_cast<size_t>(shift - 1) * kHalf +
           static_cast<size_t>((v >> shift) - kHalf);
  }
  // Smallest value that lands in bucket i (i may be kBuckets).
  static uint64_t Lower(size_t i) {
    if (i < kSub) {
      return i;
    }
    size_t j = i - kSub;
    return (j % kHalf + kHalf) << (j / kHalf + 1);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace e2e

#endif  // SVR4PROC_E2EBENCH_HIST_H_

// Window statistics: how a run turns its samples into end-to-end values.
//
// On a shared host the benchmark's CPU switches, for stretches of a second
// to minutes, between its own speed and a slowed state in which the
// simulator takes up to about 1.8x as long per stop, call or snapshot. A
// fixed compute loop timed beside it slows by far less, so the slowdown
// cannot be calibrated away, and a whole-run median reads whichever state
// held for most of the run. So each end-to-end time or rate is cut into
// windows of a fixed number of consecutive samples, each window yields one
// value (its median, say), and a run reports the level of its quietest
// kQuietShare of windows: the level the controller reaches while the host
// leaves it alone. A change to the program moves every window alike.
#ifndef SVR4PROC_E2EBENCH_WINDOWS_H_
#define SVR4PROC_E2EBENCH_WINDOWS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace e2e {

inline constexpr double kQuietShare = 0.01;

// The q-quantile of v by rank (v is reordered); 0 when empty.
inline double RankQuantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  auto it = v.begin() + static_cast<long>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), it, v.end());
  return *it;
}

class WindowSeries {
 public:
  // Each window of `size` samples yields its q-quantile and, when tail_q
  // is given, its tail_q-quantile as well.
  WindowSeries(size_t size, double q, double tail_q = -1) : size_(size), q_(q), tail_q_(tail_q) {
    buf_.reserve(size);
  }

  void Add(double sample) {
    buf_.push_back(sample);
    if (buf_.size() == size_) {
      values_.push_back(RankQuantile(buf_, q_));
      if (tail_q_ >= 0) {
        tails_.push_back(RankQuantile(buf_, tail_q_));
      }
      buf_.clear();
    }
  }
  size_t windows() const { return values_.size(); }

  // The level of the quietest kQuietShare of the full windows: that
  // quantile of their values from the low end for a time, from the high
  // end for a rate. 0 without a full window.
  double Quietest(bool rate) const {
    std::vector<double> v = values_;
    return RankQuantile(v, rate ? 1 - kQuietShare : kQuietShare);
  }
  // The median tail of the quietest kQuietShare of the windows by value
  // (a time): the tail the controller sees while the host leaves it alone,
  // without resting on any one window's few slowest samples.
  double QuietTail() const {
    const double cut = Quietest(false);
    std::vector<double> v;
    for (size_t i = 0; i < tails_.size(); ++i) {
      if (values_[i] <= cut) {
        v.push_back(tails_[i]);
      }
    }
    return RankQuantile(v, 0.5);
  }

 private:
  size_t size_;
  double q_;
  double tail_q_;
  std::vector<double> buf_;
  std::vector<double> values_;
  std::vector<double> tails_;
};

}  // namespace e2e

#endif  // SVR4PROC_E2EBENCH_WINDOWS_H_

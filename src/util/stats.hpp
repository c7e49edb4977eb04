// Streaming statistics used by the gauges.
#pragma once

namespace arcadia {

/// Exponentially-weighted moving average; the smoothing primitive behind
/// EWMA gauges.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }
  bool initialized() const { return initialized_; }
  double value() const { return value_; }
  void reset() { initialized_ = false; value_ = 0.0; }

 private:
  double alpha_;
  bool initialized_ = false;
  double value_ = 0.0;
};

}  // namespace arcadia

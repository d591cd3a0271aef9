// Host-speed calibration.
//
// A shared host's speed drifts by tens of percent over seconds and minutes,
// which moves every host time the benchmark reports. The calibration kernel
// is a fixed piece of work, compiled into the benchmark and independent of
// the library, in two halves that resemble what the simulator does: an
// event heap with lazy cancels, indirect dispatch and probes into a hash
// table of about a megabyte, like its inner loop; and building and tearing
// down maps of small strings and vectors, like assembling a testbed. Both
// halves together followed the host better than either one alone, for
// small cells most of all. Timed between the pieces of work the benchmark
// measures, it
// tells how fast the host ran around each of them, and dividing by it
// expresses a host time in seconds of a reference host, on which one
// calibration takes kReferenceSeconds.
#pragma once

#include <cstddef>
#include <vector>

namespace e2e {

class HostSpeed {
 public:
  /// Host seconds one calibration takes on the reference host. Chosen near
  /// the kernel's median on four Xeon vCPUs of a shared host, so that
  /// normalized times read close to measured ones there.
  static constexpr double kReferenceSeconds = 0.1;

  /// Measured times are gathered into segments of at least this many host
  /// seconds, with a calibration after each, so that a calibration is never
  /// far from the work it scales.
  static constexpr double kSegmentSeconds = 0.6;

  /// Runs one calibration and returns its host seconds.
  static double calibrate();

  /// Starts the series with a calibration.
  HostSpeed();

  /// Adds the next measured time and returns its index; calibrates once
  /// the open segment holds kSegmentSeconds.
  std::size_t add(double seconds);

  /// Closes the open segment, if it holds any time, with a calibration.
  void close();

  /// Every time added, in order, scaled by kReferenceSeconds over the mean
  /// of the calibrations just before and after its segment. The host's
  /// speed moves within seconds, so only the adjacent calibrations follow
  /// it; a wider window measured steadier calibrations but noisier times.
  /// Closes first.
  std::vector<double> normalized();

  /// Every time added, as measured.
  [[nodiscard]] const std::vector<double>& measured() const { return times_; }
  [[nodiscard]] std::size_t calibrations() const { return calibrations_.size(); }

 private:
  std::vector<double> calibrations_;
  std::vector<double> times_;
  std::vector<std::size_t> closed_by_;  // per time: the calibration after its segment
  double open_seconds_ = 0.0;
};

}  // namespace e2e

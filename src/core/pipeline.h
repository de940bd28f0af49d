// Per-AP spectrum pipeline: frame capture -> calibrated snapshots ->
// spatially smoothed MUSIC -> geometry weighting -> symmetry removal.
// This is the "AoA spectrum computation" box of Fig. 1, with each
// optimization independently toggleable so benches can isolate them.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "aoa/music.h"
#include "aoa/spectrum.h"
#include "aoa/symmetry.h"
#include "core/synthesis.h"
#include "phy/frontend.h"

namespace arraytrack::core {

struct PipelineOptions {
  /// NG = 4 on an 8-antenna row leaves the "five virtual antennas"
  /// the paper's 4.2.1 says are needed to avoid losing the direct path;
  /// ApProcessor clamps NG to half the row for smaller arrays.
  aoa::MusicOptions music{.smoothing_groups = 4};
  /// Confidence window W(theta) of 2.3.3.
  bool geometry_weighting = true;
  /// Soft blend level for the weighting (see
  /// AoaSpectrum::apply_geometry_weighting); 0 = the paper's plain
  /// multiplicative window (measured best on the office testbed; the
  /// soft variant is kept for the ablation bench).
  double weighting_soft_floor = 0.0;
  /// 360-degree disambiguation via the off-row antenna (2.3.4).
  bool symmetry_removal = true;
  double symmetry_suppression = 0.01;
  /// Number of leading elements forming the MUSIC linear row; 0 = all
  /// the AP's radios.
  std::size_t linear_elements = 0;
  /// Bearing-uncertainty kernel applied to the finished spectrum before
  /// it is used as a fusion likelihood: residual bias from coherent
  /// multipath, calibration residue and array imperfections is a few
  /// degrees, so a needle-sharp pseudospectrum would otherwise miss the
  /// true position in the product of equation 8. 0 disables.
  double bearing_sigma_deg = 2.0;
};

class ApProcessor {
 public:
  /// `ap` must outlive the processor.
  ApProcessor(const phy::AccessPointFrontEnd* ap, PipelineOptions opt = {});

  const PipelineOptions& options() const { return opt_; }
  const phy::AccessPointFrontEnd& ap() const { return *ap_; }

  /// Full spectrum pipeline for one captured frame: calibration ->
  /// smoothed MUSIC -> geometry weighting -> symmetry removal ->
  /// finish_spectrum(). The spectrum is normalized to peak 1. A
  /// non-null `tracker` replaces the per-frame eigendecomposition
  /// inside MUSIC with the tracked signal basis for this frame stream
  /// (see MusicEstimator::spectrum_from_covariance).
  aoa::AoaSpectrum process(const phy::FrameCapture& frame,
                           linalg::SubspaceTracker* tracker = nullptr) const;

  /// Calibrated covariance of the MUSIC linear row for one frame — the
  /// input of the covariance -> spectrum stage that music_spectrum()
  /// (and the subspace tracker) consume. Split out so benches can
  /// isolate that stage from capture calibration.
  linalg::CMatrix row_covariance(const phy::FrameCapture& frame) const;

  /// The covariance -> MUSIC-spectrum stage alone (no geometry
  /// weighting, symmetry removal, or blur), with optional tracking.
  aoa::AoaSpectrum music_spectrum(const linalg::CMatrix& row_cov,
                                  linalg::SubspaceTracker* tracker = nullptr) const;

  /// Tracker options matching this processor's MUSIC configuration.
  linalg::SubspaceOptions subspace_options() const {
    return music_->subspace_options();
  }

  /// The MUSIC estimator (steering tables live there); used for the
  /// server's table-footprint accounting and the quant benches.
  const aoa::MusicEstimator& music() const { return *music_; }

  /// Bearing blur + peak normalization — the tail of process(), public
  /// so a stage-by-stage replay can time the blur on its own.
  void finish_spectrum(aoa::AoaSpectrum& spec) const;

  /// The processed spectrum tagged with the AP pose, ready to fuse.
  ApSpectrum process_tagged(const phy::FrameCapture& frame) const;

 private:
  const phy::AccessPointFrontEnd* ap_;
  PipelineOptions opt_;
  std::size_t row_;  // linear row length
  /// Estimators are geometry-bound and precompute steering tables, so
  /// they are built once here rather than per frame.
  std::unique_ptr<aoa::MusicEstimator> music_;
  std::unique_ptr<aoa::SymmetryResolver> resolver_;
  /// Bearing-blur taps for the MUSIC bin count (empty: no blur).
  std::vector<double> blur_taps_;
};

}  // namespace arraytrack::core

#include "core/pipeline.h"

#include <algorithm>
#include <stdexcept>

#include "aoa/covariance.h"

namespace arraytrack::core {

ApProcessor::ApProcessor(const phy::AccessPointFrontEnd* ap,
                         PipelineOptions opt)
    : ap_(ap), opt_(opt) {
  row_ = opt_.linear_elements ? opt_.linear_elements : ap_->config().radios;
  if (row_ > ap_->config().radios)
    throw std::invalid_argument("ApProcessor: linear row exceeds radio count");
  // Keep at least half the row as the smoothed subarray.
  opt_.music.smoothing_groups =
      std::max<std::size_t>(1, std::min(opt_.music.smoothing_groups, row_ / 2));

  const double wavelength = ap_->channel().config().wavelength_m();
  const auto elements = ap_->capture_elements();
  std::vector<std::size_t> row_elements(elements.begin(),
                                        elements.begin() +
                                            std::ptrdiff_t(row_));
  music_ = std::make_unique<aoa::MusicEstimator>(&ap_->array(), row_elements,
                                                 wavelength, opt_.music);
  if (opt_.symmetry_removal && elements.size() > row_) {
    aoa::SymmetryOptions sym;
    sym.suppression = opt_.symmetry_suppression;
    resolver_ = std::make_unique<aoa::SymmetryResolver>(
        &ap_->array(), elements, wavelength, sym);
  }
  blur_taps_ =
      aoa::gaussian_taps(deg2rad(opt_.bearing_sigma_deg), opt_.music.bins);
}

aoa::AoaSpectrum ApProcessor::process(const phy::FrameCapture& frame,
                                      linalg::SubspaceTracker* tracker) const {
  const linalg::CMatrix samples = ap_->calibrated_samples(frame);
  if (samples.rows() < row_)
    throw std::invalid_argument("ApProcessor: capture smaller than row");

  aoa::AoaSpectrum spec = music_->spectrum_from_covariance(
      aoa::sample_covariance(samples.block(0, 0, row_, samples.cols())),
      tracker);

  if (opt_.geometry_weighting)
    spec.apply_geometry_weighting(opt_.weighting_soft_floor);

  // Symmetry removal uses the linear row plus every off-row element
  // captured via diversity synthesis (the paper's "ninth antenna",
  // generalized to all available diversity antennas for a stronger
  // side decision).
  if (resolver_ && samples.rows() > row_)
    resolver_->resolve_per_peak(aoa::sample_covariance(samples), &spec);

  finish_spectrum(spec);
  return spec;
}

linalg::CMatrix ApProcessor::row_covariance(
    const phy::FrameCapture& frame) const {
  const linalg::CMatrix samples = ap_->calibrated_samples(frame);
  if (samples.rows() < row_)
    throw std::invalid_argument("ApProcessor: capture smaller than row");
  return aoa::sample_covariance(samples.block(0, 0, row_, samples.cols()));
}

aoa::AoaSpectrum ApProcessor::music_spectrum(
    const linalg::CMatrix& row_cov, linalg::SubspaceTracker* tracker) const {
  return music_->spectrum_from_covariance(row_cov, tracker);
}

void ApProcessor::finish_spectrum(aoa::AoaSpectrum& spec) const {
  if (spec.bins() == opt_.music.bins)
    spec.convolve(blur_taps_);
  else
    spec.convolve_gaussian(deg2rad(opt_.bearing_sigma_deg));
  spec.normalize();
}

ApSpectrum ApProcessor::process_tagged(const phy::FrameCapture& frame) const {
  ApSpectrum out;
  out.ap_position = ap_->array().position();
  out.orientation_rad = ap_->array().orientation();
  out.spectrum = process(frame);
  return out;
}

}  // namespace arraytrack::core

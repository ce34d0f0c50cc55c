#include "src/mems/capacitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/common/units.hpp"

namespace tono::mems {
namespace {

/// Fraction of the gap at which we declare mechanical touch-down and stop
/// following the 1/(g-w) divergence.
constexpr double kTouchdownFraction = 0.95;

}  // namespace

MembraneCapacitor::MembraneCapacitor(SquarePlate plate, CapacitorGeometry geometry,
                                     std::size_t quadrature_points)
    : plate_(std::move(plate)), geometry_(geometry), quad_n_(quadrature_points) {
  if (geometry_.gap_m <= 0.0) throw std::invalid_argument{"MembraneCapacitor: bad gap"};
  if (geometry_.electrode_coverage <= 0.0 || geometry_.electrode_coverage > 1.0) {
    throw std::invalid_argument{"MembraneCapacitor: coverage must be in (0, 1]"};
  }
  if (quad_n_ < 4) quad_n_ = 4;
  if (quad_n_ % 2 != 0) ++quad_n_;  // Simpson needs an even interval count

  // The electrode's Simpson nodes, shared by both axes.
  const double a = plate_.geometry().side_length_m;
  const double cov = geometry_.electrode_coverage;
  const double lo = 0.5 * a * (1.0 - cov);
  const double hi = 0.5 * a * (1.0 + cov);
  node_step_m_ = (hi - lo) / static_cast<double>(quad_n_);
  node_mode_.resize(quad_n_ + 1);
  node_on_plate_.resize(quad_n_ + 1);
  for (std::size_t i = 0; i <= quad_n_; ++i) {
    const double x = lo + node_step_m_ * static_cast<double>(i);
    node_mode_[i] = plate_.mode_factor(x);
    node_on_plate_[i] = x < 0.0 || x > a ? 0 : 1;
  }
}

double MembraneCapacitor::capacitance_at_deflection(double w0_m) const noexcept {
  const double g0 = geometry_.gap_m;
  // Clamp so the integrand stays finite past touch-down.
  const double w0 = std::clamp(w0_m, -kTouchdownFraction * g0, kTouchdownFraction * g0);

  const std::size_t n = quad_n_;
  const double h = node_step_m_;

  // Simpson weights 1,4,2,...,4,1 in each dimension.
  auto weight = [n](std::size_t i) -> double {
    if (i == 0 || i == n) return 1.0;
    return (i % 2 == 1) ? 4.0 : 2.0;
  };

  // Positive w (deflection toward the top / away from the substrate, as
  // under backpressure) *increases* the gap; pressure applied from the top
  // produces negative w here. capacitance_at_pressure() flips the sign so
  // that positive applied pressure shrinks the gap.
  //
  // The deflection is SquarePlate::deflection_at's 0.25 · w₀ · f(x) · f(y),
  // multiplied in the same left-to-right order (so hoisting the row factor
  // changes no bit), and 0 off the plate as there.
  double sum = 0.0;
  for (std::size_t i = 0; i <= n; ++i) {
    const double row = 0.25 * w0 * node_mode_[i];
    for (std::size_t j = 0; j <= n; ++j) {
      const double w = node_on_plate_[i] && node_on_plate_[j] ? row * node_mode_[j] : 0.0;
      double gap = g0 + w;
      gap = std::max(gap, (1.0 - kTouchdownFraction) * g0);
      sum += weight(i) * weight(j) / gap;
    }
  }
  const double integral = sum * h * h / 9.0;
  const double eps = units::epsilon0 * geometry_.gap_permittivity;
  return eps * integral + geometry_.parasitic_f;
}

double MembraneCapacitor::capacitance_at_pressure(double pressure_pa) const noexcept {
  // Positive applied (contact) pressure deflects toward the substrate:
  // negative w in the deflection convention above.
  const double w0 = plate_.center_deflection(pressure_pa);
  return capacitance_at_deflection(-w0);
}

double MembraneCapacitor::rest_capacitance() const noexcept {
  return capacitance_at_deflection(0.0);
}

double MembraneCapacitor::sensitivity_at(double bias_pressure_pa) const noexcept {
  const double scale = std::max(std::abs(bias_pressure_pa), 1000.0);
  const double dp = 1e-4 * scale;
  const double c_hi = capacitance_at_pressure(bias_pressure_pa + dp);
  const double c_lo = capacitance_at_pressure(bias_pressure_pa - dp);
  return (c_hi - c_lo) / (2.0 * dp);
}

double MembraneCapacitor::pull_in_voltage() const noexcept {
  const double a = plate_.geometry().side_length_m;
  const double area = a * a * geometry_.electrode_coverage * geometry_.electrode_coverage;
  const double g = geometry_.gap_m;
  // Lumped stiffness referencing center deflection: k_lump = p·A / w₀.
  const double k_lump = plate_.linear_stiffness() * area;
  const double eps = units::epsilon0 * geometry_.gap_permittivity;
  return std::sqrt(8.0 * k_lump * g * g * g / (27.0 * eps * area));
}

double MembraneCapacitor::touch_down_deflection() const noexcept {
  return kTouchdownFraction * geometry_.gap_m;
}

}  // namespace tono::mems

#include "src/mems/plate.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace tono::mems {
namespace {

/// 1/0.00126 — Timoshenko's clamped-square-plate bending coefficient.
constexpr double kBendingCoefficient = 793.65;

/// Rayleigh-Ritz tension coefficient for the clamped-plate mode shape.
const double kTensionCoefficient = 1.5 * std::numbers::pi * std::numbers::pi;

/// Maier-Schneider large-deflection coefficient for square diaphragms
/// (1.58 in half-side-length convention → 25.3 for full side length).
constexpr double kCubicCoefficient = 25.3;

/// First-mode eigenvalue coefficient λ² for a clamped square plate.
constexpr double kClampedSquareLambdaSq = 35.99;

}  // namespace

SquarePlate::SquarePlate(PlateGeometry geometry) : geometry_(std::move(geometry)) {
  const double a = geometry_.side_length_m;
  if (a <= 0.0) throw std::invalid_argument{"SquarePlate: non-positive side length"};
  if (geometry_.stack.layers().empty()) {
    throw std::invalid_argument{"SquarePlate: empty layer stack"};
  }
  rigidity_ = geometry_.stack.flexural_rigidity();
  tension_ = geometry_.stack.residual_tension();
  const double a2 = a * a;
  const double a4 = a2 * a2;
  k1_ = kBendingCoefficient * rigidity_ / a4 + kTensionCoefficient * tension_ / a2;
  if (k1_ <= 0.0) {
    // Strongly compressive stacks would buckle; the model does not cover
    // post-buckling, so reject such configurations explicitly.
    throw std::invalid_argument{"SquarePlate: net stiffness non-positive (buckled membrane)"};
  }
  const double t = geometry_.stack.total_thickness_m();
  const double e_eff = geometry_.stack.effective_youngs_modulus();
  const double nu_eff = geometry_.stack.effective_poisson_ratio();
  k3_ = kCubicCoefficient * e_eff * t / ((1.0 - nu_eff) * a4);
}

double SquarePlate::center_deflection(double pressure_pa) const noexcept {
  if (pressure_pa == 0.0) return 0.0;
  // Solve k1 w + k3 w^3 = p for the single real root (k1, k3 > 0 → monotone).
  // Cardano, depressed cubic w^3 + (k1/k3) w - p/k3 = 0.
  const double p = k1_ / k3_;
  const double q = -pressure_pa / k3_;
  const double half_q = 0.5 * q;
  const double disc = half_q * half_q + (p / 3.0) * (p / 3.0) * (p / 3.0);
  // k1, k3 > 0 ⇒ disc > 0 always: one real root.
  const double sqrt_disc = std::sqrt(disc);
  const double u = std::cbrt(-half_q + sqrt_disc);
  const double v = std::cbrt(-half_q - sqrt_disc);
  return u + v;
}

double SquarePlate::deflection_at(double x_m, double y_m, double w0_m) const noexcept {
  const double a = geometry_.side_length_m;
  if (x_m < 0.0 || x_m > a || y_m < 0.0 || y_m > a) return 0.0;
  return 0.25 * w0_m * mode_factor(x_m) * mode_factor(y_m);
}

double SquarePlate::mode_factor(double coord_m) const noexcept {
  const double two_pi = 2.0 * std::numbers::pi;
  return 1.0 - std::cos(two_pi * coord_m / geometry_.side_length_m);
}

double SquarePlate::compliance_at(double bias_pressure_pa) const noexcept {
  const double w0 = center_deflection(bias_pressure_pa);
  return 1.0 / (k1_ + 3.0 * k3_ * w0 * w0);
}

double SquarePlate::fundamental_resonance_hz() const noexcept {
  const double a = geometry_.side_length_m;
  const double rho_a = geometry_.stack.areal_density();
  if (rho_a <= 0.0) return 0.0;
  const double f_bending = kClampedSquareLambdaSq /
                           (2.0 * std::numbers::pi * a * a) *
                           std::sqrt(rigidity_ / rho_a);
  const double a2 = a * a;
  const double k1_no_tension = kBendingCoefficient * rigidity_ / (a2 * a2);
  return f_bending * std::sqrt(k1_ / k1_no_tension);
}

}  // namespace tono::mems

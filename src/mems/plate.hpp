// plate.hpp — clamped square composite plate under uniform pressure.
//
// Mechanical model of one membrane of the 2x2 array (§2.1: 100 µm side,
// 3 µm thick). The deflection law combines:
//   * small-deflection plate bending (Timoshenko coefficient for a clamped
//     square plate, w₀ = 0.00126 · p·a⁴/D),
//   * residual-tension stiffening from the net film stress (Rayleigh-Ritz
//     with the clamped-plate mode shape, coefficient 3π²/2),
//   * von Kármán cubic stiffening for large deflection (Maier-Schneider
//     coefficient for square diaphragms).
// so that  p(w₀) = k₁·w₀ + k₃·w₀³  with
//   k₁ = 793.65·D/a⁴ + (3π²/2)·N₀/a²,  k₃ ≈ 25.3·E_eff·t / ((1−ν_eff)·a⁴).
// The inverse (pressure → deflection) is solved exactly (monotone cubic).
#pragma once

#include "src/mems/materials.hpp"

namespace tono::mems {

/// Geometry + laminate of a single square membrane.
struct PlateGeometry {
  double side_length_m{100e-6};  ///< paper: 100 µm
  LayerStack stack{LayerStack::cmos_membrane_stack()};
};

class SquarePlate {
 public:
  explicit SquarePlate(PlateGeometry geometry);

  /// Linear stiffness k₁ [Pa/m]: pressure per unit center deflection.
  [[nodiscard]] double linear_stiffness() const noexcept { return k1_; }

  /// Cubic stiffening coefficient k₃ [Pa/m³].
  [[nodiscard]] double cubic_stiffness() const noexcept { return k3_; }

  /// Center deflection for a uniform transverse pressure [m]; sign follows
  /// the pressure (positive = toward the substrate opening / upward under
  /// backpressure). Exact solution of k₁w + k₃w³ = p.
  [[nodiscard]] double center_deflection(double pressure_pa) const noexcept;

  /// Uniform pressure needed to hold a given center deflection [Pa].
  [[nodiscard]] double pressure_for_deflection(double w0_m) const noexcept {
    return k1_ * w0_m + k3_ * w0_m * w0_m * w0_m;
  }

  /// Deflection at membrane coordinates (x, y) ∈ [0, a]² for center
  /// deflection w₀, using the clamped-plate mode shape
  /// w = w₀/4 · (1 − cos 2πx/a)(1 − cos 2πy/a).
  [[nodiscard]] double deflection_at(double x_m, double y_m, double w0_m) const noexcept;

  /// One axis of that mode shape, 1 − cos 2πx/a, at a coordinate in [0, a]:
  /// deflection_at(x, y, w₀) = 0.25 · w₀ · mode_factor(x) · mode_factor(y).
  [[nodiscard]] double mode_factor(double coord_m) const noexcept;

  /// Mean deflection over the plate for center deflection w₀ (= w₀/4 for
  /// the mode shape above).
  [[nodiscard]] double mean_deflection(double w0_m) const noexcept { return 0.25 * w0_m; }

  /// Small-signal mechanical sensitivity dw₀/dp at the given bias pressure
  /// [m/Pa] (decreases as the cubic term engages).
  [[nodiscard]] double compliance_at(double bias_pressure_pa) const noexcept;

  /// Fundamental resonance of the clamped square plate [Hz], including the
  /// residual-tension stiffening via the static-stiffness ratio:
  /// f = (35.99 / 2πa²)·√(D/ρ_A) · √(k₁ / k₁|_{N₀=0}).
  [[nodiscard]] double fundamental_resonance_hz() const noexcept;

  [[nodiscard]] const PlateGeometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] double flexural_rigidity() const noexcept { return rigidity_; }
  [[nodiscard]] double residual_tension() const noexcept { return tension_; }

 private:
  PlateGeometry geometry_;
  double rigidity_;
  double tension_;
  double k1_;
  double k3_;
};

}  // namespace tono::mems

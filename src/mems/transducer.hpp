// transducer.hpp — one complete force-sensitive element of the array.
//
// Combines the mechanical plate and the sensing capacitor, adds the
// backpressure bias (§3.2: "an applied overpressure bends the membrane
// layers upwards, so that they stick out and touch the surface of the
// measured object"), small fabrication mismatch, temperature drift and
// Brownian (thermo-mechanical) pressure noise. Also models the unreleased
// reference structure whose capacitance is pressure-independent.
#pragma once

#include <optional>

#include "src/mems/capacitor.hpp"

namespace tono::mems {

struct TransducerConfig {
  PlateGeometry plate{};
  CapacitorGeometry capacitor{};
  /// Static backpressure applied through the pressure tube on the chip
  /// backside [Pa]; pushes the membrane up (away from the substrate).
  double backpressure_pa{0.0};
  /// Multiplicative fabrication mismatch on rest capacitance (1.0 = nominal).
  double capacitance_mismatch{1.0};
  /// Linear temperature coefficient of capacitance [1/K] around 300 K.
  double capacitance_tempco_per_k{30e-6};
  /// Mechanical quality factor (air-damped membrane), for noise estimates.
  double quality_factor{5.0};
};

/// Force-sensitive element: net pressure → deflection → capacitance.
class PressureTransducer {
 public:
  explicit PressureTransducer(const TransducerConfig& config);

  /// Capacitance for a given *contact* pressure applied to the membrane top
  /// [F]. The net membrane load is contact − backpressure (backpressure
  /// pushes up). Temperature defaults to the calibration point.
  [[nodiscard]] double capacitance(double contact_pressure_pa,
                                   double temperature_k = 300.0) const noexcept;

  /// The two factors of capacitance(): the bare capacitor's value under the
  /// net membrane load, then this element's mismatch and temperature drift
  /// applied to it. capacitance(p, T) ==
  /// scaled_capacitance(membrane_capacitance(p), T) bit for bit, so elements
  /// that share a stack and backpressure can share the (costly) first factor.
  [[nodiscard]] double membrane_capacitance(double contact_pressure_pa) const noexcept;
  [[nodiscard]] double scaled_capacitance(double membrane_capacitance_f,
                                          double temperature_k = 300.0) const noexcept;

  /// Rest capacitance at the bias point (backpressure only, no contact).
  [[nodiscard]] double bias_capacitance() const noexcept;

  /// Small-signal sensitivity dC/dp at the bias point [F/Pa].
  [[nodiscard]] double sensitivity() const noexcept;

  /// Center deflection under a contact pressure (positive = toward the
  /// substrate) [m].
  [[nodiscard]] double deflection(double contact_pressure_pa) const noexcept;

  /// True if the given contact pressure drives the membrane into touch-down.
  [[nodiscard]] bool touches_down(double contact_pressure_pa) const noexcept;

  /// Thermo-mechanical (Brownian) noise-equivalent pressure density
  /// [Pa/√Hz]: √(4 k_B T k₁ / (2π f₀ Q A_eff)) referred to the membrane.
  [[nodiscard]] double noise_equivalent_pressure_density(
      double temperature_k = 300.0) const noexcept;

  [[nodiscard]] const MembraneCapacitor& capacitor() const noexcept { return cap_; }
  [[nodiscard]] const TransducerConfig& config() const noexcept { return config_; }

  /// The unreleased reference structure: same stack and electrodes but the
  /// sacrificial layer is kept, so the capacitance is fixed. Returns its
  /// pressure-independent value [F].
  [[nodiscard]] double reference_capacitance() const noexcept;

 private:
  TransducerConfig config_;
  MembraneCapacitor cap_;
};

}  // namespace tono::mems

#include "src/mems/transducer.hpp"

#include <cmath>
#include <numbers>

#include "src/common/units.hpp"

namespace tono::mems {

PressureTransducer::PressureTransducer(const TransducerConfig& config)
    : config_(config), cap_(SquarePlate{config.plate}, config.capacitor) {}

double PressureTransducer::capacitance(double contact_pressure_pa,
                                       double temperature_k) const noexcept {
  return scaled_capacitance(membrane_capacitance(contact_pressure_pa), temperature_k);
}

double PressureTransducer::membrane_capacitance(double contact_pressure_pa) const noexcept {
  const double net = contact_pressure_pa - config_.backpressure_pa;
  return cap_.capacitance_at_pressure(net);
}

double PressureTransducer::scaled_capacitance(double membrane_capacitance_f,
                                              double temperature_k) const noexcept {
  const double drift =
      1.0 + config_.capacitance_tempco_per_k * (temperature_k - 300.0);
  return membrane_capacitance_f * config_.capacitance_mismatch * drift;
}

double PressureTransducer::bias_capacitance() const noexcept { return capacitance(0.0); }

double PressureTransducer::sensitivity() const noexcept {
  return cap_.sensitivity_at(-config_.backpressure_pa) * config_.capacitance_mismatch;
}

double PressureTransducer::deflection(double contact_pressure_pa) const noexcept {
  return cap_.plate().center_deflection(contact_pressure_pa - config_.backpressure_pa);
}

bool PressureTransducer::touches_down(double contact_pressure_pa) const noexcept {
  return std::abs(deflection(contact_pressure_pa)) >= cap_.touch_down_deflection();
}

double PressureTransducer::noise_equivalent_pressure_density(
    double temperature_k) const noexcept {
  const auto& plate = cap_.plate();
  const double a = plate.geometry().side_length_m;
  const double area = a * a;
  const double f0 = plate.fundamental_resonance_hz();
  const double q = config_.quality_factor;
  if (f0 <= 0.0 || q <= 0.0) return 0.0;
  // Lumped: S_F = 4 k_B T k_lump / (ω₀ Q); pressure = force / area.
  const double k_lump = plate.linear_stiffness() * area;  // N/m on center deflection
  const double omega0 = units::two_pi * f0;
  const double s_force = 4.0 * units::k_boltzmann * temperature_k * k_lump / (omega0 * q);
  return std::sqrt(s_force) / area;
}

double PressureTransducer::reference_capacitance() const noexcept {
  // Unreleased structure: plate cannot move; same rest geometry.
  return cap_.rest_capacitance() * config_.capacitance_mismatch;
}

}  // namespace tono::mems

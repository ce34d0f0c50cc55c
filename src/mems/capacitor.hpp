// capacitor.hpp — deflection-dependent membrane capacitance.
//
// §2.1/Fig. 2: the top electrode (second metal, inside the membrane) moves
// against the fixed polysilicon bottom electrode across the gap opened by the
// sacrificial removal of metal 1. Capacitance is the surface integral of
// ε₀ / (g₀ − w(x, y)) over the electrode, evaluated with 2-D Simpson
// quadrature on the clamped-plate mode shape. The mode shape separates into
// one factor per axis and the x and y grids are the same grid, so the
// capacitor tabulates that factor once per Simpson node at construction;
// an evaluation is then cos-free and rounds exactly as
// SquarePlate::deflection_at would at every node.
#pragma once

#include <cstddef>
#include <vector>

#include "src/mems/plate.hpp"

namespace tono::mems {

struct CapacitorGeometry {
  /// Zero-deflection electrode gap (sacrificial metal-1 + spacing) [m].
  double gap_m{0.9e-6};
  /// Electrode is a centered square covering this fraction of the membrane
  /// side (1.0 = full membrane).
  double electrode_coverage{0.9};
  /// Fixed parasitic (wiring, fringe) capacitance added to the plate term.
  double parasitic_f{15e-15};
  /// Relative permittivity of the gap medium (air/vacuum after release).
  double gap_permittivity{1.0};
};

class MembraneCapacitor {
 public:
  MembraneCapacitor(SquarePlate plate, CapacitorGeometry geometry,
                    std::size_t quadrature_points = 32);

  /// Capacitance at a given center deflection [F]. Deflection toward the
  /// bottom electrode (negative w₀ in our sign convention, where positive
  /// pressure from the top pushes the membrane *toward* the substrate)
  /// increases capacitance. Deflections beyond 95 % of the gap are clamped
  /// (mechanical touch-down).
  [[nodiscard]] double capacitance_at_deflection(double w0_m) const noexcept;

  /// Capacitance under a uniform net pressure [F]. Positive pressure presses
  /// the membrane toward the bottom electrode (gap shrinks, C grows).
  [[nodiscard]] double capacitance_at_pressure(double pressure_pa) const noexcept;

  /// Zero-pressure (rest) capacitance [F], including parasitics.
  [[nodiscard]] double rest_capacitance() const noexcept;

  /// Small-signal sensitivity dC/dp at a bias pressure [F/Pa] (central
  /// difference with a pressure step small relative to the bias scale).
  [[nodiscard]] double sensitivity_at(double bias_pressure_pa) const noexcept;

  /// Pull-in voltage estimate [V] from the lumped parallel-plate criterion
  /// V_pi = sqrt(8 k_lump g³ / (27 ε A)), with k_lump the equivalent lumped
  /// stiffness p·A/w₀ of the distributed plate.
  [[nodiscard]] double pull_in_voltage() const noexcept;

  /// Center deflection at which the membrane touches the bottom electrode.
  [[nodiscard]] double touch_down_deflection() const noexcept;

  [[nodiscard]] const SquarePlate& plate() const noexcept { return plate_; }
  [[nodiscard]] const CapacitorGeometry& geometry() const noexcept { return geometry_; }

 private:
  SquarePlate plate_;
  CapacitorGeometry geometry_;
  std::size_t quad_n_;
  double node_step_m_;                // Simpson node spacing h
  std::vector<double> node_mode_;     // plate_.mode_factor at each node
  std::vector<char> node_on_plate_;   // node coordinate inside [0, a]
};

}  // namespace tono::mems

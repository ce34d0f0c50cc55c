// Tests for the membrane gap capacitance.
#include "src/mems/capacitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "src/common/units.hpp"

namespace tono::mems {
namespace {

MembraneCapacitor make_cap(CapacitorGeometry geom = {}) {
  return MembraneCapacitor{SquarePlate{PlateGeometry{}}, geom};
}

TEST(MembraneCapacitor, RestCapacitanceMatchesParallelPlate) {
  CapacitorGeometry geom;
  geom.electrode_coverage = 1.0;
  geom.parasitic_f = 0.0;
  const auto cap = make_cap(geom);
  const double a = 100e-6;
  const double expected = units::epsilon0 * a * a / geom.gap_m;
  EXPECT_NEAR(cap.rest_capacitance(), expected, 1e-3 * expected);
}

TEST(MembraneCapacitor, RestCapacitanceIncludesParasitic) {
  CapacitorGeometry geom;
  geom.parasitic_f = 20e-15;
  const auto with = make_cap(geom);
  geom.parasitic_f = 0.0;
  const auto without = make_cap(geom);
  EXPECT_NEAR(with.rest_capacitance() - without.rest_capacitance(), 20e-15, 1e-20);
}

TEST(MembraneCapacitor, PaperElementAboutHundredFemtofarad) {
  // 100 µm × 100 µm over ≈ 0.9 µm gap → order 100 fF, matching the design
  // point the readout circuit is built around.
  const auto cap = make_cap();
  EXPECT_GT(cap.rest_capacitance(), 50e-15);
  EXPECT_LT(cap.rest_capacitance(), 200e-15);
}

TEST(MembraneCapacitor, PressureIncreasesCapacitance) {
  const auto cap = make_cap();
  const double c0 = cap.capacitance_at_pressure(0.0);
  const double c1 = cap.capacitance_at_pressure(units::mmhg_to_pa(100.0));
  EXPECT_GT(c1, c0);
}

TEST(MembraneCapacitor, NegativePressureDecreasesCapacitance) {
  const auto cap = make_cap();
  EXPECT_LT(cap.capacitance_at_pressure(-units::mmhg_to_pa(100.0)),
            cap.capacitance_at_pressure(0.0));
}

TEST(MembraneCapacitor, MonotoneOverOperatingRange) {
  const auto cap = make_cap();
  double prev = cap.capacitance_at_pressure(-30e3);
  for (double p = -25e3; p <= 50e3; p += 5e3) {
    const double c = cap.capacitance_at_pressure(p);
    EXPECT_GT(c, prev) << "p = " << p;
    prev = c;
  }
}

TEST(MembraneCapacitor, SensitivityPositiveAndPlausible) {
  const auto cap = make_cap();
  const double s = cap.sensitivity_at(0.0);
  EXPECT_GT(s, 0.0);
  // Order of magnitude: tens of zeptofarad per pascal.
  EXPECT_GT(s, 1e-21);
  EXPECT_LT(s, 1e-18);
}

TEST(MembraneCapacitor, DeflectionTowardSubstrateIncreasesC) {
  const auto cap = make_cap();
  // Negative w0 = toward bottom electrode in the deflection convention.
  EXPECT_GT(cap.capacitance_at_deflection(-100e-9), cap.capacitance_at_deflection(0.0));
  EXPECT_LT(cap.capacitance_at_deflection(+100e-9), cap.capacitance_at_deflection(0.0));
}

TEST(MembraneCapacitor, TouchDownClampsDivergence) {
  const auto cap = make_cap();
  const double c_touch = cap.capacitance_at_deflection(-cap.geometry().gap_m);
  const double c_beyond = cap.capacitance_at_deflection(-2.0 * cap.geometry().gap_m);
  EXPECT_TRUE(std::isfinite(c_touch));
  EXPECT_DOUBLE_EQ(c_touch, c_beyond);  // clamped
}

TEST(MembraneCapacitor, SmallerCoverageSmallerCapacitance) {
  CapacitorGeometry g1;
  g1.electrode_coverage = 1.0;
  g1.parasitic_f = 0.0;
  CapacitorGeometry g2 = g1;
  g2.electrode_coverage = 0.5;
  EXPECT_GT(make_cap(g1).rest_capacitance(), make_cap(g2).rest_capacitance());
  // Quarter area → quarter capacitance (approximately; gap uniform at rest).
  EXPECT_NEAR(make_cap(g2).rest_capacitance() / make_cap(g1).rest_capacitance(), 0.25,
              0.01);
}

TEST(MembraneCapacitor, CentralElectrodeMoreSensitivePerArea) {
  // The center deflects most, so a 50 %-coverage central electrode keeps
  // more than 25 % of the full-coverage pressure response.
  CapacitorGeometry full;
  full.parasitic_f = 0.0;
  full.electrode_coverage = 1.0;
  CapacitorGeometry half = full;
  half.electrode_coverage = 0.5;
  const auto cf = make_cap(full);
  const auto ch = make_cap(half);
  const double p = 20e3;
  const double dc_full = cf.capacitance_at_pressure(p) - cf.rest_capacitance();
  const double dc_half = ch.capacitance_at_pressure(p) - ch.rest_capacitance();
  EXPECT_GT(dc_half / dc_full, 0.25);
}

TEST(MembraneCapacitor, PullInVoltagePlausible) {
  const auto cap = make_cap();
  const double v_pi = cap.pull_in_voltage();
  // Stiff CMOS membrane over a sub-micron gap: pull-in far above the 5 V
  // supply (the device must not pull in during operation).
  EXPECT_GT(v_pi, 5.0);
  EXPECT_LT(v_pi, 1e4);
}

TEST(MembraneCapacitor, TouchDownDeflectionBelowGap) {
  const auto cap = make_cap();
  EXPECT_LT(cap.touch_down_deflection(), cap.geometry().gap_m);
  EXPECT_GT(cap.touch_down_deflection(), 0.5 * cap.geometry().gap_m);
}

TEST(MembraneCapacitor, RejectsBadGeometry) {
  CapacitorGeometry bad;
  bad.gap_m = 0.0;
  EXPECT_THROW(make_cap(bad), std::invalid_argument);
  CapacitorGeometry bad2;
  bad2.electrode_coverage = 0.0;
  EXPECT_THROW(make_cap(bad2), std::invalid_argument);
  CapacitorGeometry bad3;
  bad3.electrode_coverage = 1.5;
  EXPECT_THROW(make_cap(bad3), std::invalid_argument);
}

TEST(MembraneCapacitor, HigherPermittivityScalesPlateTerm) {
  CapacitorGeometry g;
  g.parasitic_f = 0.0;
  g.gap_permittivity = 1.0;
  const auto air = make_cap(g);
  g.gap_permittivity = 2.0;
  const auto dielectric = make_cap(g);
  EXPECT_NEAR(dielectric.rest_capacitance() / air.rest_capacitance(), 2.0, 1e-9);
}

// Property: quadrature converges — finer grids agree with the default.
class QuadratureTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuadratureTest, ConvergedCapacitance) {
  const MembraneCapacitor coarse{SquarePlate{PlateGeometry{}}, CapacitorGeometry{},
                                 GetParam()};
  const MembraneCapacitor fine{SquarePlate{PlateGeometry{}}, CapacitorGeometry{}, 64};
  const double p = 30e3;
  EXPECT_NEAR(coarse.capacitance_at_pressure(p), fine.capacitance_at_pressure(p),
              1e-4 * fine.capacitance_at_pressure(p));
}

INSTANTIATE_TEST_SUITE_P(GridSizes, QuadratureTest, ::testing::Values(16u, 24u, 32u, 48u));

/// The capacitance integral written out directly: the clamped-plate mode
/// shape evaluated with two cos calls at every Simpson node, in the order
/// the capacitor must reproduce bit for bit.
double reference_capacitance(const PlateGeometry& plate, const CapacitorGeometry& geom,
                             std::size_t quadrature_points, double w0_m) {
  constexpr double kTouchdown = 0.95;
  const double a = plate.side_length_m;
  const double g0 = geom.gap_m;
  const double w0 = std::clamp(w0_m, -kTouchdown * g0, kTouchdown * g0);
  std::size_t n = std::max<std::size_t>(quadrature_points, 4);
  if (n % 2 != 0) ++n;
  const double lo = 0.5 * a * (1.0 - geom.electrode_coverage);
  const double hi = 0.5 * a * (1.0 + geom.electrode_coverage);
  const double h = (hi - lo) / static_cast<double>(n);
  auto weight = [n](std::size_t i) { return i == 0 || i == n ? 1.0 : i % 2 == 1 ? 4.0 : 2.0; };
  auto deflection = [&](double x, double y) {
    if (x < 0.0 || x > a || y < 0.0 || y > a) return 0.0;
    const double two_pi = 2.0 * std::numbers::pi;
    const double fx = 1.0 - std::cos(two_pi * x / a);
    const double fy = 1.0 - std::cos(two_pi * y / a);
    return 0.25 * w0 * fx * fy;
  };
  double sum = 0.0;
  for (std::size_t i = 0; i <= n; ++i) {
    const double x = lo + h * static_cast<double>(i);
    for (std::size_t j = 0; j <= n; ++j) {
      const double y = lo + h * static_cast<double>(j);
      double gap = g0 + deflection(x, y);
      gap = std::max(gap, (1.0 - kTouchdown) * g0);
      sum += weight(i) * weight(j) / gap;
    }
  }
  const double integral = sum * h * h / 9.0;
  return units::epsilon0 * geom.gap_permittivity * integral + geom.parasitic_f;
}

void expect_bitwise_equal_to_reference(const CapacitorGeometry& geom,
                                       std::size_t quadrature_points) {
  const PlateGeometry plate{};
  const MembraneCapacitor cap{SquarePlate{plate}, geom, quadrature_points};
  // A dense sweep through both touch-down clamps (±0.95 g₀) and beyond.
  const double g0 = geom.gap_m;
  for (int k = -1200; k <= 1200; ++k) {
    const double w0 = 1.2 * g0 * static_cast<double>(k) / 1200.0;
    const double expected = reference_capacitance(plate, geom, quadrature_points, w0);
    const double actual = cap.capacitance_at_deflection(w0);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
        << "w0 = " << w0 << " m, coverage " << geom.electrode_coverage << ", "
        << quadrature_points << " points";
  }
}

TEST(MembraneCapacitor, TabulatedModeShapeIsBitIdenticalToDirectIntegral) {
  expect_bitwise_equal_to_reference(CapacitorGeometry{}, 32);
}

TEST(MembraneCapacitor, FullCoverageIncludesPlateEdgeNodesBitIdentically) {
  // Coverage 1.0 puts the last node at x = a (h·n may round past it, where
  // the plate does not deflect).
  CapacitorGeometry geom;
  geom.electrode_coverage = 1.0;
  expect_bitwise_equal_to_reference(geom, 32);
  geom.gap_m = 0.37e-6;
  geom.gap_permittivity = 3.9;
  expect_bitwise_equal_to_reference(geom, 48);
}

TEST(MembraneCapacitor, OddAndTinyQuadratureCountsBumpBitIdentically) {
  expect_bitwise_equal_to_reference(CapacitorGeometry{}, 33);  // → 34
  expect_bitwise_equal_to_reference(CapacitorGeometry{}, 3);   // → 4
  CapacitorGeometry geom;
  geom.electrode_coverage = 0.55;
  expect_bitwise_equal_to_reference(geom, 17);  // → 18
}

}  // namespace
}  // namespace tono::mems

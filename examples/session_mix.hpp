// session_mix.hpp — the admission mix of ward_server. Every --transport
// admits byte-identical session configs for the same (index, flags), because
// CI diffs their hospital snapshots: a gateway-fed run must be bit-identical
// to a direct-ingest run (docs/GATEWAY.md "Determinism contract"). The end-
// to-end benchmark admits the same mix.
#pragma once

#include <cstddef>

#include "src/bio/pulse_generator.hpp"
#include "src/fleet/patient_session.hpp"

namespace tono::examples {

/// The admission mix: clinically distinct presets so a ward of any size has
/// quiet patients, alarm-worthy ones, and one scenario-driven crash.
inline fleet::SessionConfig session_mix(std::size_t index) {
  fleet::SessionConfig config;
  switch (index % 5) {
    case 0:
      break;  // normotensive at rest
    case 1:
      config.wrist.pulse = bio::PatientPresets::hypertensive();
      break;
    case 2:
      config.wrist.pulse = bio::PatientPresets::tachycardic();
      break;
    case 3:
      config.scenario = "hypotensive";  // the E10 crash a cuff would miss
      break;
    case 4:
      config.scenario = "exercise";
      break;
  }
  return config;
}

inline const char* mix_label(std::size_t index) {
  switch (index % 5) {
    case 0: return "rest";
    case 1: return "hypertensive";
    case 2: return "tachycardic";
    case 3: return "hypotensive-episode";
    case 4: return "exercise";
  }
  return "rest";
}

}  // namespace tono::examples

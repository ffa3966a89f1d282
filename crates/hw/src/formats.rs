//! Per-platform, per-format effective bandwidth profiles.
//!
//! §III-B measures how the effective bandwidth of the *same* dataset swings
//! with the storage format (the gisette row: 25.3 / 63.9 / 63.5 / 53.1 /
//! 37.7 GB/s for ELL / CSR / COO / DEN / DIA on Ivy Bridge). That shape is
//! machine-dependent: on a latency-bound CPU the indirection-heavy CSR/COO
//! stream near peak while padded ELL wastes bandwidth, whereas on
//! wide-SIMD/SIMT machines (KNL, GPUs) the *regular* formats — ELL, DIA,
//! DEN — coalesce and the irregular ones stall on gather and atomics.
//!
//! This module extends the paper's one measured row to all five §IV-B
//! platforms with modelled profiles that keep each machine's character:
//! magnitudes scale with the platform's memory system, and the per-format
//! *ranking* flips between CPU-like and accelerator-like machines. The
//! cross-machine selector harness (`repro_selector_cross`) trains under
//! one profile and tests under another, which is exactly the cross-machine
//! portability experiment Stylianou et al. call for.

use crate::platform::Platform;
use dls_core::BandwidthProfile;

impl Platform {
    /// Effective per-format streaming bandwidth on this platform, for the
    /// cost model's Eq. (7). The "8-core CPU" row is the paper's measured
    /// Ivy Bridge profile; the others are modelled (see module docs).
    pub fn format_bandwidth(&self) -> BandwidthProfile {
        match self.name {
            // Paper §III-B, measured (gisette on Ivy Bridge).
            "8-core CPU" => BandwidthProfile::IVY_BRIDGE,
            // Wide-SIMD many-core with MCDRAM: regular formats vectorise,
            // COO's carried dependency serialises.
            "KNL" => {
                BandwidthProfile { ell: 320.0, csr: 240.0, coo: 150.0, den: 380.0, dia: 300.0 }
            }
            // Dual-socket CPU: the Ivy Bridge shape at server bandwidth.
            "Haswell" => {
                BandwidthProfile { ell: 45.0, csr: 105.0, coo: 100.0, den: 95.0, dia: 70.0 }
            }
            // SIMT: coalesced ELL/DIA/DEN run near peak, CSR's row lengths
            // diverge warps, COO needs atomics.
            "P100" => {
                BandwidthProfile { ell: 520.0, csr: 380.0, coo: 260.0, den: 560.0, dia: 480.0 }
            }
            "DGX" => {
                BandwidthProfile { ell: 900.0, csr: 650.0, coo: 420.0, den: 950.0, dia: 820.0 }
            }
            // Unknown platform: the neutral flat profile.
            _ => BandwidthProfile::FLAT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PLATFORMS;

    #[test]
    fn cpu_row_is_the_papers_measurement() {
        let p = Platform::by_name("8-core CPU").unwrap();
        assert_eq!(p.format_bandwidth(), BandwidthProfile::IVY_BRIDGE);
    }

    #[test]
    fn rankings_flip_between_cpu_and_accelerator() {
        // On the CPU, CSR out-streams ELL (indirection beats padding); on
        // the accelerators the regular format wins — the machine-dependence
        // the cross-machine harness exercises.
        let cpu = Platform::by_name("8-core CPU").unwrap().format_bandwidth();
        assert!(cpu.csr > cpu.ell);
        for name in ["KNL", "P100", "DGX"] {
            let acc = Platform::by_name(name).unwrap().format_bandwidth();
            assert!(acc.ell > acc.csr, "{name}: regular formats coalesce");
        }
    }

    #[test]
    fn every_platform_has_positive_bandwidths() {
        for p in &PLATFORMS {
            let b = p.format_bandwidth();
            for v in [b.ell, b.csr, b.coo, b.den, b.dia] {
                assert!(v > 0.0, "{}: {v}", p.name);
            }
        }
    }
}

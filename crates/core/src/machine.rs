//! Machine profiles.
//!
//! Several of the paper's format preferences are *hardware-conditional*:
//! the COO-over-CSR rule (Fig. 4) exists because Ivy Bridge/MIC CSR
//! kernels process rows in fixed-width SIMD lockstep, and row-length
//! imbalance starves the lanes. On a scalar machine the same rule
//! mis-fires — CSR has no lanes to starve. A [`MachineProfile`] makes the
//! dependence explicit so the rule system can be instantiated for the
//! paper's testbed or for the host it actually runs on.

/// How the target machine executes the SMSV inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineProfile {
    /// Effective SIMD width of the CSR row kernel, in f64 lanes.
    /// 1 = scalar execution; 8 = 512-bit AVX/MIC-style lockstep rows.
    pub simd_lanes: usize,
}

impl MachineProfile {
    /// A scalar host (this repository's CI container).
    pub const SCALAR: MachineProfile = MachineProfile { simd_lanes: 1 };

    /// The paper's testbed: AVX Ivy Bridge + 512-bit Xeon Phi.
    pub const PAPER_TESTBED: MachineProfile = MachineProfile { simd_lanes: 8 };

    /// True when the CSR kernel runs rows in lockstep lanes, making it
    /// sensitive to `vdim` (the Figure 4 effect).
    pub fn csr_is_lane_lockstep(&self) -> bool {
        self.simd_lanes > 1
    }

    /// The profile of the host this binary runs on: [`Self::SCALAR`].
    ///
    /// The lane width describes the *CSR kernel actually in use*, not the
    /// raw ISA: `dls_sparse`'s default CSR SMSV is a scalar scatter-gather
    /// loop, so `simd_lanes = 1` regardless of AVX support. A build that
    /// routed CSR through [`dls_sparse::CsrMatrix::smsv_lanes`] would
    /// report its lane constant instead — the profile is about which
    /// kernel's `vdim` sensitivity the rules should model.
    pub fn host() -> MachineProfile {
        Self::SCALAR
    }
}

impl Default for MachineProfile {
    /// Defaults to the paper's testbed so the default rule system
    /// reproduces the paper's selections.
    fn default() -> Self {
        Self::PAPER_TESTBED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_profile_has_no_lockstep() {
        assert!(!MachineProfile::SCALAR.csr_is_lane_lockstep());
        assert!(MachineProfile::PAPER_TESTBED.csr_is_lane_lockstep());
    }

    #[test]
    fn host_profile_describes_the_scalar_kernel() {
        let h = MachineProfile::host();
        assert_eq!(h.simd_lanes, 1, "default CSR kernel is scalar gather");
        assert!(!h.csr_is_lane_lockstep());
    }

    #[test]
    fn default_is_paper_testbed() {
        assert_eq!(MachineProfile::default(), MachineProfile::PAPER_TESTBED);
    }
}

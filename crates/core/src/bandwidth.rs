//! Per-format effective memory bandwidth.
//!
//! §III-B: "the bandwidth also varies when using different formats to
//! process the same dataset. For instance, the bandwidth of processing
//! gisette is 25.3 GB/s, 63.9 GB/s, 63.5 GB/s, 53.1 GB/s, and 37.7 GB/s for
//! ELL, CSR, COO, DEN, and DIA, respectively, on Ivy Bridge CPUs."
//!
//! Together with Equation (7) — `time ≳ transferred bytes / bandwidth` —
//! these coefficients turn the Table II storage model into a time estimate.

use dls_sparse::Format;

/// Effective streaming bandwidth per format, in GB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthProfile {
    /// ELL effective bandwidth.
    pub ell: f64,
    /// CSR effective bandwidth.
    pub csr: f64,
    /// COO effective bandwidth.
    pub coo: f64,
    /// DEN effective bandwidth.
    pub den: f64,
    /// DIA effective bandwidth.
    pub dia: f64,
}

impl BandwidthProfile {
    /// The paper's measured Ivy Bridge profile (gisette workload, §III-B).
    pub const IVY_BRIDGE: BandwidthProfile =
        BandwidthProfile { ell: 25.3, csr: 63.9, coo: 63.5, den: 53.1, dia: 37.7 };

    /// A flat profile (every format equal): isolates the pure storage-size
    /// term of the cost model. Useful for ablations.
    pub const FLAT: BandwidthProfile =
        BandwidthProfile { ell: 50.0, csr: 50.0, coo: 50.0, den: 50.0, dia: 50.0 };

    /// Bandwidth for a given format in GB/s. CSC, the one derived format,
    /// reuses CSR's (the same arrays, transposed).
    pub fn of(&self, format: Format) -> f64 {
        match format {
            Format::Ell => self.ell,
            Format::Csr => self.csr,
            Format::Coo => self.coo,
            Format::Den => self.den,
            Format::Dia => self.dia,
            Format::Csc => self.csr,
        }
    }

    /// Bytes-per-second form of [`BandwidthProfile::of`].
    pub fn bytes_per_sec(&self, format: Format) -> f64 {
        self.of(format) * 1e9
    }
}

impl Default for BandwidthProfile {
    fn default() -> Self {
        Self::IVY_BRIDGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivy_bridge_matches_paper_section_3b() {
        let p = BandwidthProfile::IVY_BRIDGE;
        assert_eq!(p.of(Format::Ell), 25.3);
        assert_eq!(p.of(Format::Csr), 63.9);
        assert_eq!(p.of(Format::Coo), 63.5);
        assert_eq!(p.of(Format::Den), 53.1);
        assert_eq!(p.of(Format::Dia), 37.7);
    }

    #[test]
    fn derived_formats_borrow_neighbours() {
        let p = BandwidthProfile::IVY_BRIDGE;
        assert_eq!(p.of(Format::Csc), p.of(Format::Csr));
    }

    #[test]
    fn bytes_per_sec_scales() {
        let p = BandwidthProfile::FLAT;
        assert_eq!(p.bytes_per_sec(Format::Csr), 50.0e9);
    }

    #[test]
    fn default_is_ivy_bridge() {
        assert_eq!(BandwidthProfile::default(), BandwidthProfile::IVY_BRIDGE);
    }
}

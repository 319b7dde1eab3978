//! Off-chip memory (HBM) bandwidth and energy model.
//!
//! The paper fixes HBM bandwidth at 256 GB/s and configures it so off-chip
//! transfers never bottleneck compute; the model here checks that assumption
//! per workload (so memory-bound configurations are reported as such) and
//! accounts for access energy.

use crate::cost::CostModel;
use serde::{Deserialize, Serialize};

/// An HBM channel model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hbm {
    /// Peak bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Access energy per byte in pJ.
    pub energy_pj_per_byte: f64,
}

impl Hbm {
    /// The paper's configuration (256 GB/s) with default energy.
    pub fn paper_default(cost: &CostModel) -> Self {
        Hbm {
            bandwidth_bytes_per_s: cost.hbm_bandwidth_bytes_per_s,
            energy_pj_per_byte: cost.hbm_energy_pj_per_byte,
        }
    }

    /// Time in seconds to transfer `bytes`.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Cycles (at `frequency_hz`) to transfer `bytes`.
    pub fn transfer_cycles(&self, bytes: u64, frequency_hz: f64) -> u64 {
        (self.transfer_seconds(bytes) * frequency_hz).ceil() as u64
    }

    /// Energy in pJ to transfer `bytes`.
    pub fn transfer_energy_pj(&self, bytes: u64) -> f64 {
        bytes as f64 * self.energy_pj_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_bandwidth() {
        let hbm = Hbm::paper_default(&CostModel::default_45nm());
        assert!((hbm.bandwidth_bytes_per_s - 256e9).abs() < 1.0);
    }

    #[test]
    fn transfer_time_and_cycles() {
        let hbm = Hbm { bandwidth_bytes_per_s: 256e9, energy_pj_per_byte: 7.0 };
        // 256 GB takes one second.
        assert!((hbm.transfer_seconds(256_000_000_000) - 1.0).abs() < 1e-9);
        // At 400 MHz, 640 bytes take exactly one cycle.
        assert_eq!(hbm.transfer_cycles(640, 400e6), 1);
        assert_eq!(hbm.transfer_cycles(6400, 400e6), 10);
        assert!((hbm.transfer_energy_pj(1000) - 7000.0).abs() < 1e-9);
    }
}

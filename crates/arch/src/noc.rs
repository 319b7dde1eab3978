//! 2-D mesh network-on-chip model.
//!
//! Multi-node Mugi (Section 4.2 / 6.3.3): nodes are connected by a 2-D mesh
//! with three channels (input, weight, output); GEMMs are tiled evenly across
//! nodes with an output-stationary dataflow and inter-node accumulation, so
//! throughput scales close to linearly while the NoC adds router area and
//! per-hop transfer energy.

use crate::cost::CostModel;

/// A 2-D mesh NoC configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
}

impl NocConfig {
    /// A single node (no NoC).
    pub fn single() -> Self {
        NocConfig { rows: 1, cols: 1 }
    }

    /// The paper's 4×4 mesh.
    pub fn mesh_4x4() -> Self {
        NocConfig { rows: 4, cols: 4 }
    }

    /// The paper's 8×8 mesh.
    pub fn mesh_8x8() -> Self {
        NocConfig { rows: 8, cols: 8 }
    }

    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.rows * self.cols
    }

    /// Average hop count between two uniformly random nodes of a mesh
    /// (≈ (rows + cols) / 3), used for transfer energy.
    pub fn average_hops(&self) -> f64 {
        if self.nodes() <= 1 {
            0.0
        } else {
            (self.rows as f64 + self.cols as f64) / 3.0
        }
    }

    /// Physical channels of the mesh: the paper's multi-node dataflow runs
    /// separate input, weight and output channels over the links.
    pub const CHANNELS: usize = 3;

    /// Total router area in mm²: one router per node, scaled by the three
    /// physical channels (input, weight, output) each node routes.
    pub fn router_area_mm2(&self, cost: &CostModel) -> f64 {
        if self.nodes() <= 1 {
            0.0
        } else {
            self.nodes() as f64 * cost.noc_router_area_mm2 * Self::CHANNELS as f64
        }
    }

    /// Energy in pJ to move `bytes` across the mesh (average-hop estimate,
    /// three physical channels share the same links).
    pub fn transfer_energy_pj(&self, bytes: u64, cost: &CostModel) -> f64 {
        bytes as f64 * self.average_hops() * cost.noc_energy_pj_per_byte_hop
    }

    /// Bytes one physical channel moves per cycle per link (the mesh links
    /// are as wide as one HBM pseudo-channel burst).
    pub const LINK_BYTES_PER_CYCLE: usize = 64;

    /// Cycles to move `bytes` across the mesh: a pipelined transfer over the
    /// three physical channels at [`NocConfig::LINK_BYTES_PER_CYCLE`] each,
    /// plus the average hop count as head latency. Zero on a single node
    /// (nothing crosses a link) and for zero bytes.
    ///
    /// This is the latency half of the NoC transfer model — used by the
    /// serving runtime to stall a receiving node while a migrated KV cache
    /// streams in — while [`NocConfig::transfer_energy_pj`] is the energy
    /// half.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if self.nodes() <= 1 || bytes == 0 {
            return 0;
        }
        let bandwidth = (Self::CHANNELS * Self::LINK_BYTES_PER_CYCLE) as u64;
        bytes.div_ceil(bandwidth) + self.average_hops().ceil() as u64
    }

    /// Parallel speedup for a workload tiled evenly across the mesh: linear in
    /// node count, derated by a per-node tiling efficiency that accounts for
    /// edge tiles and inter-node accumulation (the paper's NoC results scale
    /// close to linearly).
    pub fn scaling_efficiency(&self) -> f64 {
        match self.nodes() {
            0 | 1 => 1.0,
            n => {
                // Small derate growing slowly with node count.
                let derate = 1.0 - 0.015 * (n as f64).log2();
                derate.clamp(0.8, 1.0)
            }
        }
    }

    /// Effective throughput multiplier versus a single node.
    pub fn throughput_multiplier(&self) -> f64 {
        self.nodes() as f64 * self.scaling_efficiency()
    }

    /// Label such as `4x4`.
    pub fn label(&self) -> String {
        format!("{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts_and_labels() {
        assert_eq!(NocConfig::single().nodes(), 1);
        assert_eq!(NocConfig::mesh_4x4().nodes(), 16);
        assert_eq!(NocConfig::mesh_8x8().nodes(), 64);
        assert_eq!(NocConfig::mesh_4x4().label(), "4x4");
    }

    #[test]
    fn scaling_is_near_linear() {
        let m = NocConfig::mesh_4x4();
        let mult = m.throughput_multiplier();
        assert!(mult > 14.0 && mult <= 16.0, "multiplier {mult}");
        let big = NocConfig::mesh_8x8().throughput_multiplier();
        assert!(big > 55.0 && big <= 64.0, "multiplier {big}");
        assert_eq!(NocConfig::single().throughput_multiplier(), 1.0);
    }

    #[test]
    fn router_area_and_energy() {
        let cost = CostModel::default_45nm();
        assert_eq!(NocConfig::single().router_area_mm2(&cost), 0.0);
        let area = NocConfig::mesh_4x4().router_area_mm2(&cost);
        assert!(area > 3.0 && area < 12.0, "area {area}");
        assert!(NocConfig::mesh_8x8().router_area_mm2(&cost) > area);
        assert_eq!(NocConfig::single().transfer_energy_pj(1000, &cost), 0.0);
        assert!(NocConfig::mesh_4x4().transfer_energy_pj(1000, &cost) > 0.0);
    }

    #[test]
    fn router_area_scales_with_the_three_physical_channels() {
        // Regression: the per-node router area must be multiplied by the
        // three physical channels (a `* 3.0 / 3.0` no-op once cancelled the
        // factor out entirely).
        let cost = CostModel::default_45nm();
        assert_eq!(NocConfig::CHANNELS, 3);
        for mesh in [NocConfig::mesh_4x4(), NocConfig::mesh_8x8()] {
            let expected = mesh.nodes() as f64 * cost.noc_router_area_mm2 * 3.0;
            assert_eq!(mesh.router_area_mm2(&cost), expected, "{}", mesh.label());
        }
    }

    #[test]
    fn transfer_cycles_scale_with_bytes_and_vanish_on_one_node() {
        let mesh = NocConfig::mesh_4x4();
        assert_eq!(NocConfig::single().transfer_cycles(1 << 20), 0);
        assert_eq!(mesh.transfer_cycles(0), 0);
        // Pipelined: bytes / (3 channels × 64 B) rounded up, plus ⌈hops⌉.
        let bandwidth = (NocConfig::CHANNELS * NocConfig::LINK_BYTES_PER_CYCLE) as u64;
        let hops = mesh.average_hops().ceil() as u64;
        assert_eq!(mesh.transfer_cycles(1), 1 + hops);
        assert_eq!(mesh.transfer_cycles(bandwidth), 1 + hops);
        assert_eq!(mesh.transfer_cycles(bandwidth + 1), 2 + hops);
        assert_eq!(mesh.transfer_cycles(10 * bandwidth), 10 + hops);
        // A bigger mesh has more hops, so the same payload takes longer.
        assert!(NocConfig::mesh_8x8().transfer_cycles(1 << 20) > mesh.transfer_cycles(1 << 20));
    }

    #[test]
    fn average_hops_grow_with_mesh_size() {
        assert!(NocConfig::mesh_8x8().average_hops() > NocConfig::mesh_4x4().average_hops());
        assert_eq!(NocConfig::single().average_hops(), 0.0);
    }
}

//! # mugi-carbon
//!
//! Operational and embodied carbon models for the Mugi evaluation
//! (Section 2.4 / Figure 15 of the paper).
//!
//! The paper follows ACT-style carbon accounting:
//!
//! * operational CO₂-equivalent = energy × carbon intensity (Equation 6);
//! * embodied CO₂-equivalent = die area × carbon emitted per unit area
//!   (Equation 7), amortised over the device lifetime and the fraction of that
//!   lifetime spent on the workload.
//!
//! Mugi reduces *both* terms at once: its shared compute array removes the
//! standalone nonlinear vector arrays (less area → less embodied carbon) and
//! its multiplier-free VLP datapath lowers energy (less operational carbon).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mugi_arch::perf::WorkloadPerformance;

/// Carbon-accounting parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CarbonModel {
    /// Grid carbon intensity in gCO₂eq per kWh (world average, as in ACT).
    pub carbon_intensity_g_per_kwh: f64,
    /// Embodied carbon per die area in gCO₂eq per mm² (derived from
    /// energy-per-mm² manufacturing estimates at 45 nm converted with the
    /// same carbon intensity, following the paper's Dark-Silicon-based CPA).
    pub embodied_g_per_mm2: f64,
    /// Device lifetime in seconds over which embodied carbon is amortised.
    pub lifetime_seconds: f64,
}

impl CarbonModel {
    /// Default parameters: world-average carbon intensity (≈ 475 gCO₂/kWh),
    /// an embodied CPA of 1.5 kgCO₂/mm² at 45 nm, and a 3-year lifetime.
    pub fn default_act() -> Self {
        CarbonModel {
            carbon_intensity_g_per_kwh: 475.0,
            embodied_g_per_mm2: 1500.0,
            lifetime_seconds: 3.0 * 365.0 * 24.0 * 3600.0,
        }
    }

    /// Operational carbon in gCO₂eq for `energy_joules` of energy.
    pub fn operational_g(&self, energy_joules: f64) -> f64 {
        let kwh = energy_joules / 3.6e6;
        kwh * self.carbon_intensity_g_per_kwh
    }

    /// Total embodied carbon in gCO₂eq for a die of `area_mm2`.
    pub fn embodied_total_g(&self, area_mm2: f64) -> f64 {
        area_mm2 * self.embodied_g_per_mm2
    }

    /// Embodied carbon attributed to a workload occupying the device for
    /// `runtime_seconds` out of its lifetime.
    pub fn embodied_amortized_g(&self, area_mm2: f64, runtime_seconds: f64) -> f64 {
        self.embodied_total_g(area_mm2) * (runtime_seconds / self.lifetime_seconds).min(1.0)
    }
}

impl Default for CarbonModel {
    fn default() -> Self {
        Self::default_act()
    }
}

/// Carbon footprint of running a workload for a given duration on a design.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CarbonFootprint {
    /// Operational CO₂eq in grams.
    pub operational_g: f64,
    /// Amortised embodied CO₂eq in grams.
    pub embodied_g: f64,
}

impl CarbonFootprint {
    /// Total CO₂eq in grams.
    pub fn total_g(&self) -> f64 {
        self.operational_g + self.embodied_g
    }
}

/// Computes the carbon footprint of serving `tokens` tokens on a design whose
/// workload-level performance is `perf`, under `model`.
///
/// The runtime is `tokens / tokens_per_second`; operational carbon uses the
/// average power over that runtime and embodied carbon is amortised over the
/// same duration.
pub fn footprint_for_tokens(
    model: &CarbonModel,
    perf: &WorkloadPerformance,
    tokens: u64,
) -> CarbonFootprint {
    if perf.tokens_per_second <= 0.0 {
        return CarbonFootprint::default();
    }
    let runtime_s = tokens as f64 / perf.tokens_per_second;
    let energy_j = perf.average_power_w * runtime_s;
    CarbonFootprint {
        operational_g: model.operational_g(energy_j),
        embodied_g: model.embodied_amortized_g(perf.area_mm2, runtime_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_arch::designs::{Design, DesignConfig};
    use mugi_arch::perf::PerfModel;
    use mugi_workloads::models::ModelId;
    use mugi_workloads::ops::{OpTrace, Phase};

    #[test]
    fn operational_carbon_follows_energy() {
        let m = CarbonModel::default_act();
        // 1 kWh at 475 g/kWh.
        assert!((m.operational_g(3.6e6) - 475.0).abs() < 1e-6);
        assert!((m.operational_g(7.2e6) - 950.0).abs() < 1e-6);
        assert_eq!(m.operational_g(0.0), 0.0);
    }

    #[test]
    fn embodied_carbon_follows_area_and_amortisation() {
        let m = CarbonModel::default_act();
        assert!((m.embodied_total_g(2.0) - 3000.0).abs() < 1e-6);
        let one_year = 365.0 * 24.0 * 3600.0;
        let amortised = m.embodied_amortized_g(3.0, one_year);
        assert!((amortised - 1500.0).abs() < 1e-6);
        // Running longer than the lifetime cannot attribute more than 100%.
        assert!((m.embodied_amortized_g(3.0, m.lifetime_seconds * 10.0) - 4500.0).abs() < 1e-6);
    }

    #[test]
    fn mugi_reduces_both_operational_and_embodied_carbon_vs_systolic() {
        // Figure 15: Mugi lowers operational carbon ~1.45x and embodied
        // carbon ~1.48x versus the baseline on LLM serving.
        let trace =
            OpTrace::generate(&ModelId::Llama2_70b.config(), Phase::Decode, 8, 4096, true, true);
        let model = CarbonModel::default_act();
        let mugi = PerfModel::new(Design::new(DesignConfig::mugi(256))).evaluate(&trace);
        let sa = PerfModel::new(Design::new(DesignConfig::systolic(16))).evaluate(&trace);
        let tokens = 1_000_000;
        let mugi_fp = footprint_for_tokens(&model, &mugi, tokens);
        let sa_fp = footprint_for_tokens(&model, &sa, tokens);
        let op_ratio = sa_fp.operational_g / mugi_fp.operational_g;
        let emb_ratio = sa_fp.embodied_g / mugi_fp.embodied_g;
        assert!(op_ratio > 1.2, "operational ratio {op_ratio}");
        assert!(emb_ratio > 1.2, "embodied ratio {emb_ratio}");
        assert!(mugi_fp.total_g() < sa_fp.total_g());
        assert!(mugi_fp.total_g() > 0.0);
    }

    #[test]
    fn zero_throughput_yields_zero_footprint() {
        let fp = footprint_for_tokens(
            &CarbonModel::default_act(),
            &WorkloadPerformance::default(),
            1000,
        );
        assert_eq!(fp.total_g(), 0.0);
    }
}

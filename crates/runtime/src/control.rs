//! The adaptive control plane: a feedback controller sampled at
//! batch-completion boundaries.
//!
//! A static disaggregated split
//! ([`Disaggregated`](crate::placement::PlacementPolicy::Disaggregated))
//! fixes the prefill:decode node ratio
//! for the whole run, and a static [`SloConfig`](crate::kv::SloConfig) fixes
//! the service-rate estimate its admission check projects TTFT with. Both
//! are guesses about the workload, and both go stale the moment the
//! prompt:output mix shifts. This module closes the loop with three
//! features, each individually switchable and **all off by default** — a
//! disabled controller is bit-inert, which the golden suites pin:
//!
//! 1. **Dynamic role reassignment** ([`ControlConfig::reassign_roles`]).
//!    At every completion the executor compares the outstanding prefill
//!    demand (the scheduler's running `pending_prefill_total`) against the
//!    outstanding decode demand (tokens promised but not yet emitted) and
//!    re-rolls one node's [`PoolRole`] toward the demand split — via a
//!    *quiescent handoff*: the node first drains (it forms no new batches,
//!    receives no migrations or swap-ins, and its resident sessions are
//!    preempted or migrated out over the existing machinery), and flips
//!    role only once no in-flight batch runs on it and its pool holds no
//!    pages. Cooldown and a demand dead-band keep it from thrashing.
//! 2. **Online SLO calibration** ([`ControlConfig::calibrate_slo`]). The
//!    static `cycles_per_prefill_token` admission estimate is replaced by a
//!    live one measured from completed prefill slices: an integer
//!    fixed-point EWMA, floored by the cumulative mean so the estimate is
//!    *conservative* — it never admits a request the true measured rate
//!    would have rejected (a property test pins this).
//! 3. **Load-aware migration placement**
//!    ([`ControlConfig::load_aware_migration`]). Prefill→decode handoffs
//!    and swap-ins land on the decode node with the least *projected decode
//!    load* — the resident sessions' remaining output tokens, which is
//!    exactly their future KV growth — instead of the node with the most
//!    free pages, which systematically over-packs nodes hosting
//!    long-output sessions.
//!
//! Everything here is deterministic integer arithmetic on quantities the
//! serving loop observes in one fixed completion order, so adaptive runs
//! replay bit for bit, pre-submitted or streamed.

use crate::placement::PoolRole;

/// Configuration of the adaptive control plane. The default disables every
/// feature: a default-constructed controller is bit-inert (the pre-refactor
/// goldens and the 1M-request soak checksum pin this).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ControlConfig {
    /// Re-roll node roles toward the live prefill:decode demand split
    /// (disaggregated placements only; a no-op elsewhere).
    pub reassign_roles: bool,
    /// Replace the static [`SloConfig`](crate::kv::SloConfig) service-rate
    /// estimate with the calibrated one (no-op without an SLO configured).
    pub calibrate_slo: bool,
    /// Place migrations and swap-ins by projected decode load instead of
    /// most-free-pages (bounded disaggregated placements only).
    pub load_aware_migration: bool,
    /// Minimum cycles between the *start* of one role re-roll and the next,
    /// so a demand spike cannot thrash the mesh through repeated drains.
    pub min_flip_interval_cycles: u64,
    /// Demand dead-band: no re-roll starts unless the combined outstanding
    /// prefill + decode demand is at least this many tokens (an idle or
    /// nearly drained system has nothing worth rebalancing).
    pub min_demand_tokens: u64,
}

impl Default for ControlConfig {
    /// Everything off, with a 2,000,000-cycle re-roll cooldown and a
    /// 512-token demand dead-band.
    fn default() -> Self {
        ControlConfig {
            reassign_roles: false,
            calibrate_slo: false,
            load_aware_migration: false,
            min_flip_interval_cycles: 2_000_000,
            min_demand_tokens: 512,
        }
    }
}

/// Prefill tokens the executor's calibrator observes before its estimate
/// replaces the configured one (early slices are noisy).
pub(crate) const CALIBRATION_WARMUP_TOKENS: u64 = 1_024;

/// The executor's calibrator EWMA weight as a right-shift: each new slice
/// moves the estimate by `1 / 2^3` of the gap.
pub(crate) const CALIBRATION_EWMA_SHIFT: u32 = 3;

/// Fixed-point scale of the calibrator's internal rate: Q48.16
/// cycles-per-token.
const RATE_FRAC_BITS: u32 = 16;

/// Online estimator of the prefill service rate (cycles per prefill token),
/// fed one completed prefill slice at a time by the executor.
///
/// Two integer statistics run side by side:
///
/// * a Q48.16 fixed-point EWMA, which tracks drift in the live rate
///   (quantization widens batches, preemption storms slow them);
/// * the cumulative mean over every observed slice.
///
/// The published [`SloCalibrator::rate`] is the *maximum* of the two,
/// rounded up — so it responds to recent slowdowns like an EWMA but can
/// never dip below the true measured average. That makes calibrated
/// admission conservative by construction: any request it admits, an oracle
/// using the exact measured mean rate would have admitted too.
#[derive(Clone, Debug, Default)]
pub(crate) struct SloCalibrator {
    /// EWMA of per-slice cycles-per-token, Q48.16; zero until seeded.
    ewma_rate_q16: u64,
    /// Total prefill tokens observed.
    tokens: u64,
    /// Total cycles those slices took.
    cycles: u64,
    /// Completed prefill slices observed.
    samples: u64,
    /// Tokens to observe before [`SloCalibrator::rate`] publishes.
    warmup_tokens: u64,
    /// EWMA weight as a right-shift: each new slice moves the estimate by
    /// `1 / 2^shift` of the gap. Smaller shifts track faster, larger ones
    /// smooth harder.
    ewma_shift: u32,
}

impl SloCalibrator {
    /// A calibrator that publishes nothing until `warmup_tokens` prefill
    /// tokens have been observed, then smooths with weight `1 / 2^shift`.
    pub(crate) fn new(warmup_tokens: u64, ewma_shift: u32) -> Self {
        SloCalibrator { warmup_tokens, ewma_shift, ..SloCalibrator::default() }
    }

    /// Folds in one completed prefill slice: `tokens` prefill tokens served
    /// in a micro-batch that ran `cycles` cycles. Slices with no prefill
    /// tokens must not be reported.
    pub(crate) fn observe(&mut self, tokens: u64, cycles: u64) {
        debug_assert!(tokens > 0, "a prefill slice carries at least one token");
        // u128 so `cycles << 16` cannot wrap even on absurd makespans.
        let rate_q16 = u64::try_from(((cycles as u128) << RATE_FRAC_BITS) / tokens as u128)
            .unwrap_or(u64::MAX);
        self.ewma_rate_q16 = if self.samples == 0 {
            rate_q16
        } else if rate_q16 >= self.ewma_rate_q16 {
            self.ewma_rate_q16 + ((rate_q16 - self.ewma_rate_q16) >> self.ewma_shift)
        } else {
            self.ewma_rate_q16 - ((self.ewma_rate_q16 - rate_q16) >> self.ewma_shift)
        };
        self.tokens = self.tokens.saturating_add(tokens);
        self.cycles = self.cycles.saturating_add(cycles);
        self.samples += 1;
    }

    /// The calibrated cycles-per-prefill-token estimate, or `None` while
    /// still warming up. Always at least 1, always at least the cumulative
    /// mean rounded up (the conservativeness floor), and tracks the EWMA
    /// above that floor.
    pub(crate) fn rate(&self) -> Option<u64> {
        if self.tokens < self.warmup_tokens.max(1) {
            return None;
        }
        let ewma = (self.ewma_rate_q16 >> RATE_FRAC_BITS)
            + u64::from(self.ewma_rate_q16 & ((1 << RATE_FRAC_BITS) - 1) != 0);
        let mean = self.cycles.div_ceil(self.tokens);
        Some(ewma.max(mean).max(1))
    }

    /// Completed prefill slices observed so far.
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }
}

/// A role re-roll in progress: `node` forms no new batches and accepts no
/// migrations while its residents drain, then flips to `target` once
/// quiescent (no in-flight batch, no resident pages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Drain {
    /// The mesh node being drained.
    pub node: usize,
    /// The role it assumes once quiescent.
    pub target: PoolRole,
}

/// The prefill node count the demand split asks for: `nodes` apportioned by
/// `prefill_demand : decode_demand` with round-half-up integer arithmetic,
/// clamped so both pools keep at least one node. With zero total demand the
/// current split is already right (returns `current`).
pub(crate) fn desired_prefill_nodes(
    nodes: usize,
    current: usize,
    prefill_demand: u64,
    decode_demand: u64,
) -> usize {
    debug_assert!(nodes >= 2, "a disaggregated mesh has at least two nodes");
    let total = prefill_demand + decode_demand;
    if total == 0 {
        return current;
    }
    let raw = (nodes as u64 * prefill_demand + total / 2) / total;
    usize::try_from(raw).unwrap_or(nodes).clamp(1, nodes - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_config_is_fully_disabled() {
        let c = ControlConfig::default();
        assert!(!c.reassign_roles && !c.calibrate_slo && !c.load_aware_migration);
    }

    #[test]
    fn calibrator_warms_up_then_tracks_the_rate() {
        let mut c = SloCalibrator::new(100, 3);
        c.observe(50, 5_000); // 100 cycles/token
        assert_eq!(c.rate(), None, "below warmup");
        c.observe(50, 5_000);
        assert_eq!(c.samples(), 2);
        assert_eq!(c.rate(), Some(100), "steady rate calibrates exactly");
        // A slowdown pulls the estimate up immediately (EWMA above the
        // mean floor).
        c.observe(100, 40_000); // 400 cycles/token
        let rate = c.rate().unwrap();
        assert!(rate > 100, "slowdown must raise the estimate, got {rate}");
    }

    #[test]
    fn calibrator_never_dips_below_the_cumulative_mean() {
        // A fast recent slice drags the EWMA down, but the published rate
        // stays floored at the cumulative mean — the conservativeness
        // guarantee the admission property test relies on.
        let mut c = SloCalibrator::new(1, 0); // shift 0: EWMA = last slice
        c.observe(10, 10_000); // 1000 cycles/token
        c.observe(10, 10); // 1 cycle/token
        let mean = (10_000u64 + 10).div_ceil(20);
        assert_eq!(c.rate(), Some(mean), "EWMA collapsed but the mean floor holds");
    }

    #[test]
    fn desired_split_tracks_demand_and_respects_the_clamp() {
        // Balanced demand on 4 nodes: 2 prefill.
        assert_eq!(desired_prefill_nodes(4, 1, 500, 500), 2);
        // All-prefill demand clamps to nodes - 1, all-decode to 1.
        assert_eq!(desired_prefill_nodes(4, 2, 1_000, 0), 3);
        assert_eq!(desired_prefill_nodes(4, 2, 0, 1_000), 1);
        // No demand: keep the current split.
        assert_eq!(desired_prefill_nodes(4, 3, 0, 0), 3);
        // Round-half-up: 5 nodes, 30% prefill demand → 5*0.3 = 1.5 → 2.
        assert_eq!(desired_prefill_nodes(5, 1, 300, 700), 2);
    }

    proptest! {
        /// The SLO calibrator is conservative by construction: whenever it
        /// publishes a rate, that rate is at least the cumulative measured mean
        /// (rounded up) — so calibrated admission never accepts a request the
        /// true measured mean rate would have rejected — and at least 1. Before
        /// warmup it publishes nothing.
        #[test]
        fn calibrator_rate_never_undercuts_the_measured_mean(
            sample_tokens in prop::collection::vec(1u64..5_000, 1..64),
            sample_cycles in prop::collection::vec(1u64..50_000_000_000, 1..64),
            warmup in 1u64..4_096,
            shift in 0u32..8,
        ) {
            let mut cal = SloCalibrator::new(warmup, shift);
            let (mut tokens_total, mut cycles_total) = (0u64, 0u64);
            for (&tokens, &cycles) in sample_tokens.iter().zip(sample_cycles.iter()) {
                cal.observe(tokens, cycles);
                tokens_total += tokens;
                cycles_total += cycles;
                match cal.rate() {
                    Some(rate) => {
                        prop_assert!(tokens_total >= warmup.max(1));
                        prop_assert!(rate >= cycles_total.div_ceil(tokens_total));
                        prop_assert!(rate >= 1);
                    }
                    None => prop_assert!(tokens_total < warmup.max(1)),
                }
            }
        }
    }
}

//! Deterministic synthetic serving workloads for examples, benchmarks and
//! tests: a seeded stream of requests with varied prompt/output lengths,
//! optionally staggered arrivals, spread round-robin across models.
//!
//! Two front-ends share one generator: [`synthetic_requests`] materializes a
//! trace up front (the classic path every golden test pins), while
//! [`WorkloadStream`] yields the *same* seeded sequence lazily, so an
//! event-driven engine can serve millions of requests without ever holding
//! the full trace in memory. Both draw from the RNG in the same per-request
//! order, so a fixed seed produces bit-identical requests either way.

use crate::request::Request;
use mugi_numerics::cast::{u64_from_f64, u64_from_usize};
use mugi_workloads::models::ModelId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How request arrival times are generated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ArrivalModel {
    /// Arrivals are drawn uniformly over `[0, arrival_spread_cycles]` (zero
    /// means a single burst at cycle zero). Closed-horizon and *unsorted*:
    /// request `i+1` may arrive before request `i`, so this model suits
    /// materialized traces, not lazy streaming.
    #[default]
    Spread,
    /// Open-loop Poisson arrivals: inter-arrival gaps are exponentially
    /// distributed with the given mean, so arrivals are nondecreasing and
    /// the stream has no horizon — the load level is `1 / mean_gap_cycles`
    /// requests per cycle regardless of how fast the server drains. This is
    /// the long-horizon model the streaming engine serves;
    /// `arrival_spread_cycles` is ignored under it.
    Poisson {
        /// Mean inter-arrival gap in cycles (the inverse arrival rate).
        mean_gap_cycles: u64,
    },
}

/// Prompt/output length and arrival ranges of a synthetic workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// Inclusive prompt-length range in tokens.
    pub prompt_tokens: (usize, usize),
    /// Inclusive output-length range in tokens.
    pub output_tokens: (usize, usize),
    /// Horizon of the [`ArrivalModel::Spread`] uniform arrival draw (zero
    /// means a single burst at cycle zero). Ignored under
    /// [`ArrivalModel::Poisson`].
    pub arrival_spread_cycles: u64,
    /// Arrival-time model.
    pub arrival: ArrivalModel,
}

impl Default for WorkloadSpec {
    /// Prompts of 32–512 tokens, outputs of 4–48 tokens, one burst.
    fn default() -> Self {
        WorkloadSpec {
            prompt_tokens: (32, 512),
            output_tokens: (4, 48),
            arrival_spread_cycles: 0,
            arrival: ArrivalModel::Spread,
        }
    }
}

impl WorkloadSpec {
    /// A KV-pressure workload: moderate prompts but long generations
    /// (64–256 prompt, 48–96 output tokens) in a single burst, so the
    /// decode population's cache footprint keeps growing long after the
    /// prefills are done — the regime where a bounded KV pool
    /// ([`KvConfig::bounded`](crate::KvConfig::bounded)) preempts. Used by the `kv_pressure`
    /// integration test and the `kv_sweep` bench.
    pub fn kv_pressure() -> Self {
        WorkloadSpec {
            prompt_tokens: (64, 256),
            output_tokens: (48, 96),
            ..WorkloadSpec::default()
        }
    }

    /// A mixed long-prefill workload: long prompts (768–2048 tokens) with
    /// moderate generations (32–64 tokens), arrivals spread over `spread`
    /// cycles so prefill chunks and decode slots keep contending for the
    /// whole run — the regime where colocated placement inflates decode
    /// TPOT and prefill/decode disaggregation pays off. Used by the
    /// `disagg` integration tests and the `disagg_sweep` bench.
    pub fn mixed_long_prefill(spread: u64) -> Self {
        WorkloadSpec {
            prompt_tokens: (768, 2048),
            output_tokens: (32, 64),
            arrival_spread_cycles: spread,
            ..WorkloadSpec::default()
        }
    }

    /// Switches the spec to open-loop Poisson arrivals with the given mean
    /// inter-arrival gap.
    ///
    /// # Panics
    /// Panics if `mean_gap_cycles` is zero (an infinite arrival rate).
    pub fn with_poisson_arrivals(mut self, mean_gap_cycles: u64) -> Self {
        assert!(mean_gap_cycles > 0, "mean_gap_cycles must be non-zero");
        self.arrival = ArrivalModel::Poisson { mean_gap_cycles };
        self
    }
}

/// A lazy, seeded request generator: yields the exact sequence
/// [`synthetic_requests`] would materialize for the same arguments, one
/// request at a time, in O(1) memory. Unbounded — callers `take(n)` or stop
/// consuming; [`Executor::run_stream`](crate::Executor::run_stream) stages
/// it one arrival at a time. A Poisson arrival clock that would pass
/// `u64::MAX` panics rather than wrapping.
#[derive(Clone, Debug)]
pub struct WorkloadStream {
    rng: SmallRng,
    models: Vec<ModelId>,
    spec: WorkloadSpec,
    /// Requests generated so far (drives the model round-robin).
    index: usize,
    /// Accumulated arrival clock under [`ArrivalModel::Poisson`].
    clock_cycles: u64,
}

impl WorkloadStream {
    /// Creates the stream. Same seed, models and spec as a
    /// [`synthetic_requests`] call — same requests.
    ///
    /// # Panics
    /// Panics if `models` is empty or a range is inverted.
    pub fn new(seed: u64, models: &[ModelId], spec: WorkloadSpec) -> Self {
        assert!(!models.is_empty(), "models must be non-empty");
        let (pmin, pmax) = spec.prompt_tokens;
        let (omin, omax) = spec.output_tokens;
        assert!(pmin >= 1 && pmin <= pmax, "invalid prompt range");
        assert!(omin >= 1 && omin <= omax, "invalid output range");
        WorkloadStream {
            rng: SmallRng::seed_from_u64(seed),
            models: models.to_vec(),
            spec,
            index: 0,
            clock_cycles: 0,
        }
    }

    /// Whether this stream's arrival sequence is nondecreasing (what lazy,
    /// event-driven consumption requires). True for Poisson arrivals and
    /// for a zero-horizon burst; false for a nonzero uniform spread.
    #[cfg(test)]
    pub(crate) fn arrivals_sorted(&self) -> bool {
        match self.spec.arrival {
            ArrivalModel::Poisson { .. } => true,
            ArrivalModel::Spread => self.spec.arrival_spread_cycles == 0,
        }
    }
}

impl Iterator for WorkloadStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let (pmin, pmax) = self.spec.prompt_tokens;
        let (omin, omax) = self.spec.output_tokens;
        #[expect(
            clippy::indexing_slicing,
            reason = "`new` asserts `models` is non-empty, and the index is reduced modulo its length"
        )]
        let model = self.models[self.index % self.models.len()];
        self.index += 1;
        // Draw order is part of the golden contract: prompt, output, then
        // (only when the model calls for one) a single arrival draw.
        let prompt = self.rng.gen_range(pmin..=pmax);
        let output = self.rng.gen_range(omin..=omax);
        let arrival = match self.spec.arrival {
            ArrivalModel::Spread => {
                if self.spec.arrival_spread_cycles == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=self.spec.arrival_spread_cycles)
                }
            }
            ArrivalModel::Poisson { mean_gap_cycles } => {
                let gap = exponential_gap(&mut self.rng, mean_gap_cycles);
                self.clock_cycles = arrival_after(self.clock_cycles, gap);
                self.clock_cycles
            }
        };
        Some(Request::new(model, prompt, output).arriving_at(arrival))
    }
}

/// The arrival cycle `gap` cycles after `cycle`: the one arrival-side cycle
/// sum, for the Poisson clock and for a phase's start offset.
///
/// # Panics
/// Panics when `cycle + gap` overflows a `u64` cycle count, rather than
/// wrapping (release builds do not check overflow).
#[expect(
    clippy::panic,
    reason = "a wrapped arrival clock would silently move later arrivals before earlier ones"
)]
fn arrival_after(cycle: u64, gap: u64) -> u64 {
    cycle.checked_add(gap).unwrap_or_else(|| {
        panic!("arrival overflow: {gap} cycles after cycle {cycle} pass u64::MAX")
    })
}

/// One exponentially distributed inter-arrival gap with the given mean, by
/// inversion sampling: `-ln(1 - u) * mean` for uniform `u ∈ [0, 1)`,
/// rounded to whole cycles. `1 - u` never hits zero, so the gap is finite.
fn exponential_gap(rng: &mut SmallRng, mean_gap_cycles: u64) -> u64 {
    let u: f64 = rng.gen();
    round_gap(-(1.0 - u).ln() * mean_gap_cycles as f64)
}

/// `x.round()` (half away from zero) as a `u64`, for `0 ≤ x ≤ 2^53`. The
/// fraction `x - trunc(x)` is exact, so comparing it with one half rounds
/// exactly without calling the soft-float `round`.
///
/// # Panics
/// Panics if `x` is NaN, negative (`-0.0` is zero), or above 2^53.
fn round_gap(x: f64) -> u64 {
    let whole = u64_from_f64(x);
    whole + u64::from(x - whole as f64 >= 0.5)
}

/// Generates `count` deterministic requests round-robined across `models`
/// with lengths drawn from `spec` (seeded `SmallRng`, like the experiment
/// drivers). Materializes the same sequence a [`WorkloadStream`] with the
/// same arguments yields lazily.
///
/// # Panics
/// Panics if `models` is empty or a range is inverted.
pub fn synthetic_requests(
    seed: u64,
    count: usize,
    models: &[ModelId],
    spec: WorkloadSpec,
) -> Vec<Request> {
    WorkloadStream::new(seed, models, spec).take(count).collect()
}

/// Generates a workload whose mix *shifts* over the run: one
/// [`synthetic_requests`] draw per `(spec, start_cycle, count)` phase, with
/// the phase's arrivals offset by its start cycle, concatenated in phase
/// order. Each phase derives its seed as `seed + phase index`, so phases are
/// independent draws but the whole trace is deterministic. This is the
/// regime the adaptive control plane exists for — a prefill:decode demand
/// ratio that no single static node split serves well — and what the
/// `adaptive_sweep` bench drives.
///
/// # Panics
/// Panics if `models` is empty, any phase's range is inverted, or an offset
/// arrival passes `u64::MAX`.
pub fn phased_requests(
    seed: u64,
    models: &[ModelId],
    phases: &[(WorkloadSpec, u64, usize)],
) -> Vec<Request> {
    phases
        .iter()
        .enumerate()
        .flat_map(|(i, &(spec, start_cycle, count))| {
            synthetic_requests(seed + u64_from_usize(i), count, models, spec)
                .into_iter()
                .map(move |r| r.arriving_at(arrival_after(start_cycle, r.arrival_cycle)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_in_range() {
        let spec = WorkloadSpec::default();
        let models = [ModelId::Llama2_7b, ModelId::Llama2_70b];
        let a = synthetic_requests(42, 64, &models, spec);
        let b = synthetic_requests(42, 64, &models, spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.model, models[i % 2]);
            assert!((32..=512).contains(&r.prompt_tokens));
            assert!((4..=48).contains(&r.output_tokens));
            assert_eq!(r.arrival_cycle, 0);
        }
        let c = synthetic_requests(43, 64, &models, spec);
        assert_ne!(a, c);
    }

    #[test]
    fn gap_rounding_equals_f64_round() {
        let two_52 = (1u64 << 52) as f64;
        let mut xs = vec![0.0, -0.0, 1.0, two_52, 2.0 * two_52];
        // Ties `k + 0.5` (exact below 2^52) and their neighbours.
        for k in [0u64, 1, 2, 3, 7, 1_000, 1 << 31, 1 << 51, (1 << 52) - 1] {
            let tie = k as f64 + 0.5;
            xs.extend([tie, tie.next_down(), tie.next_up()]);
        }
        // Across [2^52, 2^53] every value is whole.
        for k in 0..1_000u64 {
            xs.extend([two_52 + k as f64, 2.0 * two_52 - k as f64]);
        }
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100_000 {
            let u: f64 = rng.gen();
            let k = rng.gen_range(0..1u64 << 52) as f64;
            xs.extend([
                u * (1u64 << rng.gen_range(0..=53)) as f64,
                k + 0.5,
                -(1.0 - u).ln() * rng.gen_range(1..=400_000_000_000u64) as f64,
            ]);
        }
        for x in xs {
            assert_eq!(round_gap(x), u64_from_f64(x.round()), "{x:?}");
        }
    }

    #[test]
    fn gap_rounding_fails_loud_out_of_range() {
        let above = ((1u64 << 53) as f64).next_up();
        for x in [f64::NAN, -1.0, -0.25, f64::NEG_INFINITY, above, f64::INFINITY] {
            assert!(std::panic::catch_unwind(|| round_gap(x)).is_err(), "{x:?} did not panic");
        }
    }

    #[test]
    fn phased_workloads_concatenate_offset_phases() {
        let prefill_heavy = WorkloadSpec::mixed_long_prefill(1_000);
        let decode_heavy = WorkloadSpec::kv_pressure();
        let reqs = phased_requests(
            9,
            &[ModelId::Llama2_7b],
            &[(prefill_heavy, 0, 8), (decode_heavy, 50_000, 8)],
        );
        assert_eq!(reqs.len(), 16);
        assert!(reqs[..8].iter().all(|r| r.arrival_cycle <= 1_000 && r.prompt_tokens >= 768));
        assert!(reqs[8..].iter().all(|r| r.arrival_cycle >= 50_000 && r.prompt_tokens <= 256));
        // Phase draws are independent (distinct derived seeds) but the
        // whole trace is deterministic.
        let again = phased_requests(
            9,
            &[ModelId::Llama2_7b],
            &[(prefill_heavy, 0, 8), (decode_heavy, 50_000, 8)],
        );
        assert_eq!(reqs, again);
    }

    #[test]
    fn arrivals_spread_when_requested() {
        let spec = WorkloadSpec { arrival_spread_cycles: 1_000_000, ..WorkloadSpec::default() };
        let reqs = synthetic_requests(7, 32, &[ModelId::Llama2_7b], spec);
        assert!(reqs.iter().any(|r| r.arrival_cycle > 0));
        assert!(reqs.iter().all(|r| r.arrival_cycle <= 1_000_000));
    }

    #[test]
    #[should_panic(expected = "models must be non-empty")]
    fn empty_models_rejected() {
        synthetic_requests(1, 4, &[], WorkloadSpec::default());
    }

    #[test]
    fn kv_pressure_preset_is_decode_heavy() {
        let spec = WorkloadSpec::kv_pressure();
        let reqs = synthetic_requests(3, 16, &[ModelId::Llama2_7b], spec);
        for r in &reqs {
            assert!((64..=256).contains(&r.prompt_tokens));
            assert!((48..=96).contains(&r.output_tokens));
            assert_eq!(r.arrival_cycle, 0, "pressure comes as one burst");
        }
    }

    #[test]
    fn stream_yields_the_materialized_sequence() {
        // The lazy generator and the materialized path must agree request
        // for request, under every arrival model, so goldens captured
        // against one front-end stay valid for the other.
        let models = [ModelId::Llama2_7b, ModelId::Llama2_13b];
        for spec in [
            WorkloadSpec::default(),
            WorkloadSpec { arrival_spread_cycles: 5_000_000, ..WorkloadSpec::default() },
            WorkloadSpec::kv_pressure().with_poisson_arrivals(250_000),
        ] {
            let materialized = synthetic_requests(99, 256, &models, spec);
            let streamed: Vec<Request> = WorkloadStream::new(99, &models, spec).take(256).collect();
            assert_eq!(materialized, streamed, "front-ends diverged for {spec:?}");
        }
    }

    #[test]
    fn poisson_arrivals_are_sorted_open_loop_and_rate_controlled() {
        let mean = 1_000_000u64;
        let spec = WorkloadSpec::default().with_poisson_arrivals(mean);
        let stream = WorkloadStream::new(5, &[ModelId::Llama2_7b], spec);
        assert!(stream.arrivals_sorted());
        let reqs: Vec<Request> = stream.take(4096).collect();
        assert!(reqs.windows(2).all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        // The empirical mean gap converges on the configured mean (±10%).
        let span = reqs.last().unwrap().arrival_cycle as f64;
        let empirical = span / reqs.len() as f64;
        let ratio = empirical / mean as f64;
        assert!((0.9..=1.1).contains(&ratio), "empirical/mean gap ratio {ratio}");
        // Unsorted spread streams say so.
        let spread = WorkloadSpec { arrival_spread_cycles: 100, ..WorkloadSpec::default() };
        assert!(!WorkloadStream::new(5, &[ModelId::Llama2_7b], spread).arrivals_sorted());
        assert!(WorkloadStream::new(5, &[ModelId::Llama2_7b], WorkloadSpec::default())
            .arrivals_sorted());
    }

    #[test]
    fn poisson_inter_arrival_sequence_is_pinned() {
        // The seeded gap sequence is part of the deterministic contract:
        // these values were captured from this generator and must never
        // drift (they anchor the streaming goldens).
        let spec = WorkloadSpec::default().with_poisson_arrivals(10_000);
        let reqs: Vec<Request> =
            WorkloadStream::new(1234, &[ModelId::Llama2_7b], spec).take(8).collect();
        let arrivals: Vec<u64> = reqs.iter().map(|r| r.arrival_cycle).collect();
        let gaps: Vec<u64> =
            std::iter::once(arrivals[0]).chain(arrivals.windows(2).map(|w| w[1] - w[0])).collect();
        assert_eq!(arrivals, PINNED_ARRIVALS, "gaps drifted: {gaps:?}");
    }

    /// Captured from `WorkloadStream::new(1234, &[Llama2_7b],
    /// default().with_poisson_arrivals(10_000))` — see
    /// `poisson_inter_arrival_sequence_is_pinned`.
    const PINNED_ARRIVALS: [u64; 8] =
        [11_741, 34_137, 42_788, 45_374, 50_108, 82_450, 97_993, 98_419];

    #[test]
    fn arrival_sums_reach_u64_max_exactly() {
        assert_eq!(arrival_after(u64::MAX - 7, 7), u64::MAX);
        // A Poisson clock one short gap below the top still advances.
        let spec = WorkloadSpec::default().with_poisson_arrivals(1);
        let mut stream = WorkloadStream::new(3, &[ModelId::Llama2_7b], spec);
        stream.clock_cycles = u64::MAX - 1_000;
        let r = stream.next().unwrap();
        assert!(r.arrival_cycle >= u64::MAX - 1_000);
        // A phase starting at the last cycle its spread allows.
        let spread = WorkloadSpec { arrival_spread_cycles: 1_000, ..WorkloadSpec::default() };
        let phased = phased_requests(5, &[ModelId::Llama2_7b], &[(spread, u64::MAX - 1_000, 8)]);
        assert!(phased.iter().all(|r| r.arrival_cycle >= u64::MAX - 1_000));
    }

    #[test]
    #[should_panic(expected = "arrival overflow")]
    fn poisson_clock_panics_past_u64_max() {
        let spec = WorkloadSpec::default().with_poisson_arrivals(1 << 40);
        let mut stream = WorkloadStream::new(3, &[ModelId::Llama2_7b], spec);
        stream.clock_cycles = u64::MAX - 1;
        stream.next();
    }

    #[test]
    #[should_panic(expected = "arrival overflow")]
    fn phased_arrivals_panic_past_u64_max() {
        let spread = WorkloadSpec { arrival_spread_cycles: 1_000, ..WorkloadSpec::default() };
        phased_requests(5, &[ModelId::Llama2_7b], &[(spread, u64::MAX - 1, 8)]);
    }
}

//! `paper_pipeline`: the twelve figure/table drivers of the paper's
//! evaluation (what `reproduce_all` runs), called in process at the full
//! preset. It is the only workload that runs the approximation, VLP and
//! numerics kernels, and it never touches the serving runtime. Its inputs
//! are the presets' fixed sweeps, so the seed does not change it.

use crate::{
    fingerprint, keep_going, median_per_metric, now, Ledger, Options, Outcome, Size, Timings,
    TRACED_ROUNDS,
};
use mugi::experiments::accuracy::*;
use mugi::experiments::architecture::*;
use mugi::experiments::sustainability::*;
use mugi::experiments::Preset;
use mugi_workloads::models::ModelId;
use std::time::Duration;

/// A driver: runs one figure or table and renders it.
pub type Driver = fn(Preset) -> String;

/// The drivers in `reproduce_all` order. The last eight are the
/// architecture and sustainability drivers.
pub const DRIVERS: [(&str, Driver); 12] = [
    ("fig04", |p| fig04_table(&fig04_profiling(p)).render()),
    ("fig06", |p| fig06_table(&fig06_accuracy_sweep(p, ModelId::Llama2_7b)).render()),
    ("fig07", |p| fig07_table(&fig07_per_layer_tuning(p, ModelId::Llama2_7b)).render()),
    ("fig08", |p| fig08_table(&fig08_relative_error(p)).render()),
    ("fig11", |p| fig11_table(&fig11_nonlinear_comparison(p)).render()),
    ("fig12", |p| fig12_table(&fig12_gemm_comparison(p)).render()),
    ("table3", |p| table3_table(&table3_end_to_end(p)).render()),
    ("fig13", |p| fig13_table(&fig13_breakdown(p)).render()),
    ("fig14", |p| fig14_table(&fig14_batch_sweep(p)).render()),
    ("fig15", |p| fig15_table(&fig15_carbon(p)).render()),
    ("fig16", |p| fig16_table(&fig16_latency_breakdown(p)).render()),
    ("fig17", |p| fig17_table(&fig17_noc_scaling(p)).render()),
];

/// The preset a pass runs at `size`, and its name in the digest table.
pub fn preset(size: Size) -> (Preset, &'static str) {
    match size {
        Size::Full => (Preset::Full, "full"),
        Size::Reduced => (Preset::Quick, "quick"),
    }
}

/// Runs every driver once. Returns the rendered tables and the pass's host
/// time; with `spans`, also each driver's own host time.
pub fn pass(preset: Preset, spans: bool) -> (Vec<String>, Duration, Vec<Duration>) {
    let mut tables = Vec::with_capacity(DRIVERS.len());
    let mut times = Vec::new();
    let start = now();
    for (_, driver) in DRIVERS {
        if spans {
            let t = now();
            tables.push(driver(preset));
            times.push(t.elapsed());
        } else {
            tables.push(driver(preset));
        }
    }
    (tables, start.elapsed(), times)
}

/// The digest of each rendered table, in driver order.
pub fn digests(tables: &[String]) -> Vec<u64> {
    tables.iter().map(|t| fingerprint::digest_bytes(t.as_bytes())).collect()
}

/// The committed digest of each driver's table at `size`.
fn pinned(size: Size) -> Vec<Option<u64>> {
    let (_, preset_name) = preset(size);
    DRIVERS.iter().map(|(name, _)| fingerprint::pinned_paper(preset_name, name)).collect()
}

/// One set-up of the pipeline: the drivers need none, so this is the
/// lookup of the committed digests.
pub fn set_up(opts: &Options) {
    std::hint::black_box(pinned(opts.size));
}

/// Runs `paper_pipeline` as one benchmark run (see [`crate::run`]).
pub fn run(opts: &Options, time_set_up: &mut dyn FnMut() -> Duration) -> Outcome {
    let (preset, _) = preset(opts.size);
    let pinned = pinned(opts.size);
    let mut out = Outcome::default();
    let mut timings = Timings::default();

    let start = now();
    timings.time_reference(&mut out.checks);
    while keep_going(start, timings.walls().len(), opts.seconds) {
        let setup = time_set_up();
        let (tables, wall, _) = pass(preset, false);
        timings.record(setup, wall, &mut out.checks);
        check_tables(&tables, &pinned, &mut out);
    }
    if !opts.trace {
        return out.end_to_end(&timings, DRIVERS.len() as f64);
    }

    let mut rounds = Vec::with_capacity(TRACED_ROUNDS);
    for round in 0..TRACED_ROUNDS {
        let (tables, plain_wall, _) = pass(preset, false);
        check_tables(&tables, &pinned, &mut out);
        let (tables, traced_wall, times) = pass(preset, true);
        check_tables(&tables, &pinned, &mut out);
        let secs =
            |range: std::ops::Range<usize>| times[range].iter().map(Duration::as_secs_f64).sum();
        let ledger = Ledger {
            fig04_s: secs(0..1),
            fig06_s: secs(1..2),
            fig07_s: secs(2..3),
            fig08_s: secs(3..4),
            arch_s: secs(4..12),
            trace_overhead_share: traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
            ..Ledger::default()
        };
        rounds.push(ledger.metrics());
        if round == 0 {
            let mut text = String::from("driver\tns\n");
            for ((name, _), t) in DRIVERS.iter().zip(&times) {
                text.push_str(&format!("{name}\t{}\n", t.as_nanos()));
            }
            out.spans = text;
        }
    }
    out.metrics = median_per_metric(&rounds);
    out
}

/// Checks one pass's tables against the committed digests; a driver whose
/// table differs is a failed operation. The first pass's digests become the
/// run's deterministic counters.
fn check_tables(tables: &[String], pinned: &[Option<u64>], out: &mut Outcome) {
    let digests = digests(tables);
    out.attempted += DRIVERS.len() as u64;
    for (i, (name, _)) in DRIVERS.iter().enumerate() {
        let ok = out.checks.expect(pinned[i] == Some(digests[i]), || {
            format!("{name}: rendered table digest {:#018x} is not the pinned one", digests[i])
        });
        out.failed += u64::from(!ok);
    }
    if out.counters.is_empty() {
        out.counters = digests;
    }
}

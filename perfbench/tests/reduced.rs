//! Reduced-size runs of every workload: each reports every metric
//! `BENCHMARK.json` declares, with its unit, passes its pinned fingerprint
//! and repeats its deterministic counters on a second run.

use mugi_perfbench::{run, time_set_up_in_process, Options, Outcome, Size, Workload, DEFAULT_SEED};

fn reduced(workload: Workload, trace: bool) -> Outcome {
    let opts = Options { workload, seed: DEFAULT_SEED, seconds: 0.0, trace, size: Size::Reduced };
    run(&opts, &mut || time_set_up_in_process(&opts))
}

/// `(name, unit)` of every metric one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        let from = entry.find(&tag).expect("entry has the key") + tag.len();
        let len = entry[from..].find('"').expect("value is a string");
        entry[from..from + len].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn check(workload: Workload, trace: bool) {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let first = reduced(workload, trace);
    let name = workload.name();
    assert!(first.correct(), "{name}: checks failed: {:?}", first.checks.problems());
    assert!(first.attempted > 0 && first.failed == 0, "{name}: operations failed");

    let line = first.json_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    let declared = declared(section);
    assert_eq!(first.metrics.len(), declared.len(), "{name}: {section} metric count");
    for (metric, unit) in &declared {
        let entry = format!("\"{metric}\": {{\"value\": ");
        assert!(line.contains(&entry), "{name}: {metric} missing from {line}");
        let reported = first.metrics.iter().find(|m| m.name == metric).expect("reported");
        assert_eq!(reported.unit, unit, "{name}: unit of {metric}");
        assert!(reported.value.is_finite(), "{name}: {metric} is not a number");
    }
    if !trace {
        assert!(first.metrics.iter().all(|m| m.value > 0.0), "{name}: an end-to-end metric is 0");
    }

    let pinned = first.notes.iter().all(|n| !n.contains("not pinned"));
    assert!(pinned, "{name}: the reduced run at the default seed must have a pinned fingerprint");

    let second = reduced(workload, trace);
    assert!(!first.counters.is_empty());
    assert_eq!(first.counters, second.counters, "{name}: deterministic counters differ");
}

#[test]
fn serve_bounded_reduced_run() {
    check(Workload::ServeBounded, false);
    check(Workload::ServeBounded, true);
}

#[test]
fn serve_disagg_reduced_run() {
    check(Workload::ServeDisagg, false);
    check(Workload::ServeDisagg, true);
}

#[test]
fn serve_mixed_dp_reduced_run() {
    check(Workload::ServeMixedDp, false);
    check(Workload::ServeMixedDp, true);
}

#[test]
fn paper_pipeline_reduced_run() {
    check(Workload::PaperPipeline, false);
    check(Workload::PaperPipeline, true);
}

#[test]
fn the_traced_ledger_reads_its_layers() {
    let bounded = reduced(Workload::ServeBounded, true);
    let value = |o: &Outcome, name: &str| {
        o.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect("metric reported")
    };
    // serve_bounded never preempts, so its unbounded twin is a valid control.
    assert_eq!(value(&bounded, "kv.twin_valid"), 1.0);
    assert!(value(&bounded, "workload.gen_ns_per_req") > 0.0);
    assert!(value(&bounded, "estimate.cold_intervals") > 0.0);
    assert_eq!(value(&bounded, "placement.migrations"), 0.0);
    // Every disaggregated request migrates its KV once.
    let disagg = reduced(Workload::ServeDisagg, true);
    let requests = mugi_perfbench::serve::ServeSpec::disagg().reduced_requests as f64;
    assert_eq!(value(&disagg, "placement.migrations"), requests);
    // The paper pipeline bypasses the runtime.
    let paper = reduced(Workload::PaperPipeline, true);
    assert!(value(&paper, "paper.fig04_s") > 0.0);
    assert_eq!(value(&paper, "executor.batches_per_req"), 0.0);
}

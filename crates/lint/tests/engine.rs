//! Rule-engine integration tests: known-bad fixtures must produce exactly
//! the expected diagnostics, with accurate spans, and the suppression
//! machinery must honour every documented placement.
//!
//! The fixtures live in `tests/fixtures/`, which the `mugi-lint` CLI skips
//! when walking the workspace — they are test data, not workspace sources.
//! Each fixture is analyzed under a synthetic workspace path so the
//! path-scoped rules (simulation crates, hot-path files) apply as intended.

use mugi_lint::rules::{analyze_file, Rule};

const UNORDERED: &str = include_str!("fixtures/unordered.rs");
const AMBIENT: &str = include_str!("fixtures/ambient.rs");
const FLOAT_ACC: &str = include_str!("fixtures/float_acc.rs");
const LOSSY: &str = include_str!("fixtures/lossy.rs");
const PANICS: &str = include_str!("fixtures/panics.rs");
const ALLOWS: &str = include_str!("fixtures/allows.rs");

/// `(rule, line, col)` of every finding, in report order.
fn spans(path: &str, src: &str) -> Vec<(Rule, u32, u32)> {
    analyze_file(path, src).findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
}

#[test]
fn unordered_iteration_diagnostics_are_exact() {
    let got = spans("crates/runtime/src/fixture.rs", UNORDERED);
    assert_eq!(
        got,
        vec![
            // `.values()` call: the method token is underlined.
            (Rule::UnorderedIteration, 5, 12),
            // `for … in counts.drain()`: both the loop source ident and the
            // order-revealing method are reported.
            (Rule::UnorderedIteration, 10, 26),
            (Rule::UnorderedIteration, 10, 33),
        ],
        "iteration inside the #[cfg(test)] module must stay unflagged"
    );
}

#[test]
fn simulation_crate_gating_disables_r1() {
    // Identical source under a non-simulation crate: R1/R3 do not apply.
    assert_eq!(spans("crates/carbon/src/fixture.rs", UNORDERED), vec![]);
}

#[test]
fn ambient_nondeterminism_diagnostics_are_exact() {
    // R2 applies in every crate, bench included.
    let got = spans("crates/bench/src/fixture.rs", AMBIENT);
    assert_eq!(
        got,
        vec![
            (Rule::AmbientNondeterminism, 4, 25), // Instant::now
            (Rule::AmbientNondeterminism, 9, 25), // thread_rng
        ]
    );
}

#[test]
fn float_accumulation_diagnostics_are_exact() {
    let got = spans("crates/core/src/fixture.rs", FLOAT_ACC);
    assert_eq!(
        got,
        vec![
            // `.values()` itself (R1) and the float `sum` fed by it (R3).
            (Rule::UnorderedIteration, 5, 13),
            (Rule::FloatAccumulationOrder, 5, 31),
        ]
    );
}

#[test]
fn lossy_cast_diagnostics_are_exact() {
    let report = analyze_file("crates/runtime/src/fixture.rs", LOSSY);
    let got: Vec<(Rule, u32, u32)> =
        report.findings.iter().map(|f| (f.rule, f.line, f.col)).collect();
    assert_eq!(
        got,
        vec![
            (Rule::LossyCast, 4, 12),  // u64 → usize narrows
            (Rule::LossyCast, 8, 11),  // f64 → u64 truncates
            (Rule::LossyCast, 16, 10), // tuple field: unknown source width
        ],
        "the widening u32 → u64 cast on line 12 must NOT be flagged"
    );
    assert!(
        report.findings[0].message.contains("unsigned 64-bit integer"),
        "known-source casts name the source type: {}",
        report.findings[0].message
    );
    assert!(
        report.findings[2].message.contains("unknown width"),
        "tuple-field casts are reported as unprovable: {}",
        report.findings[2].message
    );
}

#[test]
fn lossy_cast_only_applies_to_hot_path_modules() {
    assert_eq!(spans("crates/vlp/src/fixture.rs", LOSSY), vec![]);
}

#[test]
fn hot_path_panic_diagnostics_are_exact() {
    let got = spans("crates/runtime/src/scheduler.rs", PANICS);
    assert_eq!(
        got,
        vec![
            (Rule::HotPathPanic, 4, 7),  // xs[0]
            (Rule::HotPathPanic, 8, 9),  // .unwrap()
            (Rule::HotPathPanic, 12, 9), // .expect()
            (Rule::HotPathPanic, 16, 5), // panic!
        ],
        "the slice type `&[u64]` in the signature must not read as indexing"
    );
}

#[test]
fn hot_path_panic_only_applies_to_hot_files() {
    assert_eq!(spans("crates/runtime/src/workload.rs", PANICS), vec![]);
}

#[test]
fn allow_placements_suppress_and_stale_and_malformed_are_reported() {
    let report = analyze_file("crates/runtime/src/fixture.rs", ALLOWS);

    // Every finding is suppressed: module header covers lines 5 and 10, the
    // line-above allow covers 15, the trailing allow covers 19.
    assert_eq!(report.findings.len(), 4);
    for f in &report.findings {
        assert!(f.allowed.is_some(), "finding on line {} escaped suppression", f.line);
    }
    let by_line = |l: u32| {
        report.findings.iter().find(|f| f.line == l).map(|f| f.allowed.clone().unwrap()).unwrap()
    };
    assert!(by_line(5).contains("module-wide"));
    assert!(by_line(10).contains("module-wide"), "wrong-rule line allow must not apply");
    assert!(by_line(15).contains("line-above"), "line-scoped allows take precedence");
    assert!(by_line(19).contains("trailing"));

    // The ambient allow on line 9 names a rule that never fires there.
    let stale: Vec<u32> = report.allows.iter().filter(|a| a.used == 0).map(|a| a.line).collect();
    assert_eq!(stale, vec![9], "exactly the mis-targeted allow is stale");

    // Unknown rule id and missing reason are both malformed, not ignored.
    let problems: Vec<(u32, &str)> =
        report.malformed.iter().map(|m| (m.line, m.problem.as_str())).collect();
    assert_eq!(problems.len(), 2);
    assert_eq!(problems[0].0, 22);
    assert!(problems[0].1.contains("unknown rule id `bogus-rule`"));
    assert_eq!(problems[1].0, 23);
    assert!(problems[1].1.contains("no reason"));
}

#[test]
fn documentation_mentioning_the_directive_is_not_an_allow() {
    let src = "//! Reads `mugi-lint: allow(...)` suppressions out of comments.\nfn noop() {}\n";
    let report = analyze_file("crates/lint/src/fixture.rs", src);
    assert!(report.allows.is_empty());
    assert!(report.malformed.is_empty());
}

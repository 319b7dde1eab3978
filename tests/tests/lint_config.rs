//! Pins the wiring of the determinism and hot-path lint gate.
//!
//! The rules live in configuration: the root `clippy.toml` bans types and
//! methods workspace-wide, and one `#![cfg_attr(not(test), warn(...))]` per
//! scope switches the restriction lints on. Deleting a name from either
//! would silently switch a rule off while clippy still passes, so this test
//! reads the files as text and fails if a required name is missing.

use std::path::Path;

const CASTS: &[&str] =
    &["clippy::cast_possible_truncation", "clippy::cast_sign_loss", "clippy::cast_possible_wrap"];
const PANICS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];
const REASONS: &[&str] = &["clippy::allow_attributes", "clippy::allow_attributes_without_reason"];

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(relative);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {relative}: {e}"))
}

/// The text from the first `start` in `text` up to the next `end`.
fn block<'a>(text: &'a str, start: &str, end: &str, file: &str) -> &'a str {
    let from = &text[text.find(start).unwrap_or_else(|| panic!("{file} has no `{start}`"))..];
    &from[..from.find(end).unwrap_or_else(|| panic!("{file}: `{start}` is unterminated"))]
}

fn assert_all(found: &[&str], required: &[String], what: &str) {
    let missing: Vec<&String> = required.iter().filter(|r| !found.contains(&r.as_str())).collect();
    assert!(missing.is_empty(), "{what} is missing {missing:?}");
}

#[test]
fn clippy_toml_bans_every_nondeterministic_type_and_method() {
    let toml = read("clippy.toml");
    let paths = |key: &str| -> Vec<&str> {
        let array = block(&toml, &format!("{key} = ["), "\n]", "clippy.toml");
        array.split("path = \"").skip(1).filter_map(|p| p.split('"').next()).collect()
    };
    let types =
        ["std::collections::HashMap", "std::collections::HashSet", "std::hash::RandomState"];
    assert_all(&paths("disallowed-types"), &types.map(String::from), "disallowed-types");
    let visits = ["iter", "iter_mut", "keys", "into_keys", "values", "values_mut", "into_values"]
        .into_iter()
        .chain(["drain", "retain", "extract_if"])
        .map(|m| format!("std::collections::HashMap::{m}"));
    let methods: Vec<String> = [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::scope",
        "std::thread::spawn",
    ]
    .map(String::from)
    .into_iter()
    .chain(visits)
    .collect();
    assert_all(&paths("disallowed-methods"), &methods, "disallowed-methods");
}

#[test]
fn every_scope_switches_on_its_lints_outside_tests() {
    let scopes: [(&str, &[&[&str]]); 3] = [
        ("crates/runtime/src/lib.rs", &[CASTS, PANICS, REASONS]),
        ("crates/core/src/memo.rs", &[&["clippy::iter_over_hash_type"], CASTS, PANICS, REASONS]),
        ("crates/arch/src/perf.rs", &[CASTS, REASONS]),
    ];
    for (file, groups) in scopes {
        let source = read(file);
        let attr = block(&source, "#![cfg_attr(", ")]", file);
        let tokens: Vec<&str> = attr
            .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
            .filter(|t| !t.is_empty())
            .collect();
        assert_eq!(tokens[..4], ["cfg_attr", "not", "test", "warn"], "{file}: {attr}");
        let required: Vec<String> = groups.concat().into_iter().map(String::from).collect();
        assert_all(&tokens, &required, file);
    }
    // The workspace's one `HashMap` is an expectation, so it fails clippy
    // the day the map goes away and the module-wide exemption goes stale.
    assert!(read("crates/core/src/memo.rs").contains("#![expect(\n    clippy::disallowed_types,"));
}

/// Clippy cannot see the workspace's one `HashMap` consumed by value:
/// `disallowed-methods` cannot name a trait impl's method (`into_iter`,
/// `extend`) and `iter_over_hash_type` sees only `for` loops. memo.rs keeps
/// the map private to its `bucket_map` module, whose type offers no
/// iteration, so `ShapeCache` cannot reach it. Inside that module, outside
/// its tests, memo.rs may name the map's field only where it declares and
/// builds it and in the four visits whose results are order-free;
/// `into_iter()`, `drain()`, `extend(..)` and `mem::take` on it all fail
/// here.
#[test]
fn memo_names_its_hash_map_only_in_order_free_forms() {
    let source = read("crates/core/src/memo.rs");
    let end = source.find("#[cfg(test)]\nmod tests").expect("memo.rs has a test module");
    let code: Vec<u8> = source[..end]
        .lines()
        .filter_map(|line| line.split("//").next())
        .flat_map(str::bytes)
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    const FIELD: &[u8] = b"buckets";
    let allowed: [&[u8]; 6] = [
        b"buckets:HashMap<u64,Vec<Slot<K,V>>,Prehashed>,",
        b"BucketMap{buckets:HashMap::default(),",
        b"self.buckets.get_mut(",
        b"self.buckets.entry(",
        b"self.buckets.values(",
        b"self.buckets.retain(",
    ];
    let ident = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
    let mut uses = 0;
    for at in 0..code.len() {
        let word = code[at..].starts_with(FIELD)
            && !code[..at].last().is_some_and(ident)
            && !code.get(at + FIELD.len()).is_some_and(ident);
        if !word {
            continue;
        }
        let in_allowed_form = allowed.iter().any(|form| {
            let offset = form.windows(FIELD.len()).position(|w| w == FIELD).unwrap_or(0);
            at >= offset && code[at - offset..].starts_with(form)
        });
        let context =
            String::from_utf8_lossy(&code[at.saturating_sub(24)..code.len().min(at + 32)]);
        assert!(in_allowed_form, "memo.rs names `buckets` outside the allowed forms: `{context}`");
        uses += 1;
    }
    assert!(uses >= 2, "memo.rs no longer declares and builds `buckets`; update this check");
}

/// `mugi-runtime` is sealed: its modules are private and `lib.rs` re-exports
/// one facade, and `unreachable_pub` (denied by CI's clippy run) fails any
/// `pub` item the facade does not reach. A `pub mod` would make a module's
/// internals API again, and without the lint rustc could not report them
/// dead, so either change fails here.
#[test]
fn runtime_is_sealed_behind_its_facade() {
    let file = "crates/runtime/src/lib.rs";
    let source = read(file);
    assert!(source.contains("#![warn(unreachable_pub)]"), "{file} must warn on unreachable_pub");
    let code: Vec<&str> =
        source.lines().map(|line| line.split("//").next().unwrap_or("").trim()).collect();
    let public_modules: Vec<&&str> = code.iter().filter(|l| l.contains("pub mod ")).collect();
    assert!(public_modules.is_empty(), "{file} declares public modules: {public_modules:?}");
    assert!(
        code.iter().any(|l| l.starts_with("mod ")),
        "{file} declares no module; update this check"
    );
}

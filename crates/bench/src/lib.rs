//! Shared helpers for the Mugi benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section (EXPERIMENTS.md, "Binary → paper artifact", is
//! the index); the Criterion benches in `benches/` measure the reproduction's
//! own kernels and experiment drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mugi::experiments::Preset;

/// Parses the experiment preset from the process arguments: `--quick` selects
/// the reduced sweep, anything else (including no argument) selects the full
/// paper-scale sweep.
pub fn preset_from_args() -> Preset {
    if std::env::args().any(|a| a == "--quick") {
        Preset::Quick
    } else {
        Preset::Full
    }
}

/// Prints a standard header for a regeneration binary.
pub fn print_header(what: &str, preset: Preset) {
    println!("=== Mugi reproduction — {what} (preset: {preset:?}) ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preset_is_full() {
        // The test harness passes its own arguments, none of which are
        // `--quick`, so the default branch is exercised here.
        assert_eq!(preset_from_args(), Preset::Full);
    }
}

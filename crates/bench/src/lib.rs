//! Shared helpers for the Mugi benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section (EXPERIMENTS.md, "Binary → paper artifact", is
//! the index), and the serving sweeps of [`serving`]. Each binary is a thin
//! shim over a library function, so tests run the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod serving;

use mugi::experiments::Preset;

/// The flags a regeneration binary was given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flags {
    /// `Quick` with `--quick`, `Full` (the paper-scale sweep) without.
    pub preset: Preset,
    /// Whether `--json` was passed.
    pub json: bool,
}

/// A command-line argument the binary does not accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownFlag(pub String);

impl std::fmt::Display for UnknownFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown argument `{}`", self.0)
    }
}

/// Parses a binary's arguments (the program name excluded). `--quick` is
/// always accepted, `--json` only where `accepts_json` is set; any other
/// argument is an error, so a typo never silently selects the full sweep.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    accepts_json: bool,
) -> Result<Flags, UnknownFlag> {
    let mut flags = Flags { preset: Preset::Full, json: false };
    for arg in args {
        match arg.as_str() {
            "--quick" => flags.preset = Preset::Quick,
            "--json" if accepts_json => flags.json = true,
            _ => return Err(UnknownFlag(arg)),
        }
    }
    Ok(flags)
}

/// Parses the process arguments with [`parse_flags`]; on an unknown
/// argument prints it and a usage line to stderr and exits with status 2.
pub fn flags_from_args(accepts_json: bool) -> Flags {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    parse_flags(args, accepts_json).unwrap_or_else(|err| {
        let path = std::path::Path::new(&program);
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or(&program);
        let json = if accepts_json { " [--json]" } else { "" };
        eprintln!("error: {err}\nusage: {name} [--quick]{json}");
        std::process::exit(2)
    })
}

/// The preset of a binary whose only flag is `--quick` (see
/// [`flags_from_args`]).
pub fn preset_from_args() -> Preset {
    flags_from_args(false).preset
}

/// Prints a standard header for a regeneration binary.
pub fn print_header(what: &str, preset: Preset) {
    println!("=== Mugi reproduction — {what} (preset: {preset:?}) ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], accepts_json: bool) -> Result<Flags, UnknownFlag> {
        parse_flags(args.iter().map(|a| a.to_string()), accepts_json)
    }

    #[test]
    fn flags_select_the_preset_and_json() {
        let flags = |quick: bool, json| {
            Ok(Flags { preset: if quick { Preset::Quick } else { Preset::Full }, json })
        };
        assert_eq!(parse(&[], false), flags(false, false));
        assert_eq!(parse(&["--quick"], false), flags(true, false));
        assert_eq!(parse(&["--quick", "--quick"], false), flags(true, false));
        assert_eq!(parse(&["--json"], true), flags(false, true));
        assert_eq!(parse(&["--json", "--quick"], true), flags(true, true));
    }

    #[test]
    fn any_other_argument_is_an_error() {
        assert_eq!(parse(&["--quick", "--json"], false), Err(UnknownFlag("--json".into())));
        for bad in ["--quik", "quick", "-q", "--QUICK", "--quick=1", "", "--help"] {
            assert_eq!(parse(&[bad], true), Err(UnknownFlag(bad.into())), "{bad:?}");
            assert_eq!(parse(&["--quick", bad], false), Err(UnknownFlag(bad.into())), "{bad:?}");
        }
        assert_eq!(UnknownFlag("--quik".into()).to_string(), "unknown argument `--quik`");
    }
}

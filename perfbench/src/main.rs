//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--reduced]
//! perfbench --pin --workload <name> [--seed <n>] [--reduced]
//! ```
//!
//! Prints human-readable notes, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 1` it also
//! writes the traced run's spans under `perfbench/out/`. `--pin` prints the
//! fingerprint-table entries of one workload and seed instead of
//! measuring. Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload serve_bounded`.

use mugi_perfbench::{fingerprint, now, paper, serve_spec, Options, Size, Workload, DEFAULT_SEED};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <serve_bounded|serve_disagg|serve_mixed_dp|\
                     paper_pipeline> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--reduced] \
                     [--pin]";

/// What the command line asks for.
enum Mode {
    Measure,
    Pin,
    /// Set up once and exit: the child process a set-up is timed in.
    SetUp,
}

fn parse_args() -> Result<(Options, Mode), String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::ServeBounded,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut mode = Mode::Measure;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--reduced" => opts.size = Size::Reduced,
            "--pin" => mode = Mode::Pin,
            "--set-up" => mode = Mode::SetUp,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, mode))
}

/// Prints the fingerprint-table entries for one workload and seed.
fn pin(opts: &Options) {
    match serve_spec(opts.workload) {
        Some(spec) => {
            let requests = spec.requests_at(opts.size);
            let (pass, _) = mugi_perfbench::serve::timed_pass(&spec, opts.seed, requests);
            let digest = fingerprint::scale_report(&pass.report);
            println!("    (\"{}\", {requests}, {}, {digest:#018x}),", spec.name, opts.seed);
        }
        None => {
            let (preset, name) = paper::preset(opts.size);
            let (tables, _, _) = paper::pass(preset, false);
            for ((driver, _), digest) in paper::DRIVERS.iter().zip(paper::digests(&tables)) {
                println!("    (\"{name}\", \"{driver}\", {digest:#018x}),");
            }
        }
    }
}

/// Times one set-up: a fresh process of this command that sets up the
/// workload and exits, from spawn to exit. Exits the command if the
/// process cannot run, since the run then has no set-up time to report.
fn time_set_up(exe: &Path, opts: &Options) -> Duration {
    let mut command = Command::new(exe);
    command.args(["--set-up", "--workload", opts.workload.name(), "--seed"]);
    command.arg(opts.seed.to_string()).stdout(Stdio::null());
    if opts.size == Size::Reduced {
        command.arg("--reduced");
    }
    let start = now();
    let status = command.status();
    let took = start.elapsed();
    match status {
        Ok(status) if status.success() => took,
        Ok(status) => fail(&format!("a set-up process failed: {status}")),
        Err(e) => fail(&format!("cannot start a set-up process: {e}")),
    }
}

fn fail(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    std::process::exit(1)
}

fn main() -> ExitCode {
    let (opts, mode) = match parse_args() {
        Ok(parsed) => parsed,
        Err(problem) => {
            eprintln!("perfbench: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Pin => {
            pin(&opts);
            return ExitCode::SUCCESS;
        }
        Mode::SetUp => {
            mugi_perfbench::set_up(&opts);
            return ExitCode::SUCCESS;
        }
        Mode::Measure => {}
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("no command path: {e}")));
    let outcome = mugi_perfbench::run(&opts, &mut || time_set_up(&exe, &opts));
    println!("workload {} seed {}", opts.workload.name(), opts.seed);
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in outcome.checks.problems() {
        println!("CHECK FAILED: {problem}");
    }
    if opts.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.tsv", opts.workload.name(), opts.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &outcome.spans)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write spans to {path}: {e}"),
        }
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}

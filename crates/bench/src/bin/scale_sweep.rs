//! Prints `mugi_bench::serving::scale_sweep` (`--quick` for the reduced sweep,
//! `--json` to also write the rows to `BENCH_scale.json`).
fn main() {
    let flags = mugi_bench::flags_from_args(true);
    print!("{}", mugi_bench::serving::scale_sweep(flags.preset, flags.json));
}

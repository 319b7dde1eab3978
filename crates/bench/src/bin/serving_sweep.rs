//! Prints `mugi_bench::serving::serving_sweep` (`--quick` for the reduced sweep).
fn main() {
    print!("{}", mugi_bench::serving::serving_sweep(mugi_bench::preset_from_args()));
}

//! Regenerates Figure 4: nonlinear input exponent concentration.
use mugi::experiments::accuracy::{fig04_profiling, fig04_table};
use mugi_bench::{preset_from_args, print_header};

fn main() {
    let preset = preset_from_args();
    print_header("Figure 4 (input distributions)", preset);
    println!("{}", fig04_table(&fig04_profiling(preset)));
}

//! Runs the ablation and extension studies (the `ablation` row of
//! EXPERIMENTS.md's "Binary → paper artifact" table, and the paper's Section
//! 7.1 discussion items): sliding-window placement, mantissa width, buffer
//! organisation, HBM bandwidth sensitivity and MoE workloads.

use mugi::experiments::ablations::{
    ablation_bandwidth, ablation_bandwidth_table, ablation_buffers, ablation_buffers_table,
    ablation_mantissa, ablation_mantissa_table, ablation_moe, ablation_moe_table, ablation_window,
    ablation_window_table,
};
use mugi_bench::{preset_from_args, print_header};

fn main() {
    let preset = preset_from_args();
    print_header("ablations and extensions", preset);
    println!("{}", ablation_window_table(&ablation_window(preset)));
    println!("{}", ablation_mantissa_table(&ablation_mantissa(preset)));
    println!("{}", ablation_buffers_table(&ablation_buffers(preset)));
    println!("{}", ablation_bandwidth_table(&ablation_bandwidth(preset)));
    println!("{}", ablation_moe_table(&ablation_moe(preset)));
}

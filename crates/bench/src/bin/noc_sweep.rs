//! Multi-node serving sweep: continuous-batching throughput across NoC mesh
//! sizes and placement policies on a fixed two-model workload — the
//! serving-level counterpart of the paper's Section 6.3.3 scaling study and
//! the numbers behind the multi-node section of EXPERIMENTS.md.
//!
//! For every mesh the sweep reports the serving-throughput multiplier over
//! the 1×1 baseline, the latency percentiles, and the NoC transfer energy —
//! nonzero on every real mesh, zero on one node.
//!
//! Run with: `cargo run --release -p mugi-bench --bin noc_sweep`
//! (pass `--quick` for a reduced sweep).

use mugi::arch::noc::NocConfig;
use mugi::report::TextTable;
use mugi::MugiAccelerator;
use mugi_runtime::{
    synthetic_requests, Executor, ExecutorConfig, Placement, PlacementPolicy, Request, Scheduler,
    SchedulerConfig, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

fn run(requests: &[Request], placement: Placement) -> mugi_runtime::RuntimeReport {
    let mut engine = Executor::with_placement(
        MugiAccelerator::new(256),
        Scheduler::new(SchedulerConfig::default()),
        ExecutorConfig::default(),
        placement,
    );
    for r in requests {
        engine.submit(*r);
    }
    engine.run()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let models = [ModelId::Llama2_7b, ModelId::Llama2_70b];
    let count = if quick { 32 } else { 64 };
    let requests = synthetic_requests(7, count, &models, WorkloadSpec::default());
    let meshes: &[NocConfig] = if quick {
        &[NocConfig { rows: 1, cols: 1 }, NocConfig { rows: 4, cols: 4 }]
    } else {
        &[
            NocConfig { rows: 1, cols: 1 },
            NocConfig { rows: 2, cols: 2 },
            NocConfig { rows: 4, cols: 4 },
            NocConfig { rows: 8, cols: 8 },
        ]
    };

    let mut table = TextTable::new(
        format!("NoC serving sweep: {count} requests, Llama 2 7B + 70B, Mugi(256) nodes"),
        &[
            "mesh",
            "placement",
            "nodes",
            "tokens/s",
            "multiplier",
            "TTFT p50 (s)",
            "TPOT p50 (s)",
            "NoC energy (µJ)",
            "mean node util",
        ],
    );
    let frequency_hz = MugiAccelerator::new(256).frequency_hz();
    let baseline = run(&requests, Placement::single_node());
    let mut sharded_4x4_multiplier = 0.0;
    for &mesh in meshes {
        let policies: &[PlacementPolicy] = if mesh.nodes() == 1 {
            &[PlacementPolicy::DataParallel]
        } else {
            &[PlacementPolicy::DataParallel, PlacementPolicy::Sharded]
        };
        for &policy in policies {
            let placement = Placement { noc: mesh, policy };
            let report =
                if mesh.nodes() == 1 { baseline.clone() } else { run(&requests, placement) };
            let multiplier = report.throughput_tokens_per_s / baseline.throughput_tokens_per_s;
            if mesh.nodes() == 16 && policy == PlacementPolicy::Sharded {
                sharded_4x4_multiplier = multiplier;
            }
            let util = report.node_utilization(frequency_hz);
            let mean_util = util.iter().sum::<f64>() / util.len() as f64;
            assert!(
                (mesh.nodes() == 1) == (report.noc_energy_uj == 0.0),
                "NoC transfer energy must be charged exactly on real meshes"
            );
            table.add_row(vec![
                mesh.label(),
                if mesh.nodes() == 1 { "single".to_string() } else { policy.label().to_string() },
                mesh.nodes().to_string(),
                format!("{:.3}", report.throughput_tokens_per_s),
                format!("{multiplier:.2}x"),
                format!("{:.1}", report.ttft.p50),
                format!("{:.2}", report.tpot.p50),
                format!("{:.1}", report.noc_energy_uj),
                format!("{mean_util:.2}"),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "sharded 4x4 serving-throughput multiplier: {sharded_4x4_multiplier:.2}x \
         (NoC model predicts {:.2}x)",
        NocConfig::mesh_4x4().throughput_multiplier()
    );
    assert!(
        sharded_4x4_multiplier >= 12.0,
        "sharded 4x4 placement must deliver near-linear serving scaling, got \
         {sharded_4x4_multiplier:.2}x"
    );
}

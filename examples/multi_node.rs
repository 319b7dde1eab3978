//! Multi-node serving: the same continuous-batching workload on one Mugi
//! node, on a 4×4 mesh with whole micro-batches placed data-parallel across
//! per-node clocks, and on the same mesh with every micro-batch sharded
//! (tiled) across all 16 nodes with inter-node accumulation.
//!
//! Demonstrates the paper's near-linear NoC scaling end to end — serving
//! throughput, not just per-step cycles — and that the NoC transfer model
//! charges activation/accumulation movement as a reported component of
//! per-request energy. Also checks the degenerate case: a sharded 1×1
//! "mesh" is bit-identical to the plain single-node executor.
//!
//! Run with: `cargo run --release --example multi_node`

use mugi::arch::noc::NocConfig;
use mugi_runtime::{
    synthetic_requests, ConfigError, Placement, PlacementPolicy, Request, RuntimeReport, Scenario,
    WorkloadSpec,
};
use mugi_workloads::models::ModelId;

fn serve(requests: &[Request], placement: Placement) -> Result<RuntimeReport, ConfigError> {
    let mut engine = Scenario { placement, ..Scenario::new(256) }.build()?;
    for r in requests {
        engine.submit(*r);
    }
    Ok(engine.run())
}

fn main() -> Result<(), ConfigError> {
    let models = [ModelId::Llama2_7b, ModelId::Llama2_13b, ModelId::Llama2_70b];
    let requests = synthetic_requests(2026, 48, &models, WorkloadSpec::default());
    println!("workload: {} requests across {} models\n", requests.len(), models.len());

    // A 1×1 placement is the single-node executor, bit for bit.
    let single = serve(&requests, Placement::single_node())?;
    let one_by_one = serve(&requests, Placement::sharded(NocConfig::single()))?;
    assert_eq!(single, one_by_one, "1x1 placement must match the single-node executor exactly");
    println!("1x1 placement: bit-identical to the single-node executor");

    let mesh = NocConfig::mesh_4x4();
    let mut sharded_multiplier = 0.0;
    for placement in [Placement::data_parallel(mesh), Placement::sharded(mesh)] {
        let report = serve(&requests, placement)?;
        let multiplier = report.throughput_tokens_per_s / single.throughput_tokens_per_s;
        if placement.policy == PlacementPolicy::Sharded {
            sharded_multiplier = multiplier;
        }
        println!("\n=== {} ===", placement.label());
        println!("{report}");
        println!(
            "throughput multiplier vs single node: {multiplier:.2}x (mesh model bound {:.2}x)",
            mesh.throughput_multiplier()
        );
        assert!(report.noc_energy_uj > 0.0, "a real mesh must charge NoC transfers");
        assert_eq!(report.requests.len(), requests.len(), "every request must finish");
        let noc_share = report.noc_energy_uj
            / (report.noc_energy_uj + report.requests.iter().map(|r| r.energy_uj).sum::<f64>());
        println!(
            "NoC transfer energy: {:.1} µJ ({:.3}% of total)",
            report.noc_energy_uj,
            noc_share * 100.0
        );
    }

    // The sharded mesh is where the paper's near-linear claim shows up at
    // the serving level.
    assert!(
        sharded_multiplier > 12.0,
        "sharded 4x4 should scale near-linearly, got {sharded_multiplier:.2}x"
    );
    Ok(())
}

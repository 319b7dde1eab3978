//! Fingerprint corpus: 64 seeded workloads across every placement family ×
//! KV regime × controller setting, each served twice — pre-submitted through
//! [`Executor::run`] and streamed with Poisson arrivals through
//! [`Executor::run_stream`] — and pinned against a table captured before
//! the serving loop was merged into one. Every float of every report enters
//! its digest via `to_bits`, so any change to the decision order (which
//! batch completes first, whether an arrival lands before a same-cycle
//! completion, what admission control sees) fails a row.
//!
//! A second, hand-built table ([`EDGES`]) pins small workloads that each put
//! one stopping rule of the executor's decode runs in the middle of a run,
//! or on the exact cycle where it starts to bind.
//!
//! Every eighth case bounds the live-session population and every eighth
//! (offset) sets an SLO admission bound: those are the configurations where
//! the instant a request is submitted changes the outcome. Every third case
//! is a near-burst of equal one-model prompts, where batches on different
//! nodes finish at the same cycle and the completion tie-break binds.

mod common;

use common::{fnv, report_digest};
use mugi::arch::noc::NocConfig;
use mugi::MugiAccelerator;
use mugi_runtime::{
    pages_for, synthetic_requests, ControlConfig, Executor, ExecutorConfig, KvConfig, Placement,
    Request, Scheduler, SchedulerConfig, SloConfig, WorkloadSpec, WorkloadStream,
};
use mugi_workloads::models::ModelId;

const MODELS: [ModelId; 2] = [ModelId::Llama2_7b, ModelId::Llama2_13b];
const REQUESTS: usize = 12;
const CASES: usize = 64;
const PAGE_TOKENS: usize = 32;

/// One corpus case: a seeded Poisson workload and the engine it runs on.
struct Case {
    seed: u64,
    models: &'static [ModelId],
    spec: WorkloadSpec,
    kv: KvConfig,
    executor: ExecutorConfig,
    placement: Placement,
}

/// Case `i`: placement cycles fastest, then KV regime, then controller;
/// the arrival rate and admission bound vary independently of all three.
fn case(i: usize) -> Case {
    let seed = 1000 + i as u64;
    // A burst of equal 1024-token prompts fills the 2048-token budget with
    // equal 512-token chunks on two nodes at once; their batches finish at
    // the same cycle, so the completion tie-break decides which completion
    // (and which calibration sample, and which migration) lands first.
    let burst = i.is_multiple_of(3);
    let (models, spec) = if burst {
        let spec = WorkloadSpec { prompt_tokens: (1024, 1024), ..WorkloadSpec::default() };
        (&MODELS[..1], spec.with_poisson_arrivals(1))
    } else {
        let spec = WorkloadSpec { prompt_tokens: (16, 192), ..WorkloadSpec::default() };
        (&MODELS[..], spec.with_poisson_arrivals([400_000_000, 2_000_000_000][i % 3 - 1]))
    };
    let spec = WorkloadSpec { output_tokens: (4, if burst { 24 } else { 48 }), ..spec };
    let noc = NocConfig { rows: 2, cols: 2 };
    let placement = match i % 4 {
        0 => Placement::single_node(),
        1 => Placement::data_parallel(noc),
        2 => Placement::sharded(noc),
        _ => Placement::disaggregated(noc, 2),
    };
    let requests = synthetic_requests(seed, REQUESTS, models, spec);
    let max_need = requests
        .iter()
        .map(|r| pages_for(r.prompt_tokens + r.output_tokens, PAGE_TOKENS))
        .max()
        .unwrap();
    let mut kv = match (i / 4) % 3 {
        0 => KvConfig { page_tokens: PAGE_TOKENS, ..KvConfig::unbounded() },
        1 => KvConfig::bounded(PAGE_TOKENS, max_need + 1 + i % 3),
        _ => KvConfig::bounded(PAGE_TOKENS, max_need + 1 + i % 3).with_swap_preemption(),
    };
    match i % 8 {
        3 => kv = kv.with_max_live_sessions(3),
        // Bursts stay SLO-free here: this bound rejects every burst
        // prompt (1024 tokens project past the target), which the
        // rejected-stream tests in `event_engine.rs` cover, and the rows
        // below were captured with the bursts left ungated.
        6 if !burst => {
            kv.slo = Some(SloConfig {
                target_ttft_cycles: 3_000_000_000,
                cycles_per_prefill_token: 4_000_000,
            })
        }
        _ => {}
    }
    let control = if (i / 12) % 2 == 1 {
        ControlConfig {
            reassign_roles: true,
            load_aware_migration: true,
            calibrate_slo: true,
            min_flip_interval_cycles: 1_000_000,
            min_demand_tokens: 64,
            ..ControlConfig::default()
        }
    } else {
        ControlConfig::default()
    };
    let executor = ExecutorConfig { kv_bucket: PAGE_TOKENS, control, ..ExecutorConfig::default() };
    Case { seed, models, spec, kv, executor, placement }
}

/// One corpus row: `(pre-submitted micro-batches, pre-submitted digest,
/// streamed micro-batches, streamed event pops, streamed peak queue length,
/// streamed digest)`.
type Row = (u64, u64, u64, u64, usize, u64);

fn run_case(c: &Case) -> Row {
    let scheduler = || Scheduler::with_kv(SchedulerConfig::default(), c.kv);
    let mut ex =
        Executor::with_placement(MugiAccelerator::new(64), scheduler(), c.executor, c.placement);
    for r in synthetic_requests(c.seed, REQUESTS, c.models, c.spec) {
        // Rejections are counted in the report, as in the streamed run.
        let _ = ex.try_submit(r);
    }
    let pre = ex.run();
    let mut ev =
        Executor::with_placement(MugiAccelerator::new(64), scheduler(), c.executor, c.placement);
    let streamed = ev.run_stream(WorkloadStream::new(c.seed, c.models, c.spec).take(REQUESTS));
    (
        pre.micro_batches,
        report_digest(&pre),
        streamed.micro_batches,
        ev.queue().pop_count(),
        ev.queue().peak_len(),
        report_digest(&streamed),
    )
}

/// Regeneration helper, not a check: prints the corpus in the layout of
/// [`CORPUS`] (`cargo test -p mugi-runtime --test corpus print_corpus --
/// --ignored --nocapture`). Only a change that is meant to alter the
/// simulation may move a row; audit every moved row before pasting.
#[test]
#[ignore = "corpus regeneration helper; prints, asserts nothing"]
fn print_corpus() {
    for i in 0..CASES {
        let (a, b, c, d, e, f) = run_case(&case(i));
        println!("    ({a}, 0x{b:016x}, {c}, {d}, {e}, 0x{f:016x}),");
    }
}

#[test]
fn serving_loop_matches_the_fingerprint_corpus() {
    assert_eq!(CORPUS.len(), CASES);
    for (i, expected) in CORPUS.iter().enumerate() {
        assert_eq!(run_case(&case(i)), *expected, "corpus case {i} drifted");
    }
}

/// One horizon-edge case: explicit `(model, prompt tokens, output tokens,
/// arrival cycle)` requests on one engine, with 16-token KV pages (128 for
/// the two `serve_mixed_dp`-shaped cases).
struct Edge {
    name: &'static str,
    placement: Placement,
    kv: KvConfig,
    control: ControlConfig,
    requests: &'static [(ModelId, usize, usize, u64)],
}

/// The horizon-edge cases. The first six were picked because dropping or
/// weakening the stopping rule each names changes its row. The last five
/// put a run boundary (a bucket, the horizon, a lagging clock, a page) on
/// an exact step, or make every step of a run price its items differently.
fn edges() -> Vec<Edge> {
    use ModelId::{Llama2_13b as M13, Llama2_70b as M70, Llama2_7b as M7};
    let unbounded = KvConfig { page_tokens: 16, ..KvConfig::unbounded() };
    let dp = |rows, cols| Placement::data_parallel(NocConfig { rows, cols });
    vec![
        // The second request arrives while the first one decodes alone.
        Edge {
            name: "arrival mid-run",
            placement: Placement::single_node(),
            kv: unbounded,
            control: ControlConfig::default(),
            requests: &[(M7, 272, 44, 37_456_727_381), (M7, 1237, 33, 93_717_275_348)],
        },
        // A 13B prefill on one node finishes while a 70B session decodes on
        // the other.
        Edge {
            name: "another node finishes mid-run",
            placement: dp(2, 1),
            kv: unbounded,
            control: ControlConfig::default(),
            requests: &[(M70, 234, 30, 25_251_569_415), (M13, 601, 45, 89_354_282_377)],
        },
        // One bounded node of 12 pages: decode growth crosses page
        // boundaries mid-run, and two of those growths evict the youngest
        // page holder.
        Edge {
            name: "page boundary mid-run",
            placement: Placement::single_node(),
            kv: KvConfig::bounded(16, 12),
            control: ControlConfig::default(),
            requests: &[
                (M7, 65, 30, 2_794_885_226),
                (M7, 94, 39, 19_121_993_536),
                (M7, 64, 24, 52_267_568_024),
            ],
        },
        // Disaggregated 2+2 with swap preemption and the control plane
        // re-rolling node roles while decodes run.
        Edge {
            name: "role flip mid-run",
            placement: Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2),
            kv: KvConfig::bounded(16, 36).with_swap_preemption(),
            control: ControlConfig {
                reassign_roles: true,
                load_aware_migration: true,
                calibrate_slo: true,
                min_flip_interval_cycles: 1_000_000,
                min_demand_tokens: 16,
                ..ControlConfig::default()
            },
            requests: &[
                (M7, 357, 13, 487_012_939),
                (M7, 262, 24, 548_569_797),
                (M7, 454, 18, 569_137_297),
                (M7, 287, 13, 938_959_698),
            ],
        },
        // 2x2 data-parallel: a 13B session decodes on node 1 while a 70B
        // prefill keeps node 0 busy, and nodes 2 and 3 idle at one clock
        // that falls inside the run's second step. From there both lag, so
        // the round's "nothing runnable" branch lands the 70B prefill early
        // (a completion regression). Cut from the `serve_mixed_dp` stream,
        // seed 4242.
        Edge {
            name: "two idle nodes lag behind a run while a third is busy",
            placement: dp(2, 2),
            kv: KvConfig { page_tokens: 128, ..KvConfig::unbounded() },
            control: ControlConfig::default(),
            requests: &[
                (M70, 1827, 58, 0),
                (M70, 1636, 12, 2_343_129_193_085),
                (M13, 671, 12, 2_797_148_374_938),
                (M70, 555, 19, 3_229_169_472_307),
                (M13, 1189, 31, 3_944_854_050_552),
                (M70, 1340, 50, 4_221_424_208_304),
            ],
        },
        // 2x2 data-parallel: lower-index idle nodes whose clocks a run
        // would overtake, so they win the next formation instead.
        Edge {
            name: "lower-index idle node mid-run",
            placement: dp(2, 2),
            kv: unbounded,
            control: ControlConfig::default(),
            requests: &[
                (M13, 677, 23, 8_139_674),
                (M70, 1336, 36, 27_740_023),
                (M70, 1120, 21, 46_492_067),
                (M7, 777, 42, 95_000_660),
            ],
        },
        // One session decodes alone from context 100 to 139: its contexts
        // cross the 112 and 128 KV buckets mid-run, so the run re-prices
        // and its step length changes there.
        Edge {
            name: "re-bucket mid-run",
            placement: Placement::single_node(),
            kv: unbounded,
            control: ControlConfig::default(),
            requests: &[(M7, 100, 40, 0)],
        },
        // The second request arrives exactly at the end of the first
        // session's seventh decode step: the run must stop on that step,
        // not one later.
        Edge {
            name: "step end exactly on the horizon",
            placement: Placement::single_node(),
            kv: unbounded,
            control: ControlConfig::default(),
            requests: &[(M7, 100, 40, 0), (M7, 200, 8, 15_049_975_552)],
        },
        // The "two idle nodes lag" case with the 70B request at index 1
        // arriving 1,477,271,862 cycles later: nodes 2 and 3 go idle at
        // exactly the end of the 13B run's second step, so the run takes
        // that step and stops at the next one. The 70B request's whole
        // timeline shifts rigidly, so the row equals that case's row.
        Edge {
            name: "lagging node clock equal to a step end",
            placement: dp(2, 2),
            kv: KvConfig { page_tokens: 128, ..KvConfig::unbounded() },
            control: ControlConfig::default(),
            requests: &[
                (M70, 1827, 58, 0),
                (M70, 1636, 12, 2_344_606_464_947),
                (M13, 671, 12, 2_797_148_374_938),
                (M70, 555, 19, 3_229_169_472_307),
                (M13, 1189, 31, 3_944_854_050_552),
                (M70, 1340, 50, 4_221_424_208_304),
            ],
        },
        // One bounded node with room to spare: nothing is ever evicted,
        // but each run stops where the next step needs a new page.
        Edge {
            name: "bounded single-pool run stops at a page boundary",
            placement: Placement::single_node(),
            kv: KvConfig::bounded(16, 64),
            control: ControlConfig::default(),
            requests: &[(M7, 100, 40, 0)],
        },
        // Three sessions prefill in one batch and then decode together:
        // every step changes each item's share of the attention energy.
        Edge {
            name: "multi-item run",
            placement: Placement::single_node(),
            kv: unbounded,
            control: ControlConfig::default(),
            requests: &[(M7, 100, 40, 0), (M7, 37, 30, 0), (M7, 250, 45, 0)],
        },
    ]
}

/// One horizon-edge row: `(pre-submitted micro-batches, pre-submitted
/// digest, streamed micro-batches, streamed digest)`. Each digest covers
/// the report plus the event queue's completion and arrival time
/// regressions, the node clocks and the step count.
type EdgeRow = (u64, u64, u64, u64);

fn run_edge(e: &Edge) -> EdgeRow {
    let requests: Vec<Request> = e
        .requests
        .iter()
        .map(|&(model, prompt, output, arrival)| {
            Request::new(model, prompt, output).arriving_at(arrival)
        })
        .collect();
    let executor = ExecutorConfig {
        kv_bucket: e.kv.page_tokens,
        control: e.control,
        ..ExecutorConfig::default()
    };
    let engine = || {
        let scheduler = Scheduler::with_kv(SchedulerConfig::default(), e.kv);
        Executor::with_placement(MugiAccelerator::new(64), scheduler, executor, e.placement)
    };
    let digest = |ex: &Executor, report| {
        let queue = ex.queue();
        let mut words = vec![
            report_digest(report),
            queue.completion_time_regressions(),
            queue.arrival_time_regressions(),
            ex.steps(),
        ];
        words.extend(ex.node_clocks());
        fnv(&words)
    };
    let mut ex = engine();
    for &r in &requests {
        let _ = ex.try_submit(r);
    }
    let pre = ex.run();
    let mut ev = engine();
    let streamed = ev.run_stream(requests);
    (pre.micro_batches, digest(&ex, &pre), streamed.micro_batches, digest(&ev, &streamed))
}

/// Regeneration helper for [`EDGES`], like [`print_corpus`].
#[test]
#[ignore = "corpus regeneration helper; prints, asserts nothing"]
fn print_edges() {
    for e in edges() {
        let (a, b, c, d) = run_edge(&e);
        println!("    ({a}, 0x{b:016x}, {c}, 0x{d:016x}), // {}", e.name);
    }
}

#[test]
fn decode_run_horizon_edges_match_their_rows() {
    let edges = edges();
    assert_eq!(edges.len(), EDGES.len());
    for (e, expected) in edges.iter().zip(EDGES) {
        assert_eq!(run_edge(e), *expected, "horizon-edge case \"{}\" drifted", e.name);
    }
}

#[rustfmt::skip]
const EDGES: &[EdgeRow] = &[
    (71, 0x4f310d2d5eafca03, 71, 0x4f310d2d5eafca03),
    (76, 0x31d265c753e53715, 76, 0x31d265c753e53715),
    (78, 0xec015a7cfd0709cd, 78, 0xec015a7cfd0709cd),
    (64, 0xf1133a8f9d3891f7, 64, 0xf1133a8f9d3891f7),
    (194, 0x4585fbfe72699d62, 194, 0x4585fbfe72699d62),
    (128, 0xd71dcbe9d268b7bf, 128, 0xd71dcbe9d268b7bf),
    (40, 0xd24da1d158c5bba9, 40, 0xd24da1d158c5bba9),
    (40, 0x56debb36ba4f125b, 40, 0x56debb36ba4f125b),
    (194, 0x4585fbfe72699d62, 194, 0x4585fbfe72699d62),
    (40, 0xc80ccdb7cc521629, 40, 0xc80ccdb7cc521629),
    (45, 0xf222abb0dbca3c58, 45, 0xf222abb0dbca3c58),
];

#[rustfmt::skip]
const CORPUS: &[Row] = &[
    (30, 0x075b3a3fc903b1fe, 30, 42, 2, 0x075b3a3fc903b1fe),
    (115, 0x822c20642422966c, 115, 127, 3, 0x822c20642422966c),
    (91, 0x9eae4ea7ddc2fe99, 91, 103, 2, 0x9eae4ea7ddc2fe99),
    (13, 0x8230717e55aa8336, 13, 25, 2, 0x8230717e55aa8336),
    (185, 0x32849c72dbb6efe8, 185, 197, 2, 0x32849c72dbb6efe8),
    (272, 0xaa152ca6b546f088, 272, 284, 5, 0xaa152ca6b546f088),
    (46, 0x2978d3087fcc0e0d, 46, 58, 2, 0x2978d3087fcc0e0d),
    (281, 0xcf374047d33ddcbd, 281, 293, 4, 0xcf374047d33ddcbd),
    (274, 0x509e9520f8bce12f, 274, 286, 2, 0x509e9520f8bce12f),
    (175, 0x0746d6c96f78c4b7, 175, 187, 4, 0x0746d6c96f78c4b7),
    (95, 0x82f542e0b0144f5e, 95, 107, 2, 0x82f542e0b0144f5e),
    (115, 0x2d1537537de25f15, 115, 127, 4, 0x2d1537537de25f15),
    (26, 0x24516246920193b5, 26, 38, 2, 0x24516246920193b5),
    (109, 0x920232cc04c2d7d5, 109, 121, 3, 0x920232cc04c2d7d5),
    (83, 0xa88ed63378f83507, 87, 99, 2, 0x7f6b194da0445d63),
    (87, 0xd9526863f99c91d8, 87, 99, 4, 0xd9526863f99c91d8),
    (203, 0x58711f72f35cb748, 203, 215, 2, 0x58711f72f35cb748),
    (259, 0xf74ae880dd06c380, 259, 271, 4, 0xf74ae880dd06c380),
    (56, 0x9b4016f44ebaeb23, 56, 68, 2, 0x9b4016f44ebaeb23),
    (86, 0x0286cc17587da752, 86, 98, 3, 0x0286cc17587da752),
    (215, 0x4ad0f64e546e7294, 215, 227, 2, 0x4ad0f64e546e7294),
    (172, 0x869e311bb8d1f334, 172, 184, 4, 0x869e311bb8d1f334),
    (77, 0x3e081aa4a5be3d91, 77, 89, 2, 0x3e081aa4a5be3d91),
    (227, 0x1d90c64bb1625391, 227, 239, 4, 0x1d90c64bb1625391),
    (29, 0xb62813ed2c10f474, 29, 41, 2, 0xb62813ed2c10f474),
    (106, 0x222dad5e6586f766, 106, 118, 3, 0x222dad5e6586f766),
    (89, 0xddb0cffe87776e03, 89, 101, 2, 0xddb0cffe87776e03),
    (19, 0x0088e9b565833b12, 19, 31, 2, 0x0088e9b565833b12),
    (232, 0xea875526b71a5e97, 232, 244, 2, 0xea875526b71a5e97),
    (172, 0x7cf5557a1caef552, 172, 184, 4, 0x7cf5557a1caef552),
    (60, 0x81f0b16b5441f33c, 60, 72, 2, 0x81f0b16b5441f33c),
    (256, 0xa00353f2b644bbad, 256, 268, 4, 0xa00353f2b644bbad),
    (213, 0xe4f43ff72d5003cd, 213, 225, 2, 0xe4f43ff72d5003cd),
    (191, 0xcef1b076e3be4a90, 191, 203, 4, 0xcef1b076e3be4a90),
    (94, 0xbff7777d9f796e56, 94, 106, 2, 0xbff7777d9f796e56),
    (54, 0xa0270ac2bcf76570, 95, 107, 4, 0x8007a1988c32ff8f),
    (27, 0x1adf8ad380d3bc37, 27, 39, 2, 0x1adf8ad380d3bc37),
    (133, 0xa5207d32d9a5ea13, 133, 145, 3, 0xa5207d32d9a5ea13),
    (74, 0x4f59585ac926cfd8, 85, 97, 2, 0xc603b839dbf821fa),
    (87, 0xe7f2ef8efc03c695, 87, 99, 4, 0xe7f2ef8efc03c695),
    (303, 0x6978f8792dc6f366, 303, 315, 2, 0x6978f8792dc6f366),
    (300, 0xd52feef1d298b5c0, 300, 312, 4, 0xd52feef1d298b5c0),
    (51, 0x240c1d322047cf2b, 51, 63, 2, 0x240c1d322047cf2b),
    (69, 0xa7fdedc1822b9795, 69, 81, 3, 0xa7fdedc1822b9795),
    (247, 0x68cd0e1eb79f49e7, 247, 259, 2, 0x68cd0e1eb79f49e7),
    (196, 0xf228468b8a0d268c, 196, 208, 4, 0xf228468b8a0d268c),
    (72, 0xf5f31c2dc50b21e1, 72, 84, 2, 0xabc6b663185a1cc6),
    (199, 0x564d26defe17cf0d, 199, 211, 5, 0x564d26defe17cf0d),
    (28, 0x7f21d0af1a2ffcf1, 28, 40, 2, 0x7f21d0af1a2ffcf1),
    (126, 0x763f6c8b20c877ac, 126, 138, 3, 0x763f6c8b20c877ac),
    (92, 0x66db3d97d1649d5e, 92, 104, 2, 0x66db3d97d1649d5e),
    (21, 0x64ebbab6ee29da44, 21, 33, 2, 0x64ebbab6ee29da44),
    (198, 0x0dcafba8851fe187, 198, 210, 2, 0x0dcafba8851fe187),
    (235, 0xac0a057a21ccb8e6, 235, 247, 5, 0xac0a057a21ccb8e6),
    (45, 0xbe2e4811dc2ebbf0, 45, 57, 2, 0xbe2e4811dc2ebbf0),
    (294, 0xdc4c6b6327539d62, 294, 306, 4, 0xdc4c6b6327539d62),
    (184, 0xfd4ca8aad3870a7d, 184, 196, 2, 0xfd4ca8aad3870a7d),
    (211, 0x6e9679eede699bdc, 211, 223, 4, 0x6e9679eede699bdc),
    (126, 0x70e0f2f296f5606e, 126, 138, 2, 0x70e0f2f296f5606e),
    (120, 0xa67a23dc081fc04e, 120, 132, 4, 0xa67a23dc081fc04e),
    (27, 0xfe618c74f19ce732, 27, 39, 2, 0xfe618c74f19ce732),
    (108, 0x61fe63c6e645b089, 108, 120, 3, 0x61fe63c6e645b089),
    (89, 0xc20486b5a6f0d4a3, 89, 101, 2, 0x6ef6deb0231b29be),
    (59, 0xdb34d9058201ae74, 59, 71, 4, 0xdb34d9058201ae74),
];

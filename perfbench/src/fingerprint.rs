//! The correctness gate's reference values: FNV-1a digests of every
//! serving pass's folded report and of every paper driver's rendered
//! table, committed for the pinned seeds and pass sizes.
//!
//! A digest mismatch means the simulated behaviour changed. A change that
//! only speeds up the host must leave every digest as it is; a change that
//! alters the model on purpose regenerates the table with
//! `perfbench --pin --workload <name> --seed <n> [--reduced]`.

use mugi_runtime::ScaleReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over a sequence of words, little-endian.
pub fn digest_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    digest_bytes(&bytes)
}

fn option_words(value: Option<u64>) -> [u64; 2] {
    value.map_or([0, 0], |v| [1, v])
}

/// Digest of a folded serving report: every float by its bits, every
/// counter of the fold, the report and its `KvStats`.
pub fn scale_report(r: &ScaleReport) -> u64 {
    let f = &r.fold;
    let kv = &r.kv;
    let mut words = vec![
        f.requests,
        f.prompt_tokens,
        f.output_tokens,
        f.micro_batches,
        f.energy_uj.to_bits(),
        f.noc_energy_uj.to_bits(),
        f.kv_transfer_bytes,
        f.kv_transfer_energy_uj.to_bits(),
        f.ttft_sum_s.to_bits(),
        f.e2e_sum_s.to_bits(),
        f.max_ttft_s.to_bits(),
        f.identity_checksum,
        r.makespan_s.to_bits(),
        r.throughput_tokens_per_s.to_bits(),
        r.micro_batches,
        r.nodes as u64,
        r.peak_live_sessions as u64,
        r.peak_event_queue as u64,
        kv.page_tokens as u64,
        kv.peak_used_pages,
        kv.preemptions,
        kv.reprefill_tokens,
        kv.evicted_pages,
        kv.rejected_requests,
        kv.fault_stall_cycles,
        kv.migrations,
        kv.migrated_pages,
        kv.swap_outs,
        kv.swapped_pages,
        kv.transfer_bytes,
        kv.transfer_energy_uj.to_bits(),
        kv.transfer_stall_cycles,
        kv.role_rerolls,
        kv.calibration_samples,
    ];
    words.extend(option_words(kv.capacity_pages));
    words.extend(option_words(kv.calibrated_cycles_per_prefill_token));
    digest_words(&words)
}

/// The committed digest of a serving workload's pass of `requests`
/// requests at `seed`, if that point is pinned.
pub fn pinned_serve(workload: &str, requests: usize, seed: u64) -> Option<u64> {
    SERVE.iter().find(|p| p.0 == workload && p.1 == requests && p.2 == seed).map(|p| p.3)
}

/// The committed digest of a paper driver's rendered table under a preset
/// (`"full"` or `"quick"`).
pub fn pinned_paper(preset: &str, driver: &str) -> Option<u64> {
    PAPER.iter().find(|p| p.0 == preset && p.1 == driver).map(|p| p.2)
}

/// `(workload, requests per pass, seed, digest)`.
const SERVE: &[(&str, usize, u64, u64)] = &[
    ("serve_bounded", 200000, 0, 0x7ba453bc67588c05),
    ("serve_bounded", 200000, 1, 0x9b1e7a0ab8b0d536),
    ("serve_bounded", 200000, 2, 0xa12a4e590849bccf),
    ("serve_bounded", 200000, 3, 0xe0be73d1c8944437),
    ("serve_bounded", 200000, 4, 0x8743a20fa200dd19),
    ("serve_bounded", 200000, 5, 0xedfbc2ade44a9521),
    ("serve_bounded", 200000, 6, 0x9fe81ce853aba236),
    ("serve_bounded", 200000, 7, 0x8aae3e1ec359fb1f),
    ("serve_bounded", 200000, 8, 0x5f7fb51aa22d0d43),
    ("serve_bounded", 200000, 9, 0xf844afaa36b9e079),
    ("serve_bounded", 200000, 10, 0xb61296e0b69d8511),
    ("serve_bounded", 200000, 11, 0xd3c6a52984f0447f),
    ("serve_bounded", 200000, 12, 0x74894efd5ae5f7ac),
    ("serve_bounded", 200000, 13, 0xa60bfd3eb541098b),
    ("serve_bounded", 200000, 14, 0x583679eb30380fb1),
    ("serve_bounded", 200000, 15, 0x88e3f7db3967e701),
    ("serve_bounded", 200000, 16, 0x27c614e1658a8e11),
    ("serve_bounded", 200000, 17, 0xb5b130e2ba2df419),
    ("serve_bounded", 200000, 18, 0xd307a04c031ac51a),
    ("serve_bounded", 200000, 19, 0xfbabde4e78426172),
    ("serve_bounded", 200000, 20, 0x200bdf2658fe99ed),
    ("serve_bounded", 200000, 21, 0x67c534d458000079),
    ("serve_bounded", 200000, 22, 0xe7aa0e03962a2e41),
    ("serve_bounded", 200000, 23, 0x568a4c943b6ee4d4),
    ("serve_bounded", 200000, 24, 0x6057bab9d3f7c98f),
    ("serve_bounded", 200000, 25, 0xc601fd4e2532e438),
    ("serve_bounded", 200000, 26, 0xab70777ddd97cc73),
    ("serve_bounded", 200000, 27, 0x572103d1ec70a31d),
    ("serve_bounded", 200000, 28, 0x2353974b8bda011b),
    ("serve_bounded", 200000, 29, 0x301fe63601cae301),
    ("serve_bounded", 200000, 30, 0x0b676e202195e793),
    ("serve_bounded", 200000, 31, 0x0e39f46151e8872e),
    ("serve_bounded", 200000, 4242, 0xa20b48a3d61fd417),
    ("serve_bounded", 2000, 4242, 0x27d7313a2d79516c),
    ("serve_disagg", 60000, 0, 0x5e60f2915564bcde),
    ("serve_disagg", 60000, 1, 0xc98db79ac49dd5c1),
    ("serve_disagg", 60000, 2, 0x465a6d977ce8c2f6),
    ("serve_disagg", 60000, 3, 0x21d1b347393dc4db),
    ("serve_disagg", 60000, 4, 0x616125ac7f79400a),
    ("serve_disagg", 60000, 5, 0xe7edd86a4fa7885e),
    ("serve_disagg", 60000, 6, 0x34d2c87992f03d20),
    ("serve_disagg", 60000, 7, 0x0b069c70dabe546e),
    ("serve_disagg", 60000, 8, 0x9495d2c95602a2b8),
    ("serve_disagg", 60000, 9, 0x18ebf0366534bdeb),
    ("serve_disagg", 60000, 10, 0x387ceb51de94ae31),
    ("serve_disagg", 60000, 11, 0x751526bc604a1aae),
    ("serve_disagg", 60000, 12, 0x1bf8f0ec1550be2e),
    ("serve_disagg", 60000, 13, 0x098bc1a559e94f3d),
    ("serve_disagg", 60000, 14, 0xc405499e13353f86),
    ("serve_disagg", 60000, 15, 0x23db63e115fa8e87),
    ("serve_disagg", 60000, 16, 0x4ea473d772b857f4),
    ("serve_disagg", 60000, 17, 0x55b60836781d7585),
    ("serve_disagg", 60000, 18, 0x611d325037cfc23a),
    ("serve_disagg", 60000, 19, 0x2436d9e95897ad6b),
    ("serve_disagg", 60000, 20, 0xa08b4fb6a28c6245),
    ("serve_disagg", 60000, 21, 0x45d6a2b4e9e8ab56),
    ("serve_disagg", 60000, 22, 0x12da24af8c3027ee),
    ("serve_disagg", 60000, 23, 0x824b5f51786daaaf),
    ("serve_disagg", 60000, 24, 0xcf0ae4025d2eab61),
    ("serve_disagg", 60000, 25, 0x374a0565de4fb51c),
    ("serve_disagg", 60000, 26, 0x4daa317288e16a9f),
    ("serve_disagg", 60000, 27, 0x54a28bfb81e3f427),
    ("serve_disagg", 60000, 28, 0x59ba0d0f18cb0187),
    ("serve_disagg", 60000, 29, 0xab1f3d4abb8b289b),
    ("serve_disagg", 60000, 30, 0x9b8c4c2cd153a42b),
    ("serve_disagg", 60000, 31, 0x013fcc677b62627f),
    ("serve_disagg", 60000, 4242, 0x98e2c44e3f1c3e4f),
    ("serve_disagg", 1000, 4242, 0x31dc58c963edc323),
    ("serve_mixed_dp", 30000, 0, 0x86560d2466edca32),
    ("serve_mixed_dp", 30000, 1, 0x77b821337436dba8),
    ("serve_mixed_dp", 30000, 2, 0x95d7c2051c3d9cdc),
    ("serve_mixed_dp", 30000, 3, 0xa0f3342ce59f1166),
    ("serve_mixed_dp", 30000, 4, 0x1240a718637b320d),
    ("serve_mixed_dp", 30000, 5, 0x7b7e3fecfca4ead2),
    ("serve_mixed_dp", 30000, 6, 0xe0fa96070514df61),
    ("serve_mixed_dp", 30000, 7, 0xfc2951be60ef7717),
    ("serve_mixed_dp", 30000, 8, 0x4999a75f2ff5d1cd),
    ("serve_mixed_dp", 30000, 9, 0x3469d92ea0823f29),
    ("serve_mixed_dp", 30000, 10, 0xf2740c1d94d6939f),
    ("serve_mixed_dp", 30000, 11, 0x967f221847910c1e),
    ("serve_mixed_dp", 30000, 12, 0x816239b0145b5b38),
    ("serve_mixed_dp", 30000, 13, 0x92a5ff01636f5b3f),
    ("serve_mixed_dp", 30000, 14, 0xca210863c2af3916),
    ("serve_mixed_dp", 30000, 15, 0x1384e85bc063d1af),
    ("serve_mixed_dp", 30000, 16, 0xb33c0d98671c5ce8),
    ("serve_mixed_dp", 30000, 17, 0xcea672ebd3c840fa),
    ("serve_mixed_dp", 30000, 18, 0x95c1566394e04085),
    ("serve_mixed_dp", 30000, 19, 0x3317125e9cafcf14),
    ("serve_mixed_dp", 30000, 20, 0x1b770867a62ea949),
    ("serve_mixed_dp", 30000, 21, 0x2be0b075f11a2ba2),
    ("serve_mixed_dp", 30000, 22, 0x580d584a7e73ae21),
    ("serve_mixed_dp", 30000, 23, 0xea53a787705465a1),
    ("serve_mixed_dp", 30000, 24, 0x2ea531eb1bc5b1d1),
    ("serve_mixed_dp", 30000, 25, 0xcbb24eb51bc89b2a),
    ("serve_mixed_dp", 30000, 26, 0x5f05d57a1361b9b0),
    ("serve_mixed_dp", 30000, 27, 0x3ebd62ee04fc5368),
    ("serve_mixed_dp", 30000, 28, 0x33cf99b2a773914d),
    ("serve_mixed_dp", 30000, 29, 0x2ca1475d6326ab81),
    ("serve_mixed_dp", 30000, 30, 0xd807fe7abcbaa852),
    ("serve_mixed_dp", 30000, 31, 0x3bdda96a97774026),
    ("serve_mixed_dp", 30000, 4242, 0x6530d399107a557f),
    ("serve_mixed_dp", 500, 4242, 0xa8b0532ad0440b41),
];

/// `(preset, driver, digest of the rendered table)`.
const PAPER: &[(&str, &str, u64)] = &[
    ("full", "fig04", 0xe4b88c1cc4ee85fc),
    ("full", "fig06", 0xa3befe873262d06d),
    ("full", "fig07", 0xd726c9045cc87484),
    ("full", "fig08", 0x6559d358e543e431),
    ("full", "fig11", 0x189196f1df65f224),
    ("full", "fig12", 0xee70e7ab58dafcfa),
    ("full", "table3", 0xdf5463abe7e2b93c),
    ("full", "fig13", 0x1066c0a4c943e579),
    ("full", "fig14", 0x1bb745192f328194),
    ("full", "fig15", 0x8c4881321eb13799),
    ("full", "fig16", 0x8f5a6d03bbad6dd1),
    ("full", "fig17", 0x6e2b1771a9242ac4),
    ("quick", "fig04", 0xa64b556c3d02ccb6),
    ("quick", "fig06", 0xa32d3aaa057679d9),
    ("quick", "fig07", 0x270d575af0ddb992),
    ("quick", "fig08", 0x47d62797b0b7bb7f),
    ("quick", "fig11", 0xbbee7d9682696e89),
    ("quick", "fig12", 0x3925fee21b5b1c56),
    ("quick", "table3", 0x08700331d9b28928),
    ("quick", "fig13", 0x1066c0a4c943e579),
    ("quick", "fig14", 0xb04a68d161ed6c03),
    ("quick", "fig15", 0x388b6630887242e6),
    ("quick", "fig16", 0x09705c917e9c8b69),
    ("quick", "fig17", 0x40b97aedafaff041),
];

//! Per-request and aggregate serving statistics: TTFT, TPOT, throughput and
//! their percentiles, plus a human-readable report table.

use crate::request::RequestId;
use mugi_numerics::cast::{u64_from_usize, usize_from_f64};
use mugi_workloads::models::ModelId;
use std::fmt;

/// Latency and efficiency statistics of one finished request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestStats {
    /// Request identifier.
    pub id: RequestId,
    /// Model the request ran on.
    pub model: ModelId,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Generated output length in tokens.
    pub output_tokens: usize,
    /// Time to first token in seconds (arrival → first token).
    pub ttft_s: f64,
    /// Time per output token in seconds (first → last token, averaged over
    /// the decode steps; zero for single-token outputs).
    pub tpot_s: f64,
    /// End-to-end latency in seconds (arrival → last token).
    pub e2e_s: f64,
    /// Output tokens per second of end-to-end latency.
    pub tokens_per_s: f64,
    /// Compute energy attributed to this request in µJ: its share of every
    /// micro-batch it participated in, split by token count — except the
    /// attention energy, which is weighted by attended KV as well.
    pub energy_uj: f64,
    /// NoC transfer energy attributed to this request in µJ (inter-node
    /// activation / accumulation movement; zero on a single node).
    pub noc_energy_uj: f64,
    /// KV-cache bytes this request's pages moved over the NoC (prefill→
    /// decode handoffs, swap-outs and swap-ins under disaggregated
    /// placement; zero under colocated placement).
    pub kv_transfer_bytes: u64,
    /// NoC energy of those KV transfers in µJ.
    pub kv_transfer_energy_uj: f64,
    /// Micro-batches the request participated in.
    pub micro_batches: u64,
}

/// p50/p95/p99 of a latency population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes percentiles over `values` (need not be sorted). Returns the
    /// default (all zero) for an empty slice.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Percentiles::default();
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Percentiles {
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
        }
    }
}

/// Nearest-rank percentile over a sorted slice: the smallest value with at
/// least `p` percent of the population at or below it, i.e. element
/// `⌈p/100 · n⌉` (1-indexed) — the textbook nearest-rank definition. No
/// interpolation: the result is always a member of the population.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = usize_from_f64((p / 100.0 * sorted.len() as f64).ceil());
    sorted.get(rank.max(1) - 1).copied().unwrap_or_default()
}

/// Paged-KV statistics of one serving run: how full the pool ran and what
/// the pressure cost. All zeros (and `capacity_pages == None`) under an
/// unbounded pool.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KvStats {
    /// KV entries per page.
    pub page_tokens: usize,
    /// Total page capacity across all node pools (`None` = unbounded).
    pub capacity_pages: Option<u64>,
    /// High-water mark of mapped pages across the run.
    pub peak_used_pages: u64,
    /// Sessions evicted from a full pool (each re-entered the waiting queue
    /// and re-prefilled its KV).
    pub preemptions: u64,
    /// KV entries dropped by evictions and prefilled a second time — the
    /// recompute cost of preemption, in tokens.
    pub reprefill_tokens: u64,
    /// Pages released by evictions.
    pub evicted_pages: u64,
    /// Submissions rejected by admission control (queue depth bound, a
    /// request that could never fit the pool, or a projected-TTFT SLO
    /// violation).
    pub rejected_requests: u64,
    /// Page-fault stall cycles charged by the executor for evictions.
    pub fault_stall_cycles: u64,
    /// KV-page migrations between pools (prefill→decode handoffs plus
    /// swap-ins); zero under colocated placement.
    pub migrations: u64,
    /// Pages moved by those migrations.
    pub migrated_pages: u64,
    /// Sessions paged out of a decode pool under swap-style preemption.
    pub swap_outs: u64,
    /// Pages moved by those swap-outs.
    pub swapped_pages: u64,
    /// KV bytes moved over the NoC by migrations and swaps.
    pub transfer_bytes: u64,
    /// NoC energy of those KV transfers in µJ.
    pub transfer_energy_uj: f64,
    /// Stall cycles spent streaming KV transfers (receiving-node stalls for
    /// migrations and swap-ins, batch stalls for swap-outs).
    pub transfer_stall_cycles: u64,
    /// Node role re-rolls completed by the adaptive control plane (zero
    /// with the controller off — the default — or colocated placement).
    pub role_rerolls: u64,
    /// Prefill slices observed by the online SLO calibrator (zero with
    /// calibration off).
    pub calibration_samples: u64,
    /// The calibrated cycles-per-prefill-token admission rate, once warmed
    /// up (`None` with calibration off or still warming).
    pub calibrated_cycles_per_prefill_token: Option<u64>,
}

impl KvStats {
    /// Peak pool occupancy in `[0, 1]`, or `None` for an unbounded pool.
    pub fn peak_occupancy(&self) -> Option<f64> {
        self.capacity_pages.map(|cap| {
            if cap > 0 {
                self.peak_used_pages as f64 / cap as f64
            } else {
                0.0
            }
        })
    }
}

/// The aggregate outcome of one serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeReport {
    /// Per-request statistics in submission order.
    pub requests: Vec<RequestStats>,
    /// Simulated wall-clock of the whole run in seconds.
    pub makespan_s: f64,
    /// Total output tokens generated.
    pub total_output_tokens: u64,
    /// Output tokens per second of makespan (the serving throughput).
    pub throughput_tokens_per_s: f64,
    /// Micro-batches executed.
    pub micro_batches: u64,
    /// Time-to-first-token percentiles in seconds.
    pub ttft: Percentiles,
    /// Time-per-output-token percentiles in seconds (multi-token requests).
    pub tpot: Percentiles,
    /// Accelerator nodes the run executed on (1 for the single-node
    /// executor).
    pub nodes: usize,
    /// Mesh label such as `1x1` or `4x4`.
    pub noc: String,
    /// Total NoC transfer energy in µJ across the run (zero on one node).
    pub noc_energy_uj: f64,
    /// Cycles each node spent executing micro-batches (never exceeds the
    /// makespan).
    pub node_busy_cycles: Vec<u64>,
    /// Paged KV-cache statistics (occupancy, preemptions, rejections).
    pub kv: KvStats,
}

impl RuntimeReport {
    /// Statistics restricted to one model.
    pub fn for_model(&self, model: ModelId) -> Vec<&RequestStats> {
        self.requests.iter().filter(|r| r.model == model).collect()
    }
}

impl RuntimeReport {
    /// Per-node utilization: busy cycles over the makespan (all zero for an
    /// empty run).
    pub fn node_utilization(&self, frequency_hz: f64) -> Vec<f64> {
        let makespan_cycles = self.makespan_s * frequency_hz;
        self.node_busy_cycles
            .iter()
            .map(|&b| if makespan_cycles > 0.0 { b as f64 / makespan_cycles } else { 0.0 })
            .collect()
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} requests, {} tokens in {:.1} s simulated — {:.2} tokens/s over {} micro-batches \
             on {} node(s) ({} mesh, NoC energy {:.3} µJ)",
            self.requests.len(),
            self.total_output_tokens,
            self.makespan_s,
            self.throughput_tokens_per_s,
            self.micro_batches,
            self.nodes,
            self.noc,
            self.noc_energy_uj,
        )?;
        writeln!(
            f,
            "TTFT p50/p95/p99: {:.1}/{:.1}/{:.1} s   TPOT p50/p95/p99: {:.2}/{:.2}/{:.2} s",
            self.ttft.p50,
            self.ttft.p95,
            self.ttft.p99,
            self.tpot.p50,
            self.tpot.p95,
            self.tpot.p99,
        )?;
        match self.kv.capacity_pages {
            None => write!(f, "KV pool: unbounded ({}-token pages)", self.kv.page_tokens),
            Some(capacity) => write!(
                f,
                "KV pool: peak {}/{} pages ({}-token), {} preemptions ({} re-prefill tokens, \
                 {} stall cycles), {} rejected",
                self.kv.peak_used_pages,
                capacity,
                self.kv.page_tokens,
                self.kv.preemptions,
                self.kv.reprefill_tokens,
                self.kv.fault_stall_cycles,
                self.kv.rejected_requests,
            ),
        }?;
        if self.kv.migrations > 0 || self.kv.swap_outs > 0 {
            write!(
                f,
                "\nKV transfers: {} migrations ({} pages), {} swap-outs ({} pages), {} B over \
                 the NoC ({:.3} µJ, {} stall cycles)",
                self.kv.migrations,
                self.kv.migrated_pages,
                self.kv.swap_outs,
                self.kv.swapped_pages,
                self.kv.transfer_bytes,
                self.kv.transfer_energy_uj,
                self.kv.transfer_stall_cycles,
            )?;
        }
        Ok(())
    }
}

/// Incrementally folded per-request statistics: the O(1)-memory counterpart
/// of [`RuntimeReport::requests`]. A folded run
/// ([`Executor::run_stream_folded`](crate::Executor::run_stream_folded))
/// folds each session's [`RequestStats`] in here the moment it retires, so serving a million
/// requests costs the memory of the fold, not of a million stat records.
///
/// Floating-point sums accumulate in retirement (= id) order — the same
/// order a full report would sum them in — so a folded total and a
/// report-derived total agree bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsFold {
    /// Requests folded so far.
    pub requests: u64,
    /// Total prompt tokens.
    pub prompt_tokens: u64,
    /// Total generated tokens.
    pub output_tokens: u64,
    /// Total micro-batch participations.
    pub micro_batches: u64,
    /// Summed compute energy in µJ.
    pub energy_uj: f64,
    /// Summed NoC transfer energy in µJ.
    pub noc_energy_uj: f64,
    /// Summed KV bytes moved over the NoC.
    pub kv_transfer_bytes: u64,
    /// Summed KV-transfer energy in µJ.
    pub kv_transfer_energy_uj: f64,
    /// Summed time-to-first-token in seconds (divide by `requests` for the
    /// mean; percentiles need the full population and are deliberately not
    /// offered here).
    pub ttft_sum_s: f64,
    /// Summed end-to-end latency in seconds.
    pub e2e_sum_s: f64,
    /// Worst time-to-first-token seen.
    pub max_ttft_s: f64,
    /// Order-sensitive FNV-1a checksum over each folded request's identity
    /// `(id, prompt_tokens, output_tokens)`. Independently computable from
    /// the request stream alone ([`StatsFold::identity_checksum_of`]), so a
    /// soak run can prove every generated request retired exactly once,
    /// intact and in order, without storing any of them.
    pub identity_checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl StatsFold {
    /// Folds one retired request in. Must be called in id order for the
    /// floating-point sums and the checksum to be reproducible.
    pub fn add(&mut self, s: &RequestStats) {
        self.requests += 1;
        self.prompt_tokens += s.prompt_tokens as u64;
        self.output_tokens += s.output_tokens as u64;
        self.micro_batches += s.micro_batches;
        self.energy_uj += s.energy_uj;
        self.noc_energy_uj += s.noc_energy_uj;
        self.kv_transfer_bytes += s.kv_transfer_bytes;
        self.kv_transfer_energy_uj += s.kv_transfer_energy_uj;
        self.ttft_sum_s += s.ttft_s;
        self.e2e_sum_s += s.e2e_s;
        self.max_ttft_s = self.max_ttft_s.max(s.ttft_s);
        self.identity_checksum =
            Self::fold_identity(self.identity_checksum, s.id.0, s.prompt_tokens, s.output_tokens);
    }

    /// Folds one request identity into a running checksum (zero seeds a
    /// fresh chain with the FNV offset basis).
    pub fn fold_identity(
        checksum: u64,
        id: u64,
        prompt_tokens: usize,
        output_tokens: usize,
    ) -> u64 {
        let hash = if checksum == 0 { FNV_OFFSET } else { checksum };
        let hash = fnv_fold(hash, id);
        let hash = fnv_fold(hash, prompt_tokens as u64);
        fnv_fold(hash, output_tokens as u64)
    }

    /// The identity checksum a run over `requests` (in submission order,
    /// ids assigned densely from `first_id`) must end with.
    pub fn identity_checksum_of<'a, I>(first_id: u64, requests: I) -> u64
    where
        I: IntoIterator<Item = &'a crate::request::Request>,
    {
        let mut checksum = 0;
        for (i, r) in requests.into_iter().enumerate() {
            checksum = Self::fold_identity(
                checksum,
                first_id + u64_from_usize(i),
                r.prompt_tokens,
                r.output_tokens,
            );
        }
        checksum
    }

    /// Folds a full report's per-request statistics (in their stored order)
    /// — what an incremental run must reproduce exactly.
    pub fn of_report(report: &RuntimeReport) -> Self {
        let mut fold = StatsFold::default();
        for r in &report.requests {
            fold.add(r);
        }
        fold
    }
}

/// The aggregate outcome of a million-request-scale serving run: everything
/// [`RuntimeReport`] carries except the per-request population (and with it
/// the percentiles), so the report itself is O(1) however long the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleReport {
    /// Folded per-request statistics.
    pub fold: StatsFold,
    /// Simulated wall-clock of the whole run in seconds.
    pub makespan_s: f64,
    /// Output tokens per second of makespan.
    pub throughput_tokens_per_s: f64,
    /// Micro-batches executed.
    pub micro_batches: u64,
    /// Accelerator nodes the run executed on.
    pub nodes: usize,
    /// High-water mark of the live (unretired) session population — what
    /// the engine's memory scales with.
    pub peak_live_sessions: usize,
    /// High-water mark of the event queue (in-flight completions plus the
    /// one staged arrival).
    pub peak_event_queue: usize,
    /// Paged KV-cache statistics.
    pub kv: KvStats,
}

impl fmt::Display for ScaleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} requests, {} tokens in {:.1} s simulated — {:.2} tokens/s over {} micro-batches \
             on {} node(s)",
            self.fold.requests,
            self.fold.output_tokens,
            self.makespan_s,
            self.throughput_tokens_per_s,
            self.micro_batches,
            self.nodes,
        )?;
        write!(
            f,
            "mean TTFT {:.4} s (max {:.4}), mean E2E {:.4} s, peak {} live sessions, peak {} \
             queued events",
            if self.fold.requests > 0 {
                self.fold.ttft_sum_s / self.fold.requests as f64
            } else {
                0.0
            },
            self.fold.max_ttft_s,
            if self.fold.requests > 0 {
                self.fold.e2e_sum_s / self.fold.requests as f64
            } else {
                0.0
            },
            self.peak_live_sessions,
            self.peak_event_queue,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_uniform_population() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::of(&values);
        assert_eq!(p.p50, 50.0); // nearest rank: ⌈0.50 · 100⌉ = 50th value
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
    }

    #[test]
    fn nearest_rank_is_pinned_at_small_populations() {
        // Regression for the interpolated-index bug: nearest-rank must pick
        // element ⌈p/100 · n⌉ (1-indexed), never an interpolated neighbour.
        // n = 1: every percentile is the only value.
        let p = Percentiles::of(&[7.0]);
        assert_eq!((p.p50, p.p95, p.p99), (7.0, 7.0, 7.0));
        // n = 2: p50 → ⌈1.0⌉ = 1st, p95/p99 → ⌈1.9⌉/⌈1.98⌉ = 2nd.
        let p = Percentiles::of(&[1.0, 2.0]);
        assert_eq!((p.p50, p.p95, p.p99), (1.0, 2.0, 2.0));
        // n = 3: p50 → ⌈1.5⌉ = 2nd, p95/p99 → ⌈2.85⌉/⌈2.97⌉ = 3rd. The
        // old rounded interpolation agreed here on p50 but reached the 3rd
        // value via round(0.95·2) = 2 only by accident of rounding.
        let p = Percentiles::of(&[1.0, 2.0, 3.0]);
        assert_eq!((p.p50, p.p95, p.p99), (2.0, 3.0, 3.0));
        // n = 100: p50 → 50th, p95 → 95th, p99 → 99th. The old
        // interpolation reported the 51st for p50.
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::of(&values);
        assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
        // Order-independence: percentiles sort internally.
        let mut shuffled: Vec<f64> = values.clone();
        shuffled.reverse();
        assert_eq!(Percentiles::of(&shuffled), p);
    }

    #[test]
    fn percentiles_of_empty_and_singleton() {
        assert_eq!(Percentiles::of(&[]), Percentiles::default());
        let p = Percentiles::of(&[2.5]);
        assert_eq!((p.p50, p.p95, p.p99), (2.5, 2.5, 2.5));
    }

    #[test]
    fn report_display_mentions_throughput_and_percentiles() {
        let report = RuntimeReport {
            requests: vec![],
            makespan_s: 0.5,
            total_output_tokens: 1000,
            throughput_tokens_per_s: 2000.0,
            micro_batches: 42,
            ttft: Percentiles { p50: 0.001, p95: 0.002, p99: 0.003 },
            tpot: Percentiles { p50: 0.0001, p95: 0.0002, p99: 0.0003 },
            nodes: 16,
            noc: "4x4".to_string(),
            noc_energy_uj: 1.5,
            node_busy_cycles: vec![100_000_000; 16],
            kv: KvStats::default(),
        };
        let text = report.to_string();
        assert!(text.contains("2000.00 tokens/s"));
        assert!(text.contains("TTFT"));
        assert!(text.contains("42 micro-batches"));
        assert!(text.contains("16 node(s)"));
        assert!(text.contains("4x4 mesh"));
        assert!(text.contains("KV pool: unbounded"));
        // Utilization: 1e8 busy cycles of a 0.5 s makespan at 400 MHz = 0.5.
        let util = report.node_utilization(400e6);
        assert_eq!(util.len(), 16);
        assert!(util.iter().all(|&u| (u - 0.5).abs() < 1e-9), "{util:?}");
        // A bounded pool renders its pressure counters.
        let mut pressured = report.clone();
        pressured.kv = KvStats {
            page_tokens: 128,
            capacity_pages: Some(256),
            peak_used_pages: 192,
            preemptions: 3,
            reprefill_tokens: 980,
            evicted_pages: 12,
            rejected_requests: 2,
            fault_stall_cycles: 3072,
            ..KvStats::default()
        };
        let text = pressured.to_string();
        assert!(text.contains("peak 192/256 pages"));
        assert!(text.contains("3 preemptions"));
        assert!(text.contains("980 re-prefill tokens"));
        assert!(text.contains("2 rejected"));
        assert_eq!(pressured.kv.peak_occupancy(), Some(0.75));
        assert_eq!(KvStats::default().peak_occupancy(), None);
    }

    fn stat(id: u64, prompt: usize, output: usize) -> RequestStats {
        RequestStats {
            id: RequestId(id),
            model: ModelId::Llama2_7b,
            prompt_tokens: prompt,
            output_tokens: output,
            ttft_s: 0.001 * (id + 1) as f64,
            tpot_s: 0.0001,
            e2e_s: 0.01 * (id + 1) as f64,
            tokens_per_s: 100.0,
            energy_uj: 1.5,
            noc_energy_uj: 0.25,
            kv_transfer_bytes: 64,
            kv_transfer_energy_uj: 0.125,
            micro_batches: 3,
        }
    }

    #[test]
    fn stats_fold_accumulates_and_checksums_in_order() {
        let stats: Vec<RequestStats> = (0..5).map(|i| stat(i, 100 + i as usize, 10)).collect();
        let mut fold = StatsFold::default();
        for s in &stats {
            fold.add(s);
        }
        assert_eq!(fold.requests, 5);
        assert_eq!(fold.prompt_tokens, 100 + 101 + 102 + 103 + 104);
        assert_eq!(fold.output_tokens, 50);
        assert_eq!(fold.micro_batches, 15);
        assert_eq!(fold.kv_transfer_bytes, 320);
        assert_eq!(fold.max_ttft_s, 0.005);
        // The identity checksum is order-sensitive and matches the
        // stream-side computation.
        let requests: Vec<crate::request::Request> = stats
            .iter()
            .map(|s| crate::request::Request::new(s.model, s.prompt_tokens, s.output_tokens))
            .collect();
        assert_eq!(fold.identity_checksum, StatsFold::identity_checksum_of(0, &requests));
        let mut reversed = StatsFold::default();
        for s in stats.iter().rev() {
            reversed.add(s);
        }
        assert_ne!(reversed.identity_checksum, fold.identity_checksum);
        // Folding a report's request population reproduces the same fold.
        let report = RuntimeReport {
            requests: stats,
            makespan_s: 1.0,
            total_output_tokens: 50,
            throughput_tokens_per_s: 50.0,
            micro_batches: 15,
            ttft: Percentiles::default(),
            tpot: Percentiles::default(),
            nodes: 1,
            noc: "1x1".to_string(),
            noc_energy_uj: 1.25,
            node_busy_cycles: vec![0],
            kv: KvStats::default(),
        };
        assert_eq!(StatsFold::of_report(&report), fold);
    }

    #[test]
    fn scale_report_displays_totals() {
        let mut fold = StatsFold::default();
        fold.add(&stat(0, 128, 16));
        let report = ScaleReport {
            fold,
            makespan_s: 2.0,
            throughput_tokens_per_s: 8.0,
            micro_batches: 3,
            nodes: 4,
            peak_live_sessions: 1,
            peak_event_queue: 2,
            kv: KvStats::default(),
        };
        let text = report.to_string();
        assert!(text.contains("1 requests"));
        assert!(text.contains("16 tokens"));
        assert!(text.contains("peak 1 live sessions"));
    }
}

//! Multi-node placement: how scheduler micro-batches map onto a NoC mesh.
//!
//! The paper's multi-node story (Section 4.2 / 6.3.3) connects Mugi nodes by
//! a 2-D mesh with three physical channels and tiles GEMMs across them with
//! an output-stationary dataflow. The serving runtime exposes that as two
//! placement policies:
//!
//! * [`PlacementPolicy::DataParallel`] — every micro-batch runs whole on the
//!   least-loaded node. Nodes execute independent micro-batches
//!   concurrently (per-node clocks), so throughput scales with the number of
//!   *independent* batches the scheduler can form; the NoC charges transfer
//!   energy for shipping each batch's token activations to its node and the
//!   results back.
//! * [`PlacementPolicy::Sharded`] — every micro-batch's GEMM trace is tiled
//!   evenly across *all* nodes (the paper's inter-node accumulation mode):
//!   step latency shrinks by the mesh's near-linear throughput multiplier
//!   while [`NocConfig::transfer_energy_pj`] charges the activation /
//!   partial-sum movement between nodes.
//! * [`PlacementPolicy::Disaggregated`] — the mesh is split into a prefill
//!   pool and a decode pool ([`PoolRole`]); micro-batches are pure (prefill
//!   chunks on prefill nodes, decode slots on decode nodes) and a completed
//!   prefill's KV pages *migrate* to a decode node over the NoC — charged as
//!   transfer energy plus a receive stall — instead of being recomputed.
//!
//! Placement also decides where a session's KV cache physically lives when
//! the pool is bounded ([`KvConfig`](crate::kv::KvConfig)): each
//! data-parallel node owns a private [`KvPool`](crate::kv::KvPool) — so the
//! executor must pick a node with clock headroom *and* free pages, and a
//! session is pinned to the node holding its pages — while a sharded mesh
//! tiles every session's KV across all nodes and therefore forms one
//! aggregate pool.
//!
//! A 1×1 mesh degenerates to the single-node executor under either policy —
//! bit-identical reports, zero NoC energy.

#![expect(
    clippy::indexing_slicing,
    reason = "NodePool indexing takes node ids the executor derives from 0..len() of the same pool, and its three per-node vectors share that length by construction; an out-of-range node is a caller bug the simulation must not paper over"
)]

use mugi::arch::noc::NocConfig;

/// The scheduling role of one node (and its KV pool, when the pool is
/// bounded) under a given placement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PoolRole {
    /// Prefill chunks and decode slots both run here (every colocated
    /// policy).
    #[default]
    Colocated,
    /// Only prefill chunks run here; completed prefills migrate their KV
    /// pages to a decode pool over the NoC.
    Prefill,
    /// Only decode slots run here; sessions arrive by page migration and may
    /// be swapped back out under swap-style preemption
    /// ([`PreemptionMode::Swap`](crate::kv::PreemptionMode)).
    Decode,
}

/// How micro-batches are placed onto the nodes of the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Whole micro-batches on the least-loaded node (inter-batch
    /// parallelism).
    DataParallel,
    /// Every micro-batch tiled across all nodes with inter-node accumulation
    /// (intra-batch parallelism).
    Sharded,
    /// MegaScale-Infer-style prefill/decode disaggregation: the mesh is
    /// partitioned into a prefill pool (the first `prefill_nodes` nodes) and
    /// a decode pool (the remaining `decode_nodes`). Prefill chunks and
    /// decode slots never share a node, so chunked prefills stop inflating
    /// decode TPOT; on prefill completion a session's KV pages migrate to a
    /// decode node over the NoC instead of being recomputed.
    Disaggregated {
        /// Nodes dedicated to prefill (mesh indices `0..prefill_nodes`).
        prefill_nodes: usize,
        /// Nodes dedicated to decode (the remaining mesh indices).
        decode_nodes: usize,
    },
}

impl PlacementPolicy {
    /// Short label used in sweep tables (e.g. `disagg-4p12d`).
    pub fn label(&self) -> String {
        match self {
            PlacementPolicy::DataParallel => "data-parallel".to_string(),
            PlacementPolicy::Sharded => "sharded".to_string(),
            PlacementPolicy::Disaggregated { prefill_nodes, decode_nodes } => {
                format!("disagg-{prefill_nodes}p{decode_nodes}d")
            }
        }
    }
}

/// A mesh plus the policy placing micro-batches onto it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Placement {
    /// The 2-D mesh the nodes form.
    pub noc: NocConfig,
    /// The placement policy.
    pub policy: PlacementPolicy,
}

impl Placement {
    /// A single node (the degenerate 1×1 mesh); policy is irrelevant.
    pub fn single_node() -> Self {
        Placement { noc: NocConfig::single(), policy: PlacementPolicy::DataParallel }
    }

    /// Data-parallel placement over `noc`.
    pub fn data_parallel(noc: NocConfig) -> Self {
        Placement { noc, policy: PlacementPolicy::DataParallel }
    }

    /// Sharded (intra-batch tiled) placement over `noc`.
    pub fn sharded(noc: NocConfig) -> Self {
        Placement { noc, policy: PlacementPolicy::Sharded }
    }

    /// Disaggregated placement over `noc`: the first `prefill_nodes` nodes
    /// prefill, the rest decode.
    ///
    /// # Panics
    /// Panics unless `0 < prefill_nodes < noc.nodes()` (both pools need at
    /// least one node).
    pub fn disaggregated(noc: NocConfig, prefill_nodes: usize) -> Self {
        assert!(
            prefill_nodes > 0 && prefill_nodes < noc.nodes(),
            "disaggregation needs at least one prefill node and one decode node"
        );
        let decode_nodes = noc.nodes() - prefill_nodes;
        Placement { noc, policy: PlacementPolicy::Disaggregated { prefill_nodes, decode_nodes } }
    }

    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.noc.nodes()
    }

    /// The scheduling role of node `i` under this placement: `Colocated`
    /// for every non-disaggregated policy, `Prefill`/`Decode` by mesh index
    /// under [`PlacementPolicy::Disaggregated`].
    pub fn node_role(&self, i: usize) -> PoolRole {
        match self.policy {
            PlacementPolicy::DataParallel | PlacementPolicy::Sharded => PoolRole::Colocated,
            PlacementPolicy::Disaggregated { prefill_nodes, .. } => {
                if i < prefill_nodes {
                    PoolRole::Prefill
                } else {
                    PoolRole::Decode
                }
            }
        }
    }

    /// Label such as `4x4 sharded`.
    pub fn label(&self) -> String {
        format!("{} {}", self.noc.label(), self.policy.label())
    }
}

impl Default for Placement {
    fn default() -> Self {
        Placement::single_node()
    }
}

/// The pool of per-node clocks the executor dispatches onto.
///
/// Each node tracks when it becomes free, how many cycles it spent busy and
/// how many micro-batches it participated in. Under [`PlacementPolicy::
/// Sharded`] every dispatch occupies the whole pool (the batch is tiled
/// across all nodes); under [`PlacementPolicy::DataParallel`] each dispatch
/// occupies one node.
#[derive(Clone, Debug)]
pub struct NodePool {
    free_at: Vec<u64>,
    busy_cycles: Vec<u64>,
    steps: Vec<u64>,
}

impl NodePool {
    /// Creates a pool of `nodes` idle nodes at cycle zero.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a node pool needs at least one node");
        NodePool { free_at: vec![0; nodes], busy_cycles: vec![0; nodes], steps: vec![0; nodes] }
    }

    /// Number of nodes in the pool.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// A pool is never empty (construction requires at least one node).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node among `idle` with the earliest free time (ties to the lowest
    /// index), or `None` if `idle` yields nothing.
    pub fn earliest(&self, idle: impl Iterator<Item = usize>) -> Option<usize> {
        idle.min_by_key(|&i| (self.free_at[i], i))
    }

    /// When node `i` becomes free.
    pub fn free_at(&self, i: usize) -> u64 {
        self.free_at[i]
    }

    /// Cycles node `i` spent executing micro-batches.
    pub fn busy_cycles(&self, i: usize) -> u64 {
        self.busy_cycles[i]
    }

    /// Per-node busy cycles.
    pub fn busy(&self) -> &[u64] {
        &self.busy_cycles
    }

    /// Micro-batches node `i` participated in.
    pub fn steps(&self, i: usize) -> u64 {
        self.steps[i]
    }

    /// Per-node clocks (free times).
    pub fn clocks(&self) -> &[u64] {
        &self.free_at
    }

    /// Occupies node `i` with a batch running `[start, start + cycles)`.
    pub fn dispatch_one(&mut self, i: usize, start: u64, cycles: u64) {
        self.dispatch_steps(i, start, start + cycles, 1);
    }

    /// Occupies node `i` with `steps` back-to-back batches filling
    /// `[start, end)` (the steps of one decode-run segment).
    pub fn dispatch_steps(&mut self, i: usize, start: u64, end: u64, steps: u64) {
        debug_assert!(self.free_at[i] <= start, "node dispatched before it is free");
        self.free_at[i] = end;
        self.busy_cycles[i] += end - start;
        self.steps[i] += steps;
    }

    /// Occupies every node with a gang-scheduled (sharded) batch running
    /// `[start, start + cycles)`.
    pub fn dispatch_all(&mut self, start: u64, cycles: u64) {
        for i in 0..self.len() {
            self.dispatch_one(i, start, cycles);
        }
    }

    /// Advances an idle node's clock to `cycle` (waiting costs no busy
    /// time). No-op if the node is already past it.
    pub fn wait_until(&mut self, i: usize, cycle: u64) {
        if self.free_at[i] < cycle {
            self.free_at[i] = cycle;
        }
    }

    /// Idles every node whose clock lags `cycle` forward to it — the
    /// executors' idle jump when the only remaining work is a future
    /// arrival. One pass over the pool; waiting never accrues busy cycles.
    pub fn wait_all_until(&mut self, cycle: u64) {
        for free in &mut self.free_at {
            if *free < cycle {
                *free = cycle;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_labels_and_nodes() {
        assert_eq!(Placement::single_node().nodes(), 1);
        assert_eq!(Placement::sharded(NocConfig::mesh_4x4()).nodes(), 16);
        assert_eq!(Placement::sharded(NocConfig::mesh_4x4()).label(), "4x4 sharded");
        assert_eq!(Placement::data_parallel(NocConfig::mesh_8x8()).label(), "8x8 data-parallel");
        assert_eq!(Placement::default(), Placement::single_node());
        assert_eq!(Placement::disaggregated(NocConfig::mesh_4x4(), 4).label(), "4x4 disagg-4p12d");
    }

    #[test]
    fn disaggregated_roles_split_the_mesh_by_index() {
        let p = Placement::disaggregated(NocConfig::mesh_4x4(), 6);
        assert_eq!(p.policy, PlacementPolicy::Disaggregated { prefill_nodes: 6, decode_nodes: 10 });
        for i in 0..16 {
            let expected = if i < 6 { PoolRole::Prefill } else { PoolRole::Decode };
            assert_eq!(p.node_role(i), expected, "node {i}");
        }
        // Colocated policies have no phase split.
        assert_eq!(Placement::single_node().node_role(0), PoolRole::Colocated);
        assert_eq!(Placement::sharded(NocConfig::mesh_4x4()).node_role(3), PoolRole::Colocated);
        assert_eq!(PoolRole::default(), PoolRole::Colocated);
    }

    #[test]
    #[should_panic(expected = "at least one prefill node and one decode node")]
    fn disaggregation_needs_both_pools() {
        Placement::disaggregated(NocConfig::mesh_4x4(), 16);
    }

    #[test]
    fn pool_tracks_clocks_busy_and_steps() {
        let mut pool = NodePool::new(3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.earliest(0..3), Some(0));
        pool.dispatch_one(0, 0, 100);
        assert_eq!(pool.free_at(0), 100);
        assert_eq!(pool.earliest([1, 2].into_iter()), Some(1));
        pool.dispatch_one(1, 50, 25);
        assert_eq!(pool.earliest(0..3).unwrap(), 2);
        pool.wait_until(2, 80);
        assert_eq!(pool.free_at(2), 80);
        assert_eq!(pool.busy_cycles(2), 0, "waiting is not busy time");
        pool.dispatch_all(100, 10);
        assert!(pool.clocks().iter().all(|&c| c == 110));
        assert_eq!(pool.steps(0), 2);
        assert_eq!(pool.steps(2), 1);
        assert_eq!(pool.busy(), &[110, 35, 10]);
        pool.dispatch_steps(2, 110, 140, 3);
        assert_eq!((pool.free_at(2), pool.steps(2), pool.busy_cycles(2)), (140, 4, 40));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_pool_rejected() {
        NodePool::new(0);
    }
}

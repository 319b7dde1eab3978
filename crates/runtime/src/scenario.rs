//! The run description: one validated value that builds every engine.
//!
//! A [`Scenario`] names everything an engine is built from, and
//! [`Scenario::build`] checks it before building the [`Executor`]: a
//! scenario that breaks a rule returns a [`ConfigError`] instead of
//! panicking mid-run. Decode contexts are bucketed at the KV page size, so
//! a scenario has no separate bucket to set.

use crate::control::ControlConfig;
use crate::executor::Executor;
use crate::kv::KvConfig;
use crate::placement::{Placement, PlacementPolicy};
use crate::scheduler::{Scheduler, SchedulerConfig};
use mugi::MugiAccelerator;
use std::fmt;

/// One serving engine configuration: every node is a Mugi accelerator with
/// `lanes` lanes. `{:?}` prints it on one line, so a failing case can be
/// replayed from its output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Lanes (array rows) of each node's Mugi accelerator.
    pub lanes: usize,
    /// Batch formation.
    pub scheduler: SchedulerConfig,
    /// The paged KV cache and admission control; its `page_tokens` is also
    /// the decode-context bucket of the estimates.
    pub kv: KvConfig,
    /// The adaptive control plane.
    pub control: ControlConfig,
    /// The mesh and how work is placed on it.
    pub placement: Placement,
}

impl Scenario {
    /// One node of `lanes` lanes with default scheduling, an unbounded KV
    /// pool of 128-token pages and the controller off.
    pub fn new(lanes: usize) -> Self {
        Scenario {
            lanes,
            scheduler: SchedulerConfig::default(),
            kv: KvConfig::default(),
            control: ControlConfig::default(),
            placement: Placement::single_node(),
        }
    }

    /// Checks every configuration rule, reporting the first one broken.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lanes == 0 {
            return Err(ConfigError::Zero("lanes"));
        }
        validate_scheduling(&self.scheduler, &self.kv)?;
        let nodes = self.placement.nodes();
        if nodes == 0 {
            let noc = self.placement.noc;
            return Err(ConfigError::EmptyMesh { rows: noc.rows, cols: noc.cols });
        }
        if let PlacementPolicy::Disaggregated { prefill_nodes, decode_nodes } =
            self.placement.policy
        {
            if prefill_nodes == 0
                || decode_nodes == 0
                || prefill_nodes.checked_add(decode_nodes) != Some(nodes)
            {
                return Err(ConfigError::BadSplit { prefill_nodes, decode_nodes, nodes });
            }
        }
        Ok(())
    }

    /// Validates the scenario and builds a fresh engine for it.
    pub fn build(&self) -> Result<Executor, ConfigError> {
        self.validate()?;
        Ok(Executor::assemble(
            MugiAccelerator::new(self.lanes),
            Scheduler::with_kv(self.scheduler, self.kv),
            self.control,
            self.placement,
        ))
    }
}

/// The rules on batch formation and the KV cache, which
/// [`Scheduler::with_kv`] enforces too.
pub(crate) fn validate_scheduling(
    scheduler: &SchedulerConfig,
    kv: &KvConfig,
) -> Result<(), ConfigError> {
    let zero = [
        ("scheduler.max_batch", scheduler.max_batch == 0),
        ("scheduler.token_budget", scheduler.token_budget == 0),
        ("scheduler.prefill_chunk", scheduler.prefill_chunk == 0),
        ("kv.page_tokens", kv.page_tokens == 0),
        ("kv.node_pages", kv.node_pages == Some(0)),
        ("kv.max_live_sessions", kv.max_live_sessions == Some(0)),
        ("kv.slo.target_ttft_cycles", kv.slo.is_some_and(|s| s.target_ttft_cycles == 0)),
        (
            "kv.slo.cycles_per_prefill_token",
            kv.slo.is_some_and(|s| s.cycles_per_prefill_token == 0),
        ),
    ];
    match zero.into_iter().find(|&(_, is_zero)| is_zero) {
        Some((field, _)) => Err(ConfigError::Zero(field)),
        None => Ok(()),
    }
}

/// Why a [`Scenario`] cannot build an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A count, cap or rate that must be positive is zero; names the field
    /// by its path in the [`Scenario`], e.g. `"scheduler.token_budget"`.
    Zero(&'static str),
    /// The mesh has no node.
    EmptyMesh {
        /// Mesh rows.
        rows: usize,
        /// Mesh columns.
        cols: usize,
    },
    /// A disaggregated split with an empty prefill or decode pool, or
    /// whose pools do not add up to the mesh.
    BadSplit {
        /// Nodes in the prefill pool.
        prefill_nodes: usize,
        /// Nodes in the decode pool.
        decode_nodes: usize,
        /// Nodes in the mesh.
        nodes: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "{field} must be non-zero"),
            ConfigError::EmptyMesh { rows, cols } => {
                write!(f, "the {rows}x{cols} mesh needs at least one node")
            }
            ConfigError::BadSplit { prefill_nodes, decode_nodes, nodes } => write!(
                f,
                "disaggregation needs at least one prefill node and one decode node, together \
                 partitioning the mesh ({prefill_nodes} + {decode_nodes} pool nodes on {nodes} \
                 mesh nodes)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi::arch::noc::NocConfig;

    #[test]
    fn literal_disaggregated_splits_must_partition_the_mesh() {
        let noc = NocConfig { rows: 2, cols: 2 };
        let split = |prefill_nodes, decode_nodes| {
            let policy = PlacementPolicy::Disaggregated { prefill_nodes, decode_nodes };
            Scenario { placement: Placement { noc, policy }, ..Scenario::new(64) }.validate()
        };
        assert_eq!(split(2, 2), Ok(()));
        for (prefill_nodes, decode_nodes) in [(1, 2), (usize::MAX, 5), (4, 0), (0, 4)] {
            let bad = ConfigError::BadSplit { prefill_nodes, decode_nodes, nodes: 4 };
            assert_eq!(split(prefill_nodes, decode_nodes), Err(bad));
        }
    }
}

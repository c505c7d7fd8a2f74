//! The six workloads: what each runs, at which size, and why it exists.
//!
//! Sizes are fixed here. A later change that claims a gain may not edit
//! them; a change that alters them is a benchmark change and re-measures
//! the baseline.

use gpnm_distance::BackendKind;
use gpnm_workload::UpdateProtocol;

/// Which host the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKind {
    /// One `GpnmService`.
    Service,
    /// A `GpnmCluster` with this many shards, round-robin placement.
    Cluster {
        /// Shard replicas.
        shards: usize,
    },
    /// A single-pattern `GpnmEngine` answering the paper's `SQuery`.
    Engine,
}

/// One workload's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name used on the command line and in every result file.
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Host under test.
    pub host: HostKind,
    /// `SLen` backend (the engine workload uses its default backend).
    pub backend: BackendKind,
    /// Hot-row cache budget for the paged backend, MiB.
    pub cache_budget_mb: Option<f64>,
    /// Whether the adaptive controller drives refresh strategies.
    pub adaptive: bool,
    /// Whether a reader thread reads views beside the writer.
    pub reader: bool,
    /// Data-graph nodes.
    pub nodes: usize,
    /// Data-graph edges.
    pub edges: usize,
    /// Label alphabet size.
    pub labels: usize,
    /// Standing patterns.
    pub patterns: usize,
    /// Nodes (= edges) per pattern.
    pub pattern_nodes: usize,
    /// `d`: edges deleted per tick (and as many re-inserted).
    pub edge_churn: usize,
    /// `k`: nodes deleted and inserted per tick, with `8k` extra edge
    /// insertions replacing the deleted nodes' incident edges.
    pub node_churn: usize,
    /// Pattern updates per batch (engine workload only).
    pub pattern_updates: usize,
    /// Unmeasured ticks at the start of every session.
    pub warmup: usize,
    /// Measured ticks per session. Each session runs on a freshly set-up
    /// host: the cost of a tick depends on the match state the stream has
    /// driven the host into, and over a long stream that state wanders
    /// (one update can collapse or revive a pattern's whole match set), so
    /// an unbroken run measures whichever regime its seed happened to
    /// reach. Sessions bound that drift, and every session's set-up is one
    /// more `setup_s` sample.
    pub session_ticks: usize,
    /// Distinct sessions per round. A run replays the same round of
    /// sessions — same streams, same states — until its time is up, and a
    /// tick's time is the fastest of its replays: the reference box slows
    /// down by a third for tens of seconds at a time, and only a repeat of
    /// the same work tells that from a slow tick. `sessions *
    /// session_ticks` timing samples stand behind the tick percentiles.
    pub sessions: usize,
}

/// Seed of every workload's data set (graph and standing patterns). The
/// data set is part of a workload's definition, like the paper's named
/// graphs; `--seed` drives the update stream that runs against it.
pub const DATA_SEED: u64 = 11;

/// The workloads, in the order they are run and reported.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "steady_multi",
        why: "default serving shape: 8 standing patterns, small batches; per-pattern matcher refresh \
              dominates the tick, distance repair is second",
        host: HostKind::Service,
        backend: BackendKind::Sparse,
        cache_budget_mb: None,
        adaptive: false,
        reader: false,
        nodes: 4_000,
        edges: 16_000,
        labels: 30,
        patterns: 8,
        pattern_nodes: 6,
        edge_churn: 2,
        node_churn: 1,
        pattern_updates: 0,
        warmup: 2,
        session_ticks: 12,
        sessions: 9,
    },
    Spec {
        name: "trickle_read",
        why: "2-update ticks over 12 patterns with a reader thread: per-tick fixed cost (plans, publish, \
              fan-out, telemetry) and the read path get their largest share",
        host: HostKind::Service,
        backend: BackendKind::Sparse,
        cache_budget_mb: None,
        adaptive: false,
        reader: true,
        nodes: 2_000,
        edges: 8_000,
        labels: 30,
        patterns: 12,
        pattern_nodes: 6,
        edge_churn: 1,
        node_churn: 0,
        pattern_updates: 0,
        warmup: 5,
        session_ticks: 100,
        sessions: 10,
    },
    Spec {
        name: "churn_adaptive",
        why: "210-update batches over 2 patterns, adaptive controller on: reduce, DER-II/EH-Tree, graph \
              mutation and distance repair dominate; matcher repair does little",
        host: HostKind::Service,
        backend: BackendKind::Sparse,
        cache_budget_mb: None,
        adaptive: true,
        reader: false,
        nodes: 3_000,
        edges: 12_000,
        labels: 30,
        patterns: 2,
        pattern_nodes: 6,
        edge_churn: 80,
        node_churn: 5,
        pattern_updates: 0,
        warmup: 4,
        session_ticks: 20,
        sessions: 5,
    },
    Spec {
        name: "paged_squeeze",
        why: "paged backend with a hot-row cache a fraction of the index: the only workload whose \
              working set exceeds the program's own cache",
        host: HostKind::Service,
        backend: BackendKind::Paged,
        cache_budget_mb: Some(0.25),
        adaptive: false,
        reader: false,
        nodes: 2_000,
        edges: 8_000,
        labels: 30,
        patterns: 3,
        pattern_nodes: 6,
        edge_churn: 2,
        node_churn: 0,
        pattern_updates: 0,
        warmup: 3,
        session_ticks: 12,
        sessions: 9,
    },
    Spec {
        name: "cluster_2shard",
        why: "steady_multi's graph, patterns and batch stream on a 2-shard cluster: prices k graph \
              copies, k commits and pool fan-out against the single host",
        host: HostKind::Cluster { shards: 2 },
        backend: BackendKind::Sparse,
        cache_budget_mb: None,
        adaptive: false,
        reader: false,
        nodes: 4_000,
        edges: 16_000,
        labels: 30,
        patterns: 8,
        pattern_nodes: 6,
        edge_churn: 2,
        node_churn: 1,
        pattern_updates: 0,
        warmup: 2,
        session_ticks: 12,
        sessions: 9,
    },
    Spec {
        name: "paper_squery",
        why: "the paper's own measurement (Fig. 5): UA-GPNM subsequent query on email-EU-core, pattern \
              and data updates, dense SLen repair is nearly all of the time",
        host: HostKind::Engine,
        backend: BackendKind::Partitioned,
        cache_budget_mb: None,
        adaptive: false,
        reader: false,
        nodes: 1_005,
        edges: 25_571,
        labels: 60,
        patterns: 1,
        pattern_nodes: 8,
        edge_churn: 1,
        node_churn: 1,
        pattern_updates: 6,
        warmup: 1,
        session_ticks: 12,
        sessions: 9,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The `--smoke` variant: the same shape, small enough that the whole
    /// suite runs in seconds. Used only by the self-test; numbers from it
    /// are never reported.
    pub fn smoke(&self) -> Spec {
        let div = if self.host == HostKind::Engine { 5 } else { 10 };
        Spec {
            nodes: self.nodes / div,
            edges: self.edges / div,
            labels: self.labels.min(12),
            patterns: self.patterns.min(4),
            edge_churn: self.edge_churn.min(8),
            node_churn: self.node_churn.min(1),
            cache_budget_mb: self.cache_budget_mb.map(|mb| mb / 16.0),
            warmup: 2,
            session_ticks: 6,
            sessions: 2,
            ..self.clone()
        }
    }

    /// The per-tick update protocol. Host workloads submit `(edge_del d,
    /// node_del k, node_ins k, edge_ins d + 8k)` so node and edge counts
    /// stay stationary at the graph's average in+out degree of 8; the
    /// engine workload uses the paper's even four-kind split.
    pub fn protocol(&self) -> UpdateProtocol {
        if self.host == HostKind::Engine {
            return UpdateProtocol::from_scale(self.pattern_updates, self.data_updates());
        }
        UpdateProtocol {
            data_edge_deletes: self.edge_churn,
            data_node_deletes: self.node_churn,
            data_node_inserts: self.node_churn,
            data_edge_inserts: self.edge_churn + 8 * self.node_churn,
            ..Default::default()
        }
    }

    /// Timing samples behind the tick percentiles: one per measured tick
    /// of a round.
    pub fn slots(&self) -> usize {
        self.sessions * self.session_ticks
    }

    /// Index in the update stream of `session`'s first tick. Warm-up ticks
    /// take stream positions too, so no batch is ever replayed inside a
    /// round.
    pub fn first_tick(&self, session: usize) -> u64 {
        (session * (self.warmup + self.session_ticks)) as u64
    }

    /// Data updates per submitted batch.
    pub fn data_updates(&self) -> usize {
        if self.host == HostKind::Engine {
            2 * (self.edge_churn + self.node_churn)
        } else {
            2 * self.edge_churn + 10 * self.node_churn
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sizes_match_the_issue() {
        let by_name = |n: &str| find(n).expect("workload exists");
        assert_eq!(by_name("steady_multi").protocol().total(), 14);
        assert_eq!(by_name("trickle_read").protocol().total(), 2);
        assert_eq!(by_name("churn_adaptive").protocol().total(), 210);
        assert_eq!(by_name("paged_squeeze").protocol().total(), 4);
        assert_eq!(by_name("paper_squery").protocol().total(), 10);
        for spec in &WORKLOADS {
            assert_eq!(
                spec.protocol().total(),
                spec.data_updates() + spec.pattern_updates
            );
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }

    #[test]
    fn every_workload_has_ten_samples_beyond_p90() {
        for spec in &WORKLOADS {
            assert!(
                crate::stats::samples_beyond(spec.slots(), 90.0)
                    >= crate::stats::MIN_SAMPLES_BEYOND,
                "{}: {} slots",
                spec.name,
                spec.slots()
            );
        }
    }

    #[test]
    fn cluster_shares_steady_multis_inputs() {
        let (a, b) = (
            find("steady_multi").unwrap(),
            find("cluster_2shard").unwrap(),
        );
        let same_inputs = Spec {
            name: a.name,
            why: a.why,
            host: a.host,
            ..b.clone()
        };
        assert_eq!(&same_inputs, a);
    }
}

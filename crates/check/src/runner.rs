//! Executes one `(seed, perturbation, schedule)` case and classifies the
//! outcome — for one replication group or for several behind a
//! [`ShardRouter`](todr_shard::ShardRouter).
//!
//! The run protocol is a faithful port of the original
//! `reconfig_nemesis` test driver — settle, attach one closed-loop
//! client per replica, apply one [`Step`] per 400 ms, check safety after
//! every step, heal, drain, then check convergence — but every assertion
//! is converted into a typed [`CaseFailure`] so the Explorer can collect
//! and the Shrinker can minimize failing cases instead of aborting the
//! process. Engine panics (a protocol-internal `assert!` firing deep in
//! a handler) are caught and classified as [`FailureKind::Panic`]: for a
//! checking tool a panic is a *finding*, not a crash.
//!
//! One group is the `S = 1` case of a sharded deployment. Steps name
//! replicas by *flat* index over [`RunOptions::n_servers`]; with
//! [`RunOptions::shards`] groups of `n_servers / shards` replicas each,
//! flat index `f` is replica `f % per_group` of group `f / per_group`.
//! Theorem 1 holds per group, so the state invariants and the
//! whole-history trace oracle ([`crate::oracle::check_trace`]) run once
//! per group, on the group's own slice of the typed event log (node ids
//! restart at 0 in every group, so the merged log would alias replicas
//! across groups). On top, the router is drained after heal and the
//! cross-shard serializability oracle ([`crate::check_shard_trace`])
//! replays its `CrossShard*` events; with one group there is no router
//! and no such event, so both cost nothing.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};
use todr_core::{EngineState, ReadConsistency, UpdateReplyPolicy};
use todr_harness::checkers::{ConsistencyViolation, ReplicaView};
use todr_harness::client::{ClientConfig, ZipfianKeys};
use todr_harness::cluster::{Cluster, ClusterConfig, SettleTimeout};
use todr_harness::sharded::{ShardClientConfig, ShardedCluster, ShardedConfig};
use todr_sim::{MetricsExport, RecordedEvent, SimDuration, TieBreak, World};

use crate::oracle;
use crate::schedule::Step;
use crate::sharded::check_shard_trace;

/// Everything needed to reproduce one case bit-for-bit: the world seed,
/// the same-instant perturbation index and the fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseSpec {
    /// The [`todr_sim::World`] seed.
    pub seed: u64,
    /// Perturbation index: `0` runs the historical FIFO tie-break,
    /// `n > 0` runs [`TieBreak::Seeded`]`(n)` — a distinct, replayable
    /// same-instant interleaving per index.
    pub perturbation: u64,
    /// The fault schedule.
    pub schedule: Vec<Step>,
}

/// The tie-break policy a perturbation index denotes.
pub fn tie_break_for(perturbation: u64) -> TieBreak {
    if perturbation == 0 {
        TieBreak::Fifo
    } else {
        TieBreak::Seeded(perturbation)
    }
}

/// Knobs shared by every case of an exploration.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Number of initial replicas across all groups (the flat index
    /// space fault schedules are drawn over).
    pub n_servers: usize,
    /// Number of replication groups, each of `n_servers / shards`
    /// replicas. `1` runs a plain [`Cluster`] with one closed-loop
    /// client per replica; more run a [`ShardedCluster`] with one shard
    /// client per replica, all routed through the shard router. With
    /// several groups, join, leave and media-fault steps run as quiet
    /// steps: the router's contact lists are fixed at build time.
    pub shards: u32,
    /// EVS message-packing level (`1` = packing off, the historical
    /// wire protocol). Oracles must hold at any level.
    pub max_pack: usize,
    /// Engine auto-checkpoint period in green actions (`0` disables
    /// white-line GC). Lower it so short schedules exercise GC.
    pub checkpoint_interval: u64,
    /// Run with the commit fast path enabled: clients submit with
    /// [`UpdateReplyPolicy::Fast`] (shard clients: single-shard updates
    /// only) and the fast-commit trace oracles (receipt-time conflict
    /// mirror, fast ⇒ eventually green, no conflicting action ordered
    /// ahead unseen) become active.
    pub fast_path: bool,
    /// Percentage of client requests (0–100) aimed at one shared hot
    /// key, so fast-path schedules exercise genuine conflicts and
    /// demotions (one group with [`Self::fast_path`] only).
    pub conflict_pct: u8,
    /// Run with primary read leases enabled: every replica additionally
    /// carries a read-only closed-loop client issuing linearizable
    /// reads (one group only), and the read-lease trace oracles (no
    /// stale lease read, no cross-configuration lease overlap) become
    /// active.
    pub read_leases: bool,
    /// Cross-shard fraction of each shard client's requests, in
    /// permille — high by default so short schedules exercise the
    /// cross-shard protocol densely (several groups only).
    pub cross_permille: u32,
    /// The deliberate engine invariant breakage to inject
    /// (`chaos-mutations` builds only, one group only; used by the
    /// mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub chaos: Option<todr_core::ChaosMutation>,
    /// The deliberate router invariant breakage to inject
    /// (`chaos-mutations` builds only, two or more groups; used by the
    /// shard mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub shard_chaos: Option<todr_shard::ShardChaos>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            n_servers: 5,
            shards: 1,
            max_pack: 1,
            checkpoint_interval: 1024,
            fast_path: false,
            conflict_pct: 0,
            read_leases: false,
            cross_permille: 300,
            #[cfg(feature = "chaos-mutations")]
            chaos: None,
            #[cfg(feature = "chaos-mutations")]
            shard_chaos: None,
        }
    }
}

/// What a passing case established. For a fixed [`CaseSpec`] this struct
/// (including the serialized metrics) is byte-identical across runs —
/// the determinism contract the replay tests pin down.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CasePass {
    /// Flat indices of the surviving replicas (with one group, online
    /// joiners continue the numbering past `n_servers`).
    pub survivors: Vec<u32>,
    /// The green count every survivor converged to, by group.
    pub green_counts: Vec<u64>,
    /// The database digest every survivor converged to, by group.
    pub db_digests: Vec<u64>,
    /// Green positions the per-group trace oracles cross-checked.
    pub green_positions_agreed: u64,
    /// Cross-shard transactions fully applied (`0` with one group).
    pub cross_txns: u64,
    /// Commit-order comparisons the cross-shard oracle performed.
    pub commit_pairs_checked: u64,
    /// Compact deterministic JSON of the world's metrics export.
    pub metrics_json: String,
}

/// Classification of a failing case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The initial primary component never formed.
    Settle,
    /// A step-by-step state invariant broke
    /// ([`todr_harness::checkers`]).
    Consistency,
    /// A whole-history property broke ([`crate::oracle`]).
    TraceOracle,
    /// The healed cluster did not converge (survivor count, primary
    /// membership, green counts or database digests).
    Convergence,
    /// A protocol-internal assertion fired (engine/EVS panic).
    Panic,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Settle => "settle",
            FailureKind::Consistency => "consistency",
            FailureKind::TraceOracle => "trace-oracle",
            FailureKind::Convergence => "convergence",
            FailureKind::Panic => "panic",
        };
        f.write_str(s)
    }
}

/// A failing case: what broke, plus enough context to debug it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// What class of property broke.
    pub kind: FailureKind,
    /// Human-readable description of the violation.
    pub message: String,
    /// The most recent typed protocol events, oldest first (empty when
    /// the failure was a panic that consumed the world).
    pub event_tail: Vec<RecordedEvent>,
    /// The metrics export at failure time, when the world survived long
    /// enough to snapshot it.
    pub metrics: Option<MetricsExport>,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// How many trailing protocol events a [`CaseFailure`] carries.
pub const EVENT_TAIL: usize = 32;

/// The deployment a case runs on: the plain cluster for one group, the
/// sharded cluster behind its router for several. Every group-level
/// operation is the harness's one implementation either way; this only
/// routes a group index to it.
enum Deployment {
    One(Cluster),
    Sharded(ShardedCluster),
}

impl Deployment {
    fn build(spec: &CaseSpec, options: &RunOptions) -> Self {
        let builder = ClusterConfig::builder(options.n_servers as u32, spec.seed)
            .tie_break(tie_break_for(spec.perturbation))
            .packing(options.max_pack)
            .checkpoint_interval(options.checkpoint_interval)
            .fast_path(options.fast_path)
            .read_leases(options.read_leases);
        #[cfg(feature = "chaos-mutations")]
        let builder = builder.chaos(options.chaos);
        let config = ShardedConfig {
            base: builder.build().expect("runner config is coherent"),
            shards: options.shards,
            #[cfg(feature = "chaos-mutations")]
            shard_chaos: options.shard_chaos,
        };
        config.validate().expect("runner config is coherent");
        if options.shards == 1 {
            Deployment::One(Cluster::build(config.base))
        } else {
            Deployment::Sharded(ShardedCluster::build(config))
        }
    }

    fn world(&self) -> &World {
        match self {
            Deployment::One(c) => &c.world,
            Deployment::Sharded(c) => &c.world,
        }
    }

    fn run_for(&mut self, d: SimDuration) {
        match self {
            Deployment::One(c) => c.run_for(d),
            Deployment::Sharded(c) => c.run_for(d),
        }
    }

    fn try_settle(&mut self) -> Result<(), SettleTimeout> {
        match self {
            Deployment::One(c) => c.try_settle(),
            Deployment::Sharded(c) => c.try_settle(),
        }
    }

    /// One writer per replica: a closed-loop client on its server, or a
    /// shard client on the router.
    fn attach_clients(&mut self, options: &RunOptions) {
        match self {
            Deployment::One(cluster) => {
                for i in 0..options.n_servers {
                    let mut client_config = ClientConfig::default();
                    if options.fast_path {
                        client_config.reply_policy = UpdateReplyPolicy::Fast;
                        client_config.conflict_pct = options.conflict_pct;
                    }
                    if options.read_leases {
                        // Writers draw from the shared Zipfian key space
                        // so the read-only clients' lease reads race
                        // real committed writes.
                        client_config.zipfian = Some(ZipfianKeys::ycsb(64));
                    }
                    cluster.attach_client(i, client_config);
                    if options.read_leases {
                        // A read-only client per replica, pointed at the
                        // same Zipfian key space, across every fault
                        // schedule.
                        cluster.attach_client(
                            i,
                            ClientConfig {
                                read_pct: 100,
                                read_consistency: Some(ReadConsistency::Linearizable),
                                zipfian: Some(ZipfianKeys::ycsb(64)),
                                ..ClientConfig::default()
                            },
                        );
                    }
                }
            }
            Deployment::Sharded(cluster) => {
                let client_config = ShardClientConfig {
                    cross_permille: options.cross_permille,
                    fast_single: options.fast_path,
                    ..ShardClientConfig::default()
                };
                for _ in 0..options.n_servers {
                    cluster.attach_client(client_config.clone());
                }
            }
        }
    }

    /// Replicas in group `g`, online joiners included.
    fn group_len(&self, g: usize) -> usize {
        match self {
            Deployment::One(c) => c.servers.len(),
            Deployment::Sharded(c) => c.groups[g].servers.len(),
        }
    }

    /// The metric scope group `g`'s events land in.
    fn scope(&self, g: usize) -> u32 {
        match self {
            Deployment::One(_) => 0,
            Deployment::Sharded(c) => c.groups[g].scope,
        }
    }

    fn partition(&mut self, g: usize, sets: &[Vec<usize>]) {
        match self {
            Deployment::One(c) => c.partition(sets),
            Deployment::Sharded(c) => c.partition(g, sets),
        }
    }

    fn merge_all(&mut self) {
        match self {
            Deployment::One(c) => c.merge_all(),
            Deployment::Sharded(c) => (0..c.groups.len()).for_each(|g| c.merge_all(g)),
        }
    }

    fn crash(&mut self, (g, i): (usize, usize), torn: bool) {
        match (self, torn) {
            (Deployment::One(c), false) => c.crash(i),
            (Deployment::One(c), true) => c.crash_torn(i),
            (Deployment::Sharded(c), false) => c.crash(g, i),
            (Deployment::Sharded(c), true) => c.crash_torn(g, i),
        }
    }

    fn recover(&mut self, (g, i): (usize, usize)) {
        match self {
            Deployment::One(c) => c.recover(i),
            Deployment::Sharded(c) => c.recover(g, i),
        }
    }

    fn stop_clients(&mut self) {
        match self {
            Deployment::One(c) => c.stop_clients(),
            Deployment::Sharded(c) => c.stop_clients(),
        }
    }

    /// Drains the router's in-flight cross-shard transactions, or
    /// returns how many are stuck. Nothing to drain with one group.
    fn drain_router(&mut self) -> Result<(), usize> {
        match self {
            Deployment::One(_) => Ok(()),
            Deployment::Sharded(c) => {
                if c.run_to_router_quiescence(SimDuration::from_secs(30)) {
                    Ok(())
                } else {
                    Err(c.router_pending())
                }
            }
        }
    }

    fn try_check_consistency(&mut self) -> Result<(), Box<ConsistencyViolation>> {
        match self {
            Deployment::One(c) => c.try_check_consistency().map(drop),
            Deployment::Sharded(c) => c.try_check_consistency().map(drop),
        }
    }

    fn views(&mut self, g: usize) -> Vec<ReplicaView> {
        match self {
            Deployment::One(c) => c.views(),
            Deployment::Sharded(c) => c.group_views(g),
        }
    }

    fn fail(&self, kind: FailureKind, message: String) -> Box<CaseFailure> {
        let events = self.world().metrics().events();
        let tail_from = events.len().saturating_sub(EVENT_TAIL);
        Box::new(CaseFailure {
            kind,
            message,
            event_tail: events[tail_from..].to_vec(),
            metrics: Some(self.world().metrics().export()),
        })
    }

    fn consistency_fail(&self, v: ConsistencyViolation) -> Box<CaseFailure> {
        Box::new(CaseFailure {
            kind: FailureKind::Consistency,
            message: v.error.to_string(),
            event_tail: v.recent_events,
            metrics: Some(self.world().metrics().export()),
        })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one case to completion, converting every property violation —
/// including protocol-internal panics — into a [`CaseFailure`].
///
/// Deterministic: the same `(spec, options)` always produces the same
/// result, byte for byte.
///
/// # Errors
///
/// Returns a [`CaseFailure`] classifying the first property violation
/// (an incoherent `options` — replicas not divisible by the group
/// count, a chaos mutation for the wrong group count — fails as a
/// [`FailureKind::Panic`]).
pub fn run_case(spec: &CaseSpec, options: &RunOptions) -> Result<CasePass, Box<CaseFailure>> {
    match catch_unwind(AssertUnwindSafe(|| run_case_inner(spec, options))) {
        Ok(outcome) => outcome,
        Err(payload) => Err(Box::new(CaseFailure {
            kind: FailureKind::Panic,
            message: panic_message(payload),
            event_tail: Vec::new(),
            metrics: None,
        })),
    }
}

fn run_case_inner(spec: &CaseSpec, options: &RunOptions) -> Result<CasePass, Box<CaseFailure>> {
    let mut dep = Deployment::build(spec, options);
    let n = options.n_servers;
    let n_groups = options.shards as usize;
    let per_group = n / n_groups;
    let locate = |flat: usize| (flat / per_group, flat % per_group);
    if let Err(e) = dep.try_settle() {
        return Err(dep.fail(FailureKind::Settle, e.to_string()));
    }
    dep.attach_clients(options);
    dep.run_for(SimDuration::from_millis(400));

    // Legality guards, re-applied here (not trusted from the generator)
    // so arbitrary subsequences and deserialized schedules stay valid.
    let mut crashed = vec![false; n];
    let mut left = vec![false; n];
    let mut joins = 0usize;
    let mut leaves = 0usize;
    let mut corruptions = 0usize;

    for step in &spec.schedule {
        match (&mut dep, step) {
            (_, &Step::Split { cut }) => {
                // One flat cut, applied to every group it crosses:
                // groups entirely on one side stay whole, the group the
                // cut lands in splits (fabrics are per group). Later
                // joiners ride with the first side.
                let cut = cut.clamp(1, n.saturating_sub(1));
                for g in 0..n_groups {
                    let (a, b): (Vec<usize>, Vec<usize>) = (0..dep.group_len(g))
                        .partition(|&i| i >= per_group || g * per_group + i < cut);
                    let sets: Vec<Vec<usize>> =
                        [a, b].into_iter().filter(|s| !s.is_empty()).collect();
                    dep.partition(g, &sets);
                }
            }
            (_, &Step::Merge) => dep.merge_all(),
            (_, &(Step::Crash { server } | Step::CrashTorn { server })) => {
                if server < n && !crashed[server] && !left[server] {
                    crashed[server] = true;
                    dep.crash(locate(server), matches!(step, Step::CrashTorn { .. }));
                }
            }
            (_, &Step::Recover { server }) => {
                if server < n && crashed[server] {
                    crashed[server] = false;
                    dep.recover(locate(server));
                }
            }
            (Deployment::One(cluster), &Step::Join { via }) => {
                // At most 2 joiners; the representative must be healthy.
                if via < n && joins < 2 && !crashed[via] && !left[via] {
                    cluster.add_joiner(via);
                    joins += 1;
                }
            }
            (Deployment::One(cluster), &Step::Leave { server }) => {
                // At most one permanent leave, and never of a crashed
                // server (administrative removal is tested elsewhere).
                if server < n && leaves == 0 && !crashed[server] && !left[server] {
                    left[server] = true;
                    leaves += 1;
                    cluster.leave(server);
                }
            }
            (Deployment::One(cluster), &Step::CorruptSector { server }) => {
                // At most one latent media fault per schedule: the
                // durability argument needs every green action to keep
                // at least one intact durable copy, and a second
                // corruption could (with bad luck) hit the last one.
                // A crashed server's disk can still degrade.
                if server < n && corruptions == 0 && !left[server] {
                    corruptions += 1;
                    cluster.corrupt_sector(server);
                }
            }
            // With several groups, joins, leaves and media faults run as
            // quiet steps (see `RunOptions::shards`). Degrading rather
            // than rejecting keeps every subsequence of a generated
            // schedule legal, which ddmin soundness requires.
            (
                Deployment::Sharded(_),
                Step::Join { .. } | Step::Leave { .. } | Step::CorruptSector { .. },
            )
            | (_, &Step::Quiet) => {}
        }
        dep.run_for(SimDuration::from_millis(400));
        if let Err(v) = dep.try_check_consistency() {
            return Err(dep.consistency_fail(*v));
        }
    }

    // Heal: reconnect and recover everyone entitled to return, drain
    // the clients and then the router's in-flight cross-shard
    // transactions.
    dep.merge_all();
    for flat in 0..n {
        if crashed[flat] && !left[flat] {
            dep.recover(locate(flat));
        }
    }
    dep.run_for(SimDuration::from_secs(6));
    dep.stop_clients();
    dep.run_for(SimDuration::from_secs(4));
    if let Err(pending) = dep.drain_router() {
        return Err(dep.fail(
            FailureKind::Convergence,
            format!("router failed to drain after heal: {pending} cross-shard txns stuck"),
        ));
    }
    if let Err(v) = dep.try_check_consistency() {
        return Err(dep.consistency_fail(*v));
    }

    // Per-group convergence over the surviving membership (every
    // non-departed replica is a primary member with the group's green
    // sequence and database), then the per-group whole-history oracles
    // over the typed event log.
    let all_events = dep.world().metrics().events().to_vec();
    let mut survivors = Vec::new();
    let mut green_counts = Vec::with_capacity(n_groups);
    let mut db_digests = Vec::with_capacity(n_groups);
    let mut green_positions_agreed = 0u64;
    for g in 0..n_groups {
        let views = dep.views(g);
        let live: Vec<&ReplicaView> = views
            .iter()
            .filter(|v| v.state != EngineState::Down)
            .collect();
        if live.len() < 2 {
            return Err(dep.fail(
                FailureKind::Convergence,
                format!("group {g}: only {} survivors after heal", live.len()),
            ));
        }
        let (g0, d0) = (live[0].green_count, live[0].db_digest);
        for v in &live {
            let node = v.node.index();
            let broken = if v.state != EngineState::RegPrim {
                format!("in state {:?} after heal, not RegPrim", v.state)
            } else if v.green_count != g0 {
                format!("green count {} != {g0}", v.green_count)
            } else if v.db_digest != d0 {
                "database digest diverged".to_string()
            } else {
                continue;
            };
            return Err(dep.fail(
                FailureKind::Convergence,
                format!("group {g} replica {node} {broken}"),
            ));
        }
        let scope = dep.scope(g);
        let group_events: Vec<RecordedEvent> = all_events
            .iter()
            .filter(|rec| rec.group == scope)
            .cloned()
            .collect();
        let nodes: BTreeSet<u32> = live.iter().map(|v| v.node.index()).collect();
        match oracle::check_trace(&group_events, &nodes) {
            Ok(stats) => green_positions_agreed += stats.green_positions_agreed,
            Err(v) => {
                return Err(dep.fail(FailureKind::TraceOracle, format!("group {g}: {v}")));
            }
        }
        survivors.extend(nodes.iter().map(|&i| (g * per_group) as u32 + i));
        green_counts.push(g0);
        db_digests.push(d0);
    }

    // The cross-shard serializability oracle, over the merged history
    // (the router's events carry scope 0; the oracle only reads the
    // `CrossShard*` kinds, of which one group has none). The router
    // drained, so every started transaction must have applied.
    let shard_stats = match check_shard_trace(&all_events, true) {
        Ok(stats) => stats,
        Err(v) => return Err(dep.fail(FailureKind::TraceOracle, v.to_string())),
    };

    Ok(CasePass {
        survivors,
        green_counts,
        db_digests,
        green_positions_agreed,
        cross_txns: shard_stats.txns_applied,
        commit_pairs_checked: shard_stats.commit_pairs_checked,
        metrics_json: dep.world().metrics().export().to_json(),
    })
}

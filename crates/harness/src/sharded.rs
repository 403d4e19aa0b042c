//! Builds and drives a **sharded** deployment: `S` independent
//! replication groups — each an unchanged engine + EVS group exactly as
//! wired by [`Cluster`](crate::cluster::Cluster) — fronted by one
//! deterministic [`ShardRouter`], all inside a single [`World`].
//!
//! Each group lives in its own metric scope (`g0.`, `g1.`, …), so one
//! [`MetricsExport`](todr_sim::MetricsExport) shows per-group counters
//! side by side, and in its own [`NetFabric`](todr_net::NetFabric):
//! replicas of one group never even see frames of another — the
//! topology the genuine partial replication literature calls for, where
//! a replica only pays for the shards it hosts. Every group-level
//! operation (wiring, settle, failure scripting, views, the consistency
//! check) is the same code a one-group [`Cluster`](crate::cluster::Cluster)
//! runs.
//!
//! ```
//! use todr_harness::sharded::{ShardClientConfig, ShardedCluster, ShardedConfig};
//! use todr_sim::SimDuration;
//!
//! let mut cluster = ShardedCluster::build(ShardedConfig::new(2, 3, 42));
//! cluster.settle();
//! let client = cluster.attach_client(ShardClientConfig::default());
//! cluster.run_for(SimDuration::from_secs(1));
//! cluster.stop_clients();
//! assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(10)));
//! assert!(cluster.client_stats(client).committed > 0);
//! cluster.check_consistency();
//! ```

use todr_core::{
    ClientId, ClientReply, ClientRequest, EngineCtl, QuerySemantics, RequestId, UpdateReplyPolicy,
};
use todr_db::keys::shard_of;
use todr_db::{Op, Value};
use todr_shard::{ShardRouter, ShardRouterConfig, ShardTopology};
use todr_sim::{Actor, ActorId, Ctx, Payload, SimDuration, SimTime, World};

use crate::checkers::{ConsistencyReport, ConsistencyViolation, ReplicaView};
use crate::client::{ClientStats, StartClient};
use crate::cluster::ServerHandles;
use crate::cluster::{BackendKind, ClusterConfig, InvalidClusterConfig, SettleTimeout};
use crate::group::{self, Group, StorageRoot};

/// Construction parameters for a [`ShardedCluster`].
///
/// `base` describes the deployment as a whole: `base.n_servers` is the
/// **total** replica count, placed evenly across `shards` groups (an
/// uneven placement is rejected by [`validate`](Self::validate)). All
/// per-server knobs (disk mode, network profile, EVS timing, backend,
/// tie-break) apply to every group alike.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The whole-deployment config; `n_servers` is the total replica
    /// count across all groups.
    pub base: ClusterConfig,
    /// Number of shards (= replication groups).
    pub shards: u32,
    /// Deliberate cross-shard protocol breakage injected into the
    /// router (`chaos-mutations` builds only; used by the `todr-check`
    /// mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub shard_chaos: Option<todr_shard::ShardChaos>,
}

impl ShardedConfig {
    /// LAN-calibrated defaults for `shards` groups of
    /// `replicas_per_shard` replicas each.
    pub fn new(shards: u32, replicas_per_shard: u32, seed: u64) -> Self {
        ShardedConfig {
            base: ClusterConfig::new(shards.saturating_mul(replicas_per_shard), seed),
            shards,
            #[cfg(feature = "chaos-mutations")]
            shard_chaos: None,
        }
    }

    /// A validating fluent builder starting from the LAN defaults.
    pub fn builder(shards: u32, replicas_per_shard: u32, seed: u64) -> ShardedConfigBuilder {
        ShardedConfigBuilder {
            cfg: ShardedConfig::new(shards, replicas_per_shard, seed),
        }
    }

    /// Replicas in each group (total / shards; meaningful only after
    /// [`validate`](Self::validate) accepted the placement).
    pub fn replicas_per_shard(&self) -> u32 {
        self.base.n_servers / self.shards.max(1)
    }

    /// Checks internal coherence, on top of the base
    /// [`ClusterConfig::validate`]; [`ShardedConfigBuilder::build`] and
    /// [`ShardedCluster::build`] delegate here.
    pub fn validate(&self) -> Result<(), InvalidClusterConfig> {
        if self.shards == 0 {
            return Err(InvalidClusterConfig(
                "a sharded cluster needs at least one shard".into(),
            ));
        }
        if !self.base.n_servers.is_multiple_of(self.shards) {
            return Err(InvalidClusterConfig(format!(
                "{} replicas cannot be placed evenly across {} shards; \
                 n_servers must be a multiple of the shard count",
                self.base.n_servers, self.shards
            )));
        }
        self.base.validate()?;
        #[cfg(feature = "chaos-mutations")]
        {
            if self.base.chaos.is_some() && self.shards > 1 {
                return Err(InvalidClusterConfig(
                    "engine chaos mutations cannot be combined with more than one \
                     shard: they break single-group invariants the per-group \
                     oracles own; use shard_chaos to break the cross-shard \
                     protocol instead"
                        .into(),
                ));
            }
            if self.shard_chaos.is_some() && self.shards < 2 {
                return Err(InvalidClusterConfig(
                    "shard_chaos needs at least two shards: the cross-shard \
                     commit barrier it breaks never engages with one group"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

/// Fluent, validating construction of a [`ShardedConfig`].
#[derive(Debug, Clone)]
pub struct ShardedConfigBuilder {
    cfg: ShardedConfig,
}

impl ShardedConfigBuilder {
    /// Switches every disk to delayed (asynchronous) writes.
    pub fn delayed_writes(mut self) -> Self {
        self.cfg.base = self.cfg.base.delayed_writes();
        self
    }

    /// Sets the per-action CPU cost at each replica.
    pub fn cpu_per_action(mut self, d: SimDuration) -> Self {
        self.cfg.base.cpu_per_action = d;
        self
    }

    /// Sets the engines' auto-checkpoint period in green actions.
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.cfg.base.checkpoint_interval = interval;
        self
    }

    /// Sets EVS message packing (validated in [`build`](Self::build)).
    pub fn packing(mut self, max_pack: usize) -> Self {
        self.cfg.base.max_pack = max_pack;
        self
    }

    /// Enables the commutativity fast path in every group (DESIGN.md
    /// §4e): eager receipts at the EVS layer plus engine-side fast
    /// commits for `Fast`-policy single-shard updates.
    pub fn fast_path(mut self, on: bool) -> Self {
        self.cfg.base.fast_path = on;
        self
    }

    /// Sets the same-instant event ordering policy of the world.
    pub fn tie_break(mut self, tb: todr_sim::TieBreak) -> Self {
        self.cfg.base.tie_break = tb;
        self
    }

    /// Selects the stable-storage backend for every group.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.cfg.base.backend = backend;
        self
    }

    /// Applies an arbitrary transformation to the base config — the
    /// escape hatch for knobs without a dedicated builder method.
    pub fn map_base(mut self, f: impl FnOnce(ClusterConfig) -> ClusterConfig) -> Self {
        self.cfg.base = f(self.cfg.base);
        self
    }

    /// Injects a deliberate cross-shard protocol breakage into the
    /// router (`chaos-mutations` builds only).
    #[cfg(feature = "chaos-mutations")]
    pub fn shard_chaos(mut self, chaos: Option<todr_shard::ShardChaos>) -> Self {
        self.cfg.shard_chaos = chaos;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<ShardedConfig, InvalidClusterConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One replication group's handles inside a [`ShardedCluster`].
#[derive(Debug, Clone)]
pub struct GroupHandles {
    /// The group's private network fabric.
    pub fabric: ActorId,
    /// Per-replica handles, indexed by replica number within the group.
    pub servers: Vec<ServerHandles>,
    /// The group's metric scope (its counters export as `g{i}.\u{2026}`).
    pub scope: u32,
}

/// An opaque handle to a client attached via
/// [`ShardedCluster::attach_client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardClientHandle(ActorId);

impl ShardClientHandle {
    /// The underlying actor id, for advanced scripting.
    pub fn actor_id(self) -> ActorId {
        self.0
    }
}

/// A sharded deployment: `S` groups in one deterministic [`World`],
/// fronted by a [`ShardRouter`].
pub struct ShardedCluster {
    /// The simulation world (exposed for advanced scripting).
    pub world: World,
    /// Per-group handles, indexed by shard id.
    pub groups: Vec<GroupHandles>,
    /// The shard router actor.
    pub router: ActorId,
    config: ShardedConfig,
    clients: Vec<ShardClientHandle>,
    /// Removes the file-backed stores on drop.
    _storage_root: StorageRoot,
}

impl ShardedCluster {
    /// Builds the deployment and joins every group (but does not advance
    /// time — call [`ShardedCluster::settle`]).
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`ShardedConfig::validate`] (the
    /// replica placement is structural here, not merely advisory), or
    /// if the file backend's storage root cannot be created.
    pub fn build(config: ShardedConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let storage_root = StorageRoot::create(config.base.backend, "sharded", config.base.seed);
        let mut world = group::new_world(&config.base);
        let group_config = ClusterConfig {
            n_servers: config.replicas_per_shard(),
            ..config.base.clone()
        };
        let mut groups = Vec::new();
        for g in 0..config.shards {
            let scope = world.register_metric_scope(&format!("g{g}"));
            world.set_build_scope(scope);
            let group_root = storage_root.path().map(|r| r.join(format!("g{g}")));
            groups.push(group::wire_group(
                &mut world,
                format!("net-g{g}"),
                &group_config,
                group_root.as_deref(),
                scope,
            ));
        }
        world.set_build_scope(0);
        let topology = ShardTopology {
            contacts: groups
                .iter()
                .map(|g| g.servers.iter().map(|s| s.engine).collect())
                .collect(),
        };
        #[allow(unused_mut)]
        let mut router_config = ShardRouterConfig::new(topology);
        #[cfg(feature = "chaos-mutations")]
        {
            router_config.chaos = config.shard_chaos;
        }
        let router = world.add_actor("router", ShardRouter::new(router_config));
        ShardedCluster {
            world,
            groups,
            router,
            config,
            clients: Vec::new(),
            _storage_root: storage_root,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.groups.len() as u32
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Advances virtual time until every group's primary component forms
    /// (bounded at 5 seconds), or reports how far the slowest group got.
    pub fn try_settle(&mut self) -> Result<(), SettleTimeout> {
        let groups: Vec<Group<'_>> = self.groups.iter().map(GroupHandles::view).collect();
        group::try_settle(&mut self.world, &groups)
    }

    /// Group `group`, split from the world so group-level operations can
    /// borrow both.
    fn group(&mut self, group: usize) -> (&mut World, Group<'_>) {
        (&mut self.world, self.groups[group].view())
    }

    /// Panicking wrapper over [`ShardedCluster::try_settle`].
    ///
    /// # Panics
    ///
    /// Panics if any group fails to form a primary.
    pub fn settle(&mut self) {
        if let Err(e) = self.try_settle() {
            panic!("{e}");
        }
    }

    /// Runs the world for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.world.now() + d;
        self.world.run_until(deadline);
    }

    /// Runs the world up to an absolute virtual instant.
    pub fn run_until(&mut self, at: SimTime) {
        self.world.run_until(at);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    // --------------------------------------------------------
    // failure scripting (per group)
    // --------------------------------------------------------

    /// Splits group `group`'s connectivity into the given sets of
    /// replica indices (fabrics are per-group, so other groups are
    /// unaffected).
    pub fn partition(&mut self, group: usize, sets: &[Vec<usize>]) {
        let (world, group) = self.group(group);
        group.partition(world, sets);
    }

    /// Reconnects all partitions within group `group`.
    pub fn merge_all(&mut self, group: usize) {
        let (world, group) = self.group(group);
        group.merge_all(world);
    }

    /// Crashes replica `idx` of group `group` (clean or torn according
    /// to the base config, as in [`Cluster::crash`](crate::cluster::Cluster::crash)).
    pub fn crash(&mut self, group: usize, idx: usize) {
        let ctl = if self.config.base.torn_crashes {
            EngineCtl::CrashTorn
        } else {
            EngineCtl::Crash
        };
        let (world, group) = self.group(group);
        group.crash(world, idx, ctl);
    }

    /// Crashes replica `idx` of group `group` with a torn write at the
    /// crash boundary, regardless of the base config's `torn_crashes`.
    pub fn crash_torn(&mut self, group: usize, idx: usize) {
        let (world, group) = self.group(group);
        group.crash(world, idx, EngineCtl::CrashTorn);
    }

    /// Recovers replica `idx` of group `group` from its stable storage.
    pub fn recover(&mut self, group: usize, idx: usize) {
        let (world, group) = self.group(group);
        group.recover(world, idx);
    }

    // --------------------------------------------------------
    // clients
    // --------------------------------------------------------

    /// Attaches a closed-loop [`ShardClient`] to the router and starts
    /// it.
    pub fn attach_client(&mut self, config: ShardClientConfig) -> ShardClientHandle {
        let id = ClientId(self.clients.len() as u32 + 1);
        let client = ShardClient::new(id, self.router, self.shards(), config);
        let actor = self
            .world
            .add_actor(format!("shard-client-{}", id.0), client);
        self.world.schedule_now(actor, StartClient);
        let handle = ShardClientHandle(actor);
        self.clients.push(handle);
        handle
    }

    /// A client's progress.
    pub fn client_stats(&mut self, client: ShardClientHandle) -> ClientStats {
        self.world
            .with_actor(client.0, |c: &mut ShardClient| c.stats().clone())
    }

    /// All attached clients.
    pub fn clients(&self) -> &[ShardClientHandle] {
        &self.clients
    }

    /// Stops every client's closed loop (outstanding requests still
    /// complete).
    pub fn stop_clients(&mut self) {
        for handle in self.clients.clone() {
            self.world
                .with_actor(handle.0, |c: &mut ShardClient| c.stop());
        }
    }

    /// Runs until the router has no cross-shard transaction in flight
    /// (checked every 100 ms of virtual time), or the bound elapses.
    /// Returns whether the router drained. Stop the clients first, or a
    /// closed loop may keep the router busy forever.
    pub fn run_to_router_quiescence(&mut self, bound: SimDuration) -> bool {
        let deadline = self.world.now() + bound;
        loop {
            if self.router_pending() == 0 {
                return true;
            }
            if self.world.now() >= deadline {
                return false;
            }
            self.run_for(SimDuration::from_millis(100));
        }
    }

    // --------------------------------------------------------
    // inspection
    // --------------------------------------------------------

    /// Runs `f` against the engine of replica `idx` in group `group`.
    pub fn with_engine<R>(
        &mut self,
        group: usize,
        idx: usize,
        f: impl FnOnce(&mut todr_core::ReplicationEngine) -> R,
    ) -> R {
        self.world
            .with_actor(self.groups[group].servers[idx].engine, f)
    }

    /// Green action count of replica `idx` in group `group`.
    pub fn green_count(&mut self, group: usize, idx: usize) -> u64 {
        self.with_engine(group, idx, |e| e.green_count())
    }

    /// Cross-shard transactions still in flight at the router.
    pub fn router_pending(&mut self) -> usize {
        self.world
            .with_actor(self.router, |r: &mut ShardRouter| r.pending())
    }

    /// Collects every replica view of group `group` (crashed and
    /// joining replicas included; filter by state as needed).
    pub fn group_views(&mut self, group: usize) -> Vec<ReplicaView> {
        let (world, group) = self.group(group);
        group.views(world)
    }

    /// Verifies every group's safety invariants (Theorem 1 holds **per
    /// group**; see [`crate::checkers`]) and returns one report per
    /// group. On violation the report carries the offending group's
    /// recent typed protocol events.
    pub fn try_check_consistency(
        &mut self,
    ) -> Result<Vec<ConsistencyReport>, Box<ConsistencyViolation>> {
        (0..self.groups.len())
            .map(|g| {
                let (world, group) = self.group(g);
                group.try_check_consistency(world)
            })
            .collect()
    }

    /// Asserts every group's safety invariants (panicking wrapper over
    /// [`ShardedCluster::try_check_consistency`]).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated in any group.
    pub fn check_consistency(&mut self) {
        if let Err(v) = self.try_check_consistency() {
            panic!("{v}");
        }
    }

    /// Deterministic JSON snapshot of the world's typed observability
    /// bus, with every group's counters under its `g{i}.` prefix and
    /// the router's under `shard.`.
    pub fn metrics_export(&self) -> todr_sim::MetricsExport {
        self.world.metrics().export()
    }
}

impl std::fmt::Debug for ShardedCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("shards", &self.groups.len())
            .field("clients", &self.clients.len())
            .field("now", &self.world.now())
            .finish()
    }
}

// ------------------------------------------------------------
// The shard-aware closed-loop client
// ------------------------------------------------------------

/// [`ShardClient`] tuning.
#[derive(Debug, Clone)]
pub struct ShardClientConfig {
    /// Out of every 1000 requests, how many are cross-shard
    /// transactions (two puts on two distinct shards). Ignored with one
    /// shard, where everything is single-shard by construction.
    pub cross_permille: u32,
    /// Samples recorded before this instant are discarded (warm-up).
    pub record_from: SimTime,
    /// Stop issuing after this many requests (`None` = run forever).
    pub max_requests: Option<u64>,
    /// Modelled action size in bytes.
    pub action_bytes: u32,
    /// Submit single-shard updates with
    /// [`UpdateReplyPolicy::Fast`] (DESIGN.md §4e). Requires the
    /// deployment to run with [`crate::cluster::ClusterConfig`]'s
    /// `fast_path` on to have any effect; cross-shard transactions
    /// always take the full prepare/commit path.
    pub fast_single: bool,
}

impl Default for ShardClientConfig {
    fn default() -> Self {
        ShardClientConfig {
            cross_permille: 100,
            record_from: SimTime::ZERO,
            max_requests: None,
            action_bytes: 200,
            fast_single: false,
        }
    }
}

/// How many pre-computed keys each shard's pool holds.
const POOL_KEYS: usize = 8;

/// SplitMix64 finalizer: the client's only "randomness" — a pure
/// function of (client id, request number), so runs replay exactly.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A closed-loop client that targets the [`ShardRouter`]: mostly
/// single-shard puts spread uniformly across shards (drawn from
/// per-shard key pools, so the shard each request lands on is explicit
/// rather than an accident of hashing), with a configurable fraction of
/// two-shard transactions.
pub struct ShardClient {
    id: ClientId,
    router: ActorId,
    shards: u32,
    /// `pools[s]` holds keys proven (via [`shard_of`]) to live on shard
    /// `s`.
    pools: Vec<Vec<String>>,
    config: ShardClientConfig,
    next_request: u64,
    stats: ClientStats,
    running: bool,
}

impl ShardClient {
    /// Creates a client; send it [`StartClient`] to begin.
    pub fn new(id: ClientId, router: ActorId, shards: u32, config: ShardClientConfig) -> Self {
        ShardClient {
            id,
            router,
            shards,
            pools: key_pools(shards, POOL_KEYS),
            config,
            next_request: 0,
            stats: ClientStats::default(),
            running: false,
        }
    }

    /// Progress so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Stops the closed loop after the outstanding request.
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Builds the next update; the flag says whether it is a
    /// cross-shard transaction.
    fn build_update(&self) -> (Op, bool) {
        let h = mix((u64::from(self.id.0) << 32) | self.next_request);
        let cross = self.shards >= 2 && h % 1000 < u64::from(self.config.cross_permille);
        let shard_a = ((h >> 10) % u64::from(self.shards)) as usize;
        let key_a = self.pools[shard_a][((h >> 32) as usize) % POOL_KEYS].clone();
        let value = Value::Bytes(vec![0xAB; 160]);
        if !cross {
            return (Op::put("bench", key_a, value), false);
        }
        let shard_b = (shard_a + 1 + ((h >> 20) % u64::from(self.shards - 1)) as usize)
            % self.shards as usize;
        let key_b = self.pools[shard_b][((h >> 40) as usize) % POOL_KEYS].clone();
        let batch = Op::Batch(vec![
            Op::put("bench", key_a, value),
            Op::put("bench", key_b, Value::Int((h >> 48) as i64)),
        ]);
        (batch, true)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(max) = self.config.max_requests {
            if self.next_request >= max {
                self.running = false;
                return;
            }
        }
        self.next_request += 1;
        let (update, cross) = self.build_update();
        let reply_policy = if self.config.fast_single && !cross {
            UpdateReplyPolicy::Fast
        } else {
            UpdateReplyPolicy::OnGreen
        };
        let req = ClientRequest {
            request: RequestId(self.next_request),
            client: self.id,
            reply_to: ctx.self_id(),
            query: None,
            update,
            query_semantics: QuerySemantics::Strict,
            read_consistency: None,
            reply_policy,
            size_bytes: self.config.action_bytes,
        };
        ctx.send_now(self.router, req);
    }
}

/// Scans key names (`x0`, `x1`, …) until every shard's pool holds
/// `per_shard` keys proven to hash there. Total over the key space by
/// construction; terminates because FNV-1a spreads short ascii keys
/// across residues quickly.
fn key_pools(shards: u32, per_shard: usize) -> Vec<Vec<String>> {
    let mut pools: Vec<Vec<String>> = vec![Vec::new(); shards as usize];
    let mut j = 0u64;
    while pools.iter().any(|p| p.len() < per_shard) {
        let key = format!("x{j}");
        let s = shard_of("bench", &key, shards) as usize;
        if pools[s].len() < per_shard {
            pools[s].push(key);
        }
        j += 1;
    }
    pools
}

impl Actor for ShardClient {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<StartClient>() {
            Ok(_) => {
                if !self.running {
                    self.running = true;
                    self.issue(ctx);
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<ClientReply>() {
            Some(ClientReply::Committed { submitted_at, .. }) => {
                self.stats.committed += 1;
                if submitted_at >= self.config.record_from {
                    self.stats.recorded += 1;
                    self.stats
                        .latency
                        .record(ctx.now().saturating_since(submitted_at));
                }
                if self.running {
                    self.issue(ctx);
                }
            }
            Some(ClientReply::QueryAnswer { .. }) => {
                if self.running {
                    self.issue(ctx);
                }
            }
            Some(ClientReply::Rejected { .. }) => {
                self.stats.rejected += 1;
                self.running = false;
            }
            None => panic!("shard client received an unknown payload type"),
        }
    }
}

impl std::fmt::Debug for ShardClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardClient")
            .field("id", &self.id)
            .field("committed", &self.stats.committed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_rejected() {
        let mut cfg = ShardedConfig::new(2, 3, 1);
        cfg.shards = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.0.contains("at least one shard"), "{err}");
    }

    #[test]
    fn uneven_placement_rejected() {
        let mut cfg = ShardedConfig::new(2, 3, 1);
        cfg.base.n_servers = 7;
        let err = cfg.validate().unwrap_err();
        assert!(err.0.contains("placed evenly"), "{err}");
    }

    #[test]
    fn base_validation_still_applies() {
        let mut cfg = ShardedConfig::new(2, 3, 1);
        cfg.base.net.loss_probability = 0.1; // without reliable_links
        assert!(cfg.validate().is_err());
    }

    #[cfg(feature = "chaos-mutations")]
    #[test]
    fn engine_chaos_with_many_shards_rejected() {
        let mut cfg = ShardedConfig::new(2, 3, 1);
        cfg.base.chaos = Some(todr_core::ChaosMutation::PrematureGreen);
        let err = cfg.validate().unwrap_err();
        assert!(err.0.contains("engine chaos"), "{err}");
    }

    #[cfg(feature = "chaos-mutations")]
    #[test]
    fn shard_chaos_needs_two_shards() {
        let mut cfg = ShardedConfig::new(1, 3, 1);
        cfg.shard_chaos = Some(todr_shard::ShardChaos::SkipCommitBarrier);
        let err = cfg.validate().unwrap_err();
        assert!(err.0.contains("at least two shards"), "{err}");
    }

    #[test]
    fn key_pools_are_on_their_shard() {
        for shards in [1u32, 2, 4, 8] {
            let pools = key_pools(shards, POOL_KEYS);
            for (s, pool) in pools.iter().enumerate() {
                assert_eq!(pool.len(), POOL_KEYS);
                for key in pool {
                    assert_eq!(shard_of("bench", key, shards), s as u32);
                }
            }
        }
    }

    #[test]
    fn sharded_smoke_commits_and_converges() {
        let mut cluster = ShardedCluster::build(ShardedConfig::new(2, 3, 7));
        cluster.settle();
        let c1 = cluster.attach_client(ShardClientConfig {
            cross_permille: 250,
            ..ShardClientConfig::default()
        });
        let c2 = cluster.attach_client(ShardClientConfig {
            cross_permille: 250,
            ..ShardClientConfig::default()
        });
        cluster.run_for(SimDuration::from_secs(2));
        cluster.stop_clients();
        assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(20)));
        let s1 = cluster.client_stats(c1);
        let s2 = cluster.client_stats(c2);
        assert!(s1.committed > 0 && s2.committed > 0);
        assert_eq!(s1.rejected + s2.rejected, 0);
        let hub = cluster.world.metrics();
        let applied = hub.counter("shard.txns_applied");
        assert!(hub.counter("shard.single_routed") > 0);
        assert!(applied > 0);
        assert_eq!(hub.counter("shard.cross_routed"), applied);
        cluster.check_consistency();
        // Both groups made progress.
        assert!(cluster.green_count(0, 0) > 0);
        assert!(cluster.green_count(1, 0) > 0);
    }

    #[test]
    fn single_shard_cluster_works_like_a_plain_one() {
        let mut cluster = ShardedCluster::build(ShardedConfig::new(1, 3, 11));
        cluster.settle();
        let c = cluster.attach_client(ShardClientConfig::default());
        cluster.run_for(SimDuration::from_secs(1));
        cluster.stop_clients();
        assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(10)));
        assert_eq!(
            cluster.world.metrics().counter("shard.cross_routed"),
            0,
            "one shard never goes cross"
        );
        assert!(cluster.client_stats(c).committed > 0);
        cluster.check_consistency();
    }
}

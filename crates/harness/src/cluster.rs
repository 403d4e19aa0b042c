//! Builds and drives a full simulated deployment of the replication
//! engine.

use todr_core::{EngineConfig, EngineCtl, EngineState, ReplicationEngine, StorageFault};
use todr_evs::{EvsConfig, EvsDaemon};
use todr_net::{NetConfig, NetFabric, NodeId};
use todr_sim::{ActorId, SimDuration, SimTime, TieBreak, World};
use todr_storage::{DiskActor, DiskMode, StorageHandle};

use serde::Serialize;

use crate::checkers::{ConsistencyReport, ConsistencyViolation, ReplicaView};
use crate::client::{ClientConfig, ClientStats, ClosedLoopClient, StartClient};
use crate::group::{self, Group, StorageRoot};

/// Which stable-storage backend every server runs on.
///
/// The disk *timing* model ([`DiskMode`]) is independent of this: the
/// `DiskActor` charges virtual forced-write latency either way; the
/// backend decides where the bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum BackendKind {
    /// The deterministic in-memory sim store — the default, and the
    /// only backend schedule exploration may use.
    #[default]
    Sim,
    /// Real files under a per-cluster temp directory (one subdirectory
    /// per server), removed when the [`Cluster`] drops. Forced writes
    /// pay real `fsync`s on top of the simulated latency.
    File,
}

/// Construction parameters for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of initial replicas.
    pub n_servers: u32,
    /// World seed.
    pub seed: u64,
    /// Disk mode for every server (forced vs delayed writes).
    pub disk_mode: DiskMode,
    /// Network profile.
    pub net: NetConfig,
    /// Per-action CPU cost at each replica.
    pub cpu_per_action: SimDuration,
    /// EVS heartbeat interval.
    pub hb_interval: SimDuration,
    /// EVS failure timeout.
    pub fail_timeout: SimDuration,
    /// EVS acknowledgement batching delay.
    pub ack_delay: SimDuration,
    /// Run the EVS daemons over per-peer reliable (ARQ) channels,
    /// required whenever `net.loss_probability > 0`.
    pub reliable_links: bool,
    /// Maximum submissions packed into one EVS wire frame per sequencer
    /// round (the Spread message-packing optimization). `1` reproduces
    /// the historical one-frame-per-message protocol exactly.
    pub max_pack: usize,
    /// Membership size at which the EVS daemons switch from all-ack
    /// stability to cumulative piggybacked acks (see
    /// `EvsConfig::cumulative_ack_threshold`). `usize::MAX` forces
    /// all-ack at every scale — the comparison baseline for the scale
    /// sweep's gap attribution.
    pub cumulative_ack_threshold: usize,
    /// Fan multicasts out as per-destination clones instead of one
    /// shared frame (see `EvsConfig::clone_fanout`; determinism-
    /// equivalence testing only).
    pub clone_fanout: bool,
    /// Auto-checkpoint period of every engine, in green actions (`0`
    /// disables white-line garbage collection).
    pub checkpoint_interval: u64,
    /// Dynamic-linear-voting weights by server index (absent => 1).
    pub weights: std::collections::BTreeMap<u32, u64>,
    /// Same-instant event ordering policy of the underlying
    /// [`World`] — [`TieBreak::Fifo`] reproduces historical behavior;
    /// [`TieBreak::Seeded`] lets schedule-exploration harnesses sweep
    /// alternative (deterministic, replayable) interleavings.
    pub tie_break: TieBreak,
    /// When true, every [`Cluster::crash`] tears the write in flight
    /// (a random prefix of the staged log entries survives, the next
    /// one is cut mid-record) instead of crashing cleanly. Drawn from
    /// the world's dedicated fault RNG stream, so runs stay replayable.
    pub torn_crashes: bool,
    /// Enables the commit fast path on every server: EVS daemons emit
    /// eager receipts and engines fast-commit conflict-free actions
    /// submitted with [`todr_core::UpdateReplyPolicy::Fast`] once a
    /// weighted quorum holds them (see DESIGN.md §4e). Off by default;
    /// the default event streams stay byte-identical.
    pub fast_path: bool,
    /// Enables LARK-style primary read leases on every server: EVS
    /// daemons emit eager receipts plus heartbeat-driven lease
    /// renewals, and engines answer [`todr_core::ReadConsistency::
    /// Linearizable`] reads locally while their lease is valid (see
    /// DESIGN.md §4f). Off by default; the default event streams stay
    /// byte-identical.
    pub read_leases: bool,
    /// How long a granted/renewed lease stays valid. Validated against
    /// `2·hb_interval + lease_duration < fail_timeout`, which keeps a
    /// partitioned holder's lease provably dead before any disjoint
    /// primary can install and commit writes past it.
    pub lease_duration: SimDuration,
    /// Engine-side bound on retained red/yellow action bodies; beyond
    /// it update requests are rejected with a retryable error (`0`
    /// disables the bound — see `EngineConfig::max_retained_bodies`).
    pub max_retained_bodies: usize,
    /// Stable-storage backend for every server (see [`BackendKind`]).
    pub backend: BackendKind,
    /// Deliberate engine invariant breakage injected into every server
    /// (`chaos-mutations` builds only; used by the `todr-check`
    /// mutation self-test).
    #[cfg(feature = "chaos-mutations")]
    pub chaos: Option<todr_core::ChaosMutation>,
}

impl ClusterConfig {
    /// Defaults calibrated for the paper's LAN testbed (see DESIGN.md).
    pub fn new(n_servers: u32, seed: u64) -> Self {
        ClusterConfig {
            n_servers,
            seed,
            disk_mode: DiskMode::Forced {
                sync_latency: SimDuration::from_millis(10),
            },
            net: NetConfig::lan(),
            cpu_per_action: SimDuration::from_micros(380),
            hb_interval: SimDuration::from_millis(50),
            fail_timeout: SimDuration::from_millis(200),
            ack_delay: SimDuration::from_micros(300),
            reliable_links: false,
            max_pack: 1,
            cumulative_ack_threshold: EvsConfig::default().cumulative_ack_threshold,
            clone_fanout: false,
            checkpoint_interval: 1024,
            weights: std::collections::BTreeMap::new(),
            tie_break: TieBreak::Fifo,
            torn_crashes: false,
            fast_path: false,
            read_leases: false,
            lease_duration: SimDuration::from_millis(60),
            max_retained_bodies: 1 << 16,
            backend: BackendKind::Sim,
            #[cfg(feature = "chaos-mutations")]
            chaos: None,
        }
    }

    /// A validating fluent builder starting from the LAN defaults.
    pub fn builder(n_servers: u32, seed: u64) -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::new(n_servers, seed),
        }
    }

    /// Same cluster over a lossy network, with reliable links enabled.
    pub fn lossy(mut self, loss_probability: f64) -> Self {
        self.net.loss_probability = loss_probability;
        self.reliable_links = true;
        self
    }

    /// Same cluster with delayed (asynchronous) disk writes — the
    /// configuration of Figure 5(b)'s upper curve.
    pub fn delayed_writes(mut self) -> Self {
        self.disk_mode = DiskMode::Delayed;
        self
    }

    /// Same cluster with EVS message packing up to `max_pack`
    /// submissions per wire frame.
    pub fn packing(mut self, max_pack: usize) -> Self {
        self.max_pack = max_pack;
        self
    }

    /// Checks internal coherence; [`ClusterConfigBuilder::build`]
    /// delegates here.
    pub fn validate(&self) -> Result<(), InvalidClusterConfig> {
        if self.n_servers == 0 {
            return Err(InvalidClusterConfig(
                "a cluster needs at least one server".into(),
            ));
        }
        let loss = self.net.loss_probability;
        if !(0.0..1.0).contains(&loss) {
            return Err(InvalidClusterConfig(format!(
                "loss_probability {loss} outside [0, 1)"
            )));
        }
        if loss > 0.0 && !self.reliable_links {
            return Err(InvalidClusterConfig(format!(
                "loss_probability {loss} requires reliable_links: without per-peer \
                 ARQ channels the EVS daemons assume loss-free FIFO links and \
                 a dropped frame wedges the protocol"
            )));
        }
        if self.max_pack == 0 {
            return Err(InvalidClusterConfig(
                "max_pack 0 would pack no messages at all; use 1 to disable packing".into(),
            ));
        }
        if let Some(&w) = self.weights.values().find(|&&w| w == 0) {
            return Err(InvalidClusterConfig(format!(
                "voting weight {w} must be positive"
            )));
        }
        if self.read_leases {
            let budget = self.hb_interval * 2 + self.lease_duration;
            if budget >= self.fail_timeout {
                return Err(InvalidClusterConfig(format!(
                    "read leases require 2·hb_interval + lease_duration < fail_timeout \
                     ({} + {} >= {}): a partitioned lease holder must drain before a \
                     disjoint primary can install and commit writes past it",
                    self.hb_interval * 2,
                    self.lease_duration,
                    self.fail_timeout
                )));
            }
        }
        // Not collapsible: the second inner check is feature-gated.
        #[allow(clippy::collapsible_if)]
        if self.backend == BackendKind::File {
            if matches!(self.tie_break, TieBreak::Seeded(_)) {
                return Err(InvalidClusterConfig(
                    "backend File cannot be combined with TieBreak::Seeded: \
                     schedule exploration replays seeded interleavings against \
                     byte-identical storage, which only the deterministic sim \
                     store guarantees"
                        .into(),
                ));
            }
            #[cfg(feature = "chaos-mutations")]
            if self.chaos.is_some() {
                return Err(InvalidClusterConfig(
                    "backend File cannot be combined with chaos mutations: the \
                     mutation self-test replays schedules against the \
                     deterministic sim store"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

/// A rejected [`ClusterConfig`], with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidClusterConfig(pub String);

impl std::fmt::Display for InvalidClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid cluster config: {}", self.0)
    }
}

impl std::error::Error for InvalidClusterConfig {}

/// Fluent, validating construction of a [`ClusterConfig`].
///
/// Unlike hand-mutating the config struct, [`build`](Self::build)
/// rejects incoherent combinations (most importantly a lossy network
/// without reliable links) *before* a multi-second simulation silently
/// wedges.
///
/// ```
/// use todr_harness::cluster::ClusterConfig;
///
/// let cfg = ClusterConfig::builder(5, 42)
///     .loss_probability(0.05)
///     .reliable_links(true)
///     .build()
///     .expect("coherent config");
/// assert_eq!(cfg.n_servers, 5);
///
/// // A lossy fabric without ARQ links is rejected at build time.
/// assert!(ClusterConfig::builder(5, 42)
///     .loss_probability(0.05)
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the disk mode for every server.
    pub fn disk_mode(mut self, mode: DiskMode) -> Self {
        self.cfg.disk_mode = mode;
        self
    }

    /// Switches every disk to delayed (asynchronous) writes.
    pub fn delayed_writes(mut self) -> Self {
        self.cfg.disk_mode = DiskMode::Delayed;
        self
    }

    /// Replaces the whole network profile.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.cfg.net = net;
        self
    }

    /// Sets the per-datagram loss probability (validated in
    /// [`build`](Self::build) against [`reliable_links`](Self::reliable_links)).
    pub fn loss_probability(mut self, p: f64) -> Self {
        self.cfg.net.loss_probability = p;
        self
    }

    /// Enables or disables per-peer reliable (ARQ) channels in the EVS
    /// daemons.
    pub fn reliable_links(mut self, on: bool) -> Self {
        self.cfg.reliable_links = on;
        self
    }

    /// Sets the per-action CPU cost at each replica.
    pub fn cpu_per_action(mut self, d: SimDuration) -> Self {
        self.cfg.cpu_per_action = d;
        self
    }

    /// Sets the EVS heartbeat interval.
    pub fn hb_interval(mut self, d: SimDuration) -> Self {
        self.cfg.hb_interval = d;
        self
    }

    /// Sets the EVS failure timeout.
    pub fn fail_timeout(mut self, d: SimDuration) -> Self {
        self.cfg.fail_timeout = d;
        self
    }

    /// Sets the EVS acknowledgement batching delay.
    pub fn ack_delay(mut self, d: SimDuration) -> Self {
        self.cfg.ack_delay = d;
        self
    }

    /// Sets the maximum number of submissions packed into one EVS wire
    /// frame (validated in [`build`](Self::build); `1` disables
    /// packing).
    pub fn packing(mut self, max_pack: usize) -> Self {
        self.cfg.max_pack = max_pack;
        self
    }

    /// Sets the membership size at which the EVS daemons switch from
    /// all-ack stability to cumulative piggybacked acks (`usize::MAX`
    /// forces all-ack at every scale).
    pub fn cumulative_ack_threshold(mut self, threshold: usize) -> Self {
        self.cfg.cumulative_ack_threshold = threshold;
        self
    }

    /// Fans multicasts out as per-destination clones instead of one
    /// shared frame (determinism-equivalence testing only).
    pub fn clone_fanout(mut self, on: bool) -> Self {
        self.cfg.clone_fanout = on;
        self
    }

    /// Sets the engines' auto-checkpoint period in green actions (`0`
    /// disables white-line garbage collection).
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.cfg.checkpoint_interval = interval;
        self
    }

    /// Assigns a dynamic-linear-voting weight to server `idx`.
    pub fn weight(mut self, idx: u32, weight: u64) -> Self {
        self.cfg.weights.insert(idx, weight);
        self
    }

    /// Sets the same-instant event ordering policy of the world.
    pub fn tie_break(mut self, tb: TieBreak) -> Self {
        self.cfg.tie_break = tb;
        self
    }

    /// Makes every [`Cluster::crash`] tear the write in flight instead
    /// of crashing cleanly (see [`ClusterConfig::torn_crashes`]).
    pub fn torn_crashes(mut self, on: bool) -> Self {
        self.cfg.torn_crashes = on;
        self
    }

    /// Enables the commit fast path on every server (EVS eager
    /// receipts + engine fast commits; see [`ClusterConfig::fast_path`]).
    pub fn fast_path(mut self, on: bool) -> Self {
        self.cfg.fast_path = on;
        self
    }

    /// Enables primary read leases on every server (validated in
    /// [`build`](Self::build) against the lease timing inequality; see
    /// [`ClusterConfig::read_leases`]).
    pub fn read_leases(mut self, on: bool) -> Self {
        self.cfg.read_leases = on;
        self
    }

    /// Sets the lease validity span (see
    /// [`ClusterConfig::lease_duration`]).
    pub fn lease_duration(mut self, d: SimDuration) -> Self {
        self.cfg.lease_duration = d;
        self
    }

    /// Bounds the red/yellow action bodies every engine retains (`0`
    /// disables the bound; see [`ClusterConfig::max_retained_bodies`]).
    pub fn max_retained_bodies(mut self, bound: usize) -> Self {
        self.cfg.max_retained_bodies = bound;
        self
    }

    /// Selects the stable-storage backend (validated in
    /// [`build`](Self::build): [`BackendKind::File`] is rejected in
    /// combination with seeded tie-breaking, since schedule replay
    /// requires the deterministic sim store).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Injects a deliberate engine invariant breakage into every server
    /// (`chaos-mutations` builds only).
    #[cfg(feature = "chaos-mutations")]
    pub fn chaos(mut self, chaos: Option<todr_core::ChaosMutation>) -> Self {
        self.cfg.chaos = chaos;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<ClusterConfig, InvalidClusterConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// An opaque handle to a client attached via
/// [`Cluster::attach_client`]; pass it back to
/// [`Cluster::client_stats`]. The newtype prevents the old footgun of
/// handing an arbitrary [`ActorId`] (a server's engine, a disk) to the
/// stats accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientHandle(ActorId);

impl ClientHandle {
    /// The underlying actor id, for advanced scripting against
    /// [`Cluster::world`].
    pub fn actor_id(self) -> ActorId {
        self.0
    }
}

/// [`Cluster::try_settle`]'s failure: no primary component formed
/// inside the bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettleTimeout {
    /// How long the cluster was given.
    pub waited: SimDuration,
    /// Servers that did reach the primary state.
    pub in_prim: usize,
    /// Total servers expected in the primary.
    pub servers: usize,
}

impl std::fmt::Display for SettleTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "primary component failed to form within {} ({}/{} servers in primary)",
            self.waited, self.in_prim, self.servers
        )
    }
}

impl std::error::Error for SettleTimeout {}

/// One server's actor handles.
#[derive(Debug, Clone, Copy)]
pub struct ServerHandles {
    /// The server's node id.
    pub node: NodeId,
    /// Its EVS daemon.
    pub daemon: ActorId,
    /// Its disk.
    pub disk: ActorId,
    /// Its replication engine.
    pub engine: ActorId,
}

/// A fully wired simulated deployment: fabric, disks, EVS daemons,
/// replication engines and (optionally) clients, all inside one
/// deterministic [`World`].
pub struct Cluster {
    /// The simulation world (exposed for advanced scripting).
    pub world: World,
    /// The shared network fabric.
    pub fabric: ActorId,
    /// Per-server handles, indexed by server number.
    pub servers: Vec<ServerHandles>,
    config: ClusterConfig,
    clients: Vec<ClientHandle>,
    /// Per-cluster directory holding every server's file-backed store
    /// (`None` on the sim backend). Removed on drop.
    storage_root: StorageRoot,
}

impl Cluster {
    /// Builds the deployment and joins every server to the group (but
    /// does not advance time — call [`Cluster::settle`]).
    ///
    /// # Panics
    ///
    /// Panics if the file backend is selected and its storage root
    /// cannot be created (set `TODR_STORAGE_DIR` to relocate it off
    /// the default OS temp dir).
    pub fn build(config: ClusterConfig) -> Self {
        let storage_root = StorageRoot::create(config.backend, "cluster", config.seed);
        let mut world = group::new_world(&config);
        let group = group::wire_group(&mut world, "net".into(), &config, storage_root.path(), 0);
        let (fabric, servers) = (group.fabric, group.servers);
        Cluster {
            world,
            fabric,
            servers,
            config,
            clients: Vec::new(),
            storage_root,
        }
    }

    /// The directory holding every server's file-backed store, when
    /// running on [`BackendKind::File`].
    pub fn storage_root(&self) -> Option<&std::path::Path> {
        self.storage_root.path()
    }

    /// The cluster's one group, split from the world so group-level
    /// operations can borrow both.
    fn group(&mut self) -> (&mut World, Group<'_>) {
        let group = Group {
            fabric: self.fabric,
            servers: &self.servers,
            scope: 0,
        };
        (&mut self.world, group)
    }

    pub(crate) fn wire_server(
        world: &mut World,
        fabric: ActorId,
        node: NodeId,
        server_set: &[NodeId],
        config: &ClusterConfig,
        initial_member: bool,
        storage_root: Option<&std::path::Path>,
    ) -> ServerHandles {
        let disk = world.add_actor(format!("disk-{node}"), DiskActor::new(config.disk_mode));
        // Daemon and engine reference each other; allocate the engine
        // slot first by predicting its id is not possible, so wire via a
        // two-step: create daemon with a placeholder app id, then the
        // engine, then point the daemon at the engine.
        let evs_config = EvsConfig {
            universe: server_set.to_vec(),
            hb_interval: config.hb_interval,
            fail_timeout: config.fail_timeout,
            ack_delay: config.ack_delay,
            reliable_links: config.reliable_links,
            max_pack: config.max_pack,
            cumulative_ack_threshold: config.cumulative_ack_threshold,
            clone_fanout: config.clone_fanout,
            eager_receipts: config.fast_path || config.read_leases,
            lease_heartbeats: config.read_leases,
            ..EvsConfig::default()
        };
        let daemon = world.add_actor(
            format!("evs-{node}"),
            EvsDaemon::new(node, fabric, ActorId::from_raw(0), evs_config),
        );
        let mut engine_config = EngineConfig::new(node, server_set.to_vec());
        engine_config.cpu_per_action = config.cpu_per_action;
        engine_config.checkpoint_interval = config.checkpoint_interval;
        engine_config.initial_member = initial_member;
        engine_config.fast_path = config.fast_path;
        engine_config.read_leases = config.read_leases;
        engine_config.lease_duration = config.lease_duration;
        engine_config.max_retained_bodies = config.max_retained_bodies;
        #[cfg(feature = "chaos-mutations")]
        {
            engine_config.chaos = config.chaos;
        }
        engine_config.weights = config
            .weights
            .iter()
            .map(|(&idx, &w)| (NodeId::new(idx), w))
            .collect();
        let store = match storage_root {
            None => StorageHandle::sim(),
            Some(root) => {
                let dir = root.join(format!("server-{node}"));
                StorageHandle::file(&dir)
                    .unwrap_or_else(|e| panic!("open file store {}: {e}", dir.display()))
            }
        };
        let engine = world.add_actor(
            format!("engine-{node}"),
            ReplicationEngine::with_storage(engine_config, daemon, disk, fabric, store),
        );
        // Re-point the daemon's app at the real engine.
        world.with_actor(daemon, |d: &mut EvsDaemon| d.set_app(engine));
        world.with_actor(fabric, |f: &mut NetFabric| f.register(node, daemon));
        ServerHandles {
            node,
            daemon,
            disk,
            engine,
        }
    }

    /// Advances virtual time until the initial primary component forms
    /// (bounded at 5 seconds), or reports how far the cluster got.
    pub fn try_settle(&mut self) -> Result<(), SettleTimeout> {
        let (world, group) = self.group();
        group::try_settle(world, &[group])
    }

    /// Panicking wrapper over [`Cluster::try_settle`].
    ///
    /// # Panics
    ///
    /// Panics if no primary forms — that indicates a protocol bug.
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

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    // --------------------------------------------------------
    // failure scripting
    // --------------------------------------------------------

    /// Splits connectivity into the given groups of server indices.
    pub fn partition(&mut self, groups: &[Vec<usize>]) {
        let (world, group) = self.group();
        group.partition(world, groups);
    }

    /// Reconnects all partitions.
    pub fn merge_all(&mut self) {
        let (world, group) = self.group();
        group.merge_all(world);
    }

    /// Crashes server `idx`: network silenced, daemon and engine wiped,
    /// disk reset (in-flight syncs lost). With
    /// [`ClusterConfig::torn_crashes`] set, the crash additionally
    /// tears the log append in flight.
    pub fn crash(&mut self, idx: usize) {
        if self.config.torn_crashes {
            self.crash_with(idx, EngineCtl::CrashTorn);
        } else {
            self.crash_with(idx, EngineCtl::Crash);
        }
    }

    /// Crashes server `idx` with a torn write at the crash boundary,
    /// regardless of [`ClusterConfig::torn_crashes`].
    pub fn crash_torn(&mut self, idx: usize) {
        self.crash_with(idx, EngineCtl::CrashTorn);
    }

    fn crash_with(&mut self, idx: usize, ctl: EngineCtl) {
        let (world, group) = self.group();
        group.crash(world, idx, ctl);
    }

    /// Flips one random bit in one random persisted log record of
    /// server `idx` (latent media fault; surfaces at the server's next
    /// recovery scan).
    pub fn flip_bit(&mut self, idx: usize) {
        let engine = self.servers[idx].engine;
        self.world.schedule_now(
            engine,
            EngineCtl::InjectFault {
                fault: StorageFault::BitFlip,
            },
        );
    }

    /// Serves a stale sector on server `idx`: one persisted log
    /// record's payload is replaced by an earlier record's, under a
    /// current-looking header (latent media fault; surfaces at the
    /// server's next recovery scan).
    pub fn corrupt_sector(&mut self, idx: usize) {
        let engine = self.servers[idx].engine;
        self.world.schedule_now(
            engine,
            EngineCtl::InjectFault {
                fault: StorageFault::StaleSector,
            },
        );
    }

    /// Recovers server `idx` from its stable storage.
    pub fn recover(&mut self, idx: usize) {
        let (world, group) = self.group();
        group.recover(world, idx);
    }

    /// Adds a brand-new replica that bootstraps online via
    /// `PERSISTENT_JOIN` through server `via` (§5.1). Returns its index.
    pub fn add_joiner(&mut self, via: usize) -> usize {
        let node = NodeId::new(self.servers.len() as u32);
        let known: Vec<NodeId> = self.servers.iter().map(|s| s.node).collect();
        let handles = Self::wire_server(
            &mut self.world,
            self.fabric,
            node,
            &known,
            &self.config,
            false,
            self.storage_root.path(),
        );
        let via_node = self.servers[via].node;
        self.world
            .schedule_now(handles.engine, EngineCtl::StartJoin { via: via_node });
        self.servers.push(handles);
        self.servers.len() - 1
    }

    /// Initiates a voluntary permanent leave of server `idx`.
    pub fn leave(&mut self, idx: usize) {
        let engine = self.servers[idx].engine;
        self.world.schedule_now(engine, EngineCtl::Leave);
    }

    /// Administratively removes (presumably dead) server `dead_idx` by
    /// asking server `via` to broadcast a `PERSISTENT_LEAVE` on its
    /// behalf (§5.1, footnote 3).
    pub fn remove_replica(&mut self, via: usize, dead_idx: usize) {
        let engine = self.servers[via].engine;
        let dead = self.servers[dead_idx].node;
        self.world
            .schedule_now(engine, EngineCtl::RemoveReplica { dead });
    }

    // --------------------------------------------------------
    // clients
    // --------------------------------------------------------

    /// Attaches a closed-loop client to server `idx` and starts it.
    /// Returns a handle for [`Cluster::client_stats`].
    pub fn attach_client(&mut self, idx: usize, config: ClientConfig) -> ClientHandle {
        let engine = self.servers[idx].engine;
        let id = todr_core::ClientId(self.clients.len() as u32 + 1);
        let client = self.world.add_actor(
            format!("client-{}", id.0),
            ClosedLoopClient::new(id, engine, config),
        );
        self.world.schedule_now(client, StartClient);
        let handle = ClientHandle(client);
        self.clients.push(handle);
        handle
    }

    /// A client's progress.
    pub fn client_stats(&mut self, client: ClientHandle) -> ClientStats {
        self.world
            .with_actor(client.0, |c: &mut ClosedLoopClient| c.stats().clone())
    }

    /// All attached clients.
    pub fn clients(&self) -> &[ClientHandle] {
        &self.clients
    }

    /// Stops every client's closed loop (outstanding requests still
    /// complete).
    pub fn stop_clients(&mut self) {
        for handle in &self.clients {
            self.world
                .with_actor(handle.0, |c: &mut ClosedLoopClient| c.stop());
        }
    }

    // --------------------------------------------------------
    // inspection
    // --------------------------------------------------------

    /// Runs `f` against the engine of server `idx`.
    pub fn with_engine<R>(&mut self, idx: usize, f: impl FnOnce(&mut ReplicationEngine) -> R) -> R {
        self.world.with_actor(self.servers[idx].engine, f)
    }

    /// Protocol state of server `idx`.
    pub fn engine_state(&mut self, idx: usize) -> EngineState {
        self.with_engine(idx, |e| e.state())
    }

    /// Green action count of server `idx`.
    pub fn green_count(&mut self, idx: usize) -> u64 {
        self.with_engine(idx, |e| e.green_count())
    }

    /// Database digest of server `idx`.
    pub fn db_digest(&mut self, idx: usize) -> u64 {
        self.with_engine(idx, |e| e.db_digest())
    }

    /// Every replica's view (crashed and joining replicas included;
    /// filter by state as needed).
    pub fn views(&mut self) -> Vec<ReplicaView> {
        let (world, group) = self.group();
        group.views(world)
    }

    /// Verifies cross-replica safety invariants over the live
    /// (non-crashed, non-joining) replicas (see [`crate::checkers`]); a
    /// violation carries the recent typed protocol events as context.
    pub fn try_check_consistency(
        &mut self,
    ) -> Result<ConsistencyReport, Box<ConsistencyViolation>> {
        let (world, group) = self.group();
        group.try_check_consistency(world)
    }

    /// Asserts cross-replica safety invariants (panicking wrapper over
    /// [`Cluster::try_check_consistency`]).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_consistency(&mut self) {
        if let Err(v) = self.try_check_consistency() {
            panic!("{v}");
        }
    }

    /// Deterministic JSON snapshot of the world's typed observability
    /// bus: every counter and latency histogram recorded by the net,
    /// EVS, storage and engine layers.
    pub fn metrics_export(&self) -> todr_sim::MetricsExport {
        self.world.metrics().export()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .field("now", &self.world.now())
            .finish()
    }
}

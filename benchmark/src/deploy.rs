//! The deployment a workload runs on, built two ways from the public
//! API. The plain build is the harness's own `Cluster` or
//! `ShardedCluster`. The traced build wires the same actors, in the same
//! order, from the layer constructors, with every actor and store
//! wrapped for timing; the two must then behave identically.

use todr::core::{EngineConfig, EngineCtl, EngineState, ReplicationEngine};
use todr::evs::{EvsCmd, EvsConfig, EvsDaemon};
use todr::harness::cluster::{Cluster, ClusterConfig, ServerHandles};
use todr::harness::sharded::{ShardedCluster, ShardedConfig};
use todr::net::{NetFabric, NodeId};
use todr::shard::{ShardRouter, ShardRouterConfig, ShardTopology};
use todr::sim::{Actor, ActorId, MetricsExport, SimTime, World};
use todr::storage::{DiskActor, DiskOp, StorageHandle};

use crate::client::{Client, SharedLog, Start};
use crate::host;
use crate::run::CHUNK_EVENTS;
use crate::trace::{self, Layer, Timed, TimedStore};
use crate::workload::Spec;

/// One replication group's actors.
pub struct Group {
    pub fabric: ActorId,
    pub servers: Vec<ServerHandles>,
}

enum Stack {
    Single(Box<Cluster>),
    Sharded(Box<ShardedCluster>),
    Traced(Box<World>),
}

/// A built deployment with the benchmark's clients attached.
pub struct Deployment {
    stack: Stack,
    pub groups: Vec<Group>,
    pub router: Option<ActorId>,
    pub clients: Vec<ActorId>,
    pub log: SharedLog,
    /// While set, a slice of the reference workload runs after every
    /// [`CHUNK_EVENTS`]-th event (see [`host`]).
    pub calibrating: bool,
}

/// The deployment's configuration, shared by both builds.
fn config(spec: &Spec, seed: u64) -> ClusterConfig {
    ClusterConfig::builder(spec.replicas, seed)
        .disk_mode(spec.disk)
        .packing(spec.pack)
        .read_leases(spec.read_leases)
        .fast_path(spec.fast_path)
        .torn_crashes(spec.torn_crashes)
        .build()
        .expect("every workload's cluster config is coherent")
}

impl Deployment {
    /// Builds the deployment for `spec` and attaches its clients (not
    /// started yet; see [`Deployment::start_clients`]).
    pub fn build(spec: &Spec, seed: u64, traced: bool, log: SharedLog) -> Self {
        let cfg = config(spec, seed);
        let (stack, groups, router) = if traced {
            wire_traced(spec, &cfg)
        } else if spec.shards == 1 {
            let cluster = Cluster::build(cfg);
            let groups = vec![Group {
                fabric: cluster.fabric,
                servers: cluster.servers.clone(),
            }];
            (Stack::Single(Box::new(cluster)), groups, None)
        } else {
            let mut sharded = ShardedConfig::new(spec.shards, spec.replicas, seed);
            sharded.base = ClusterConfig {
                n_servers: spec.shards * spec.replicas,
                ..cfg
            };
            let cluster = ShardedCluster::build(sharded);
            let groups = cluster
                .groups
                .iter()
                .map(|g| Group {
                    fabric: g.fabric,
                    servers: g.servers.clone(),
                })
                .collect();
            let router = Some(cluster.router);
            (Stack::Sharded(Box::new(cluster)), groups, router)
        };
        let mut dep = Deployment {
            stack,
            groups,
            router,
            clients: Vec::new(),
            log,
            calibrating: false,
        };
        // The typed event log is kept only where a check replays it.
        dep.world()
            .metrics_mut()
            .set_record_events(spec.read_leases);
        dep.attach_clients(spec, seed, traced);
        dep
    }

    fn attach_clients(&mut self, spec: &Spec, seed: u64, traced: bool) {
        for i in 0..spec.clients {
            let targets = match (self.router, spec.open_interval) {
                (Some(router), _) => vec![router],
                (None, Some(_)) => self.groups[0].servers.iter().map(|s| s.engine).collect(),
                (None, None) => {
                    let servers = &self.groups[0].servers;
                    vec![servers[i as usize % servers.len()].engine]
                }
            };
            let client = Client::new(spec, seed, i, targets, self.log.clone());
            let name = format!("bench-client-{i}");
            let id = if traced {
                self.world()
                    .add_actor(name, Timed::new(Layer::Client, client))
            } else {
                self.world().add_actor(name, client)
            };
            self.clients.push(id);
        }
    }

    /// Schedules every client's first request.
    pub fn start_clients(&mut self) {
        for c in self.clients.clone() {
            self.world().schedule_now(c, Start);
        }
    }

    pub fn traced(&self) -> bool {
        matches!(self.stack, Stack::Traced(_))
    }

    pub fn world(&mut self) -> &mut World {
        match &mut self.stack {
            Stack::Single(c) => &mut c.world,
            Stack::Sharded(c) => &mut c.world,
            Stack::Traced(w) => w,
        }
    }

    pub fn world_ref(&self) -> &World {
        match &self.stack {
            Stack::Single(c) => &c.world,
            Stack::Sharded(c) => &c.world,
            Stack::Traced(w) => w,
        }
    }

    /// Runs `f` on actor `id` of type `A`, looking through the timing
    /// wrapper in the traced build.
    pub fn with<A: Actor, R>(&mut self, id: ActorId, f: impl FnOnce(&mut A) -> R) -> R {
        if self.traced() {
            self.world()
                .with_actor(id, |t: &mut Timed<A>| f(&mut t.inner))
        } else {
            self.world().with_actor(id, f)
        }
    }

    /// Processes one event.
    pub fn step(&mut self) -> bool {
        let stepped = if self.traced() {
            trace::step(self.world())
        } else {
            self.world().step()
        };
        if self.calibrating
            && self
                .world_ref()
                .events_processed()
                .is_multiple_of(CHUNK_EVENTS)
        {
            host::slice();
        }
        stepped
    }

    /// Processes every event up to `at` and moves the clock there.
    pub fn run_until(&mut self, at: SimTime) {
        while self.world().next_event_time().is_some_and(|t| t <= at) {
            self.step();
        }
        self.world().run_until(at);
    }

    /// Steps until `done` holds or virtual time passes `bound`; returns
    /// whether `done` held.
    pub fn run_while_not(
        &mut self,
        bound: SimTime,
        mut done: impl FnMut(&mut Self) -> bool,
    ) -> bool {
        loop {
            if done(self) {
                return true;
            }
            if self.world().now() > bound || !self.step() {
                return done(self);
            }
        }
    }

    pub fn now(&self) -> SimTime {
        self.world_ref().now()
    }

    pub fn export(&self) -> MetricsExport {
        self.world_ref().metrics().export()
    }

    /// Every engine of every group, group by group.
    pub fn engines(&self) -> Vec<ActorId> {
        self.groups
            .iter()
            .flat_map(|g| g.servers.iter().map(|s| s.engine))
            .collect()
    }

    pub fn engine_states(&mut self) -> Vec<EngineState> {
        self.engines()
            .into_iter()
            .map(|e| self.with(e, |e: &mut ReplicationEngine| e.state()))
            .collect()
    }

    /// Cuts the replicas in `minority` of group 0 off from the rest.
    pub fn split(&mut self, minority: &[usize]) {
        let g = &self.groups[0];
        let (mut small, mut large) = (Vec::new(), Vec::new());
        for (i, s) in g.servers.iter().enumerate() {
            if minority.contains(&i) {
                small.push(s.node);
            } else {
                large.push(s.node);
            }
        }
        let fabric = g.fabric;
        self.with(fabric, |f: &mut NetFabric| f.set_partition(&[large, small]));
    }

    pub fn heal(&mut self) {
        let fabric = self.groups[0].fabric;
        self.with(fabric, |f: &mut NetFabric| f.merge_all());
    }

    /// Crashes replica `idx` of group 0, as `Cluster::crash` does.
    pub fn crash(&mut self, idx: usize, torn: bool) {
        let (fabric, s) = (self.groups[0].fabric, self.groups[0].servers[idx]);
        self.with(fabric, |f: &mut NetFabric| f.crash(s.node));
        let ctl = if torn {
            EngineCtl::CrashTorn
        } else {
            EngineCtl::Crash
        };
        let world = self.world();
        world.schedule_now(s.daemon, EvsCmd::Crash);
        world.schedule_now(s.engine, ctl);
        world.schedule_now(s.disk, DiskOp::Reset);
    }

    /// Recovers replica `idx` of group 0, as `Cluster::recover` does.
    pub fn recover(&mut self, idx: usize) {
        let (fabric, s) = (self.groups[0].fabric, self.groups[0].servers[idx]);
        self.with(fabric, |f: &mut NetFabric| f.recover(s.node));
        self.world().schedule_now(s.engine, EngineCtl::Recover);
    }

    /// Cross-shard transactions the router still has in flight.
    pub fn router_pending(&mut self) -> usize {
        match self.router {
            Some(r) => self.with(r, |r: &mut ShardRouter| r.pending()),
            None => 0,
        }
    }

    /// The harness's own cross-replica safety check (plain build only:
    /// the traced build is checked by equality with the plain one).
    pub fn check_consistency(&mut self) -> Result<(), String> {
        match &mut self.stack {
            Stack::Single(c) => c
                .try_check_consistency()
                .map(drop)
                .map_err(|v| v.to_string()),
            Stack::Sharded(c) => c
                .try_check_consistency()
                .map(drop)
                .map_err(|v| v.to_string()),
            Stack::Traced(_) => Ok(()),
        }
    }
}

/// Wires the deployment exactly as `Cluster::build` and
/// `ShardedCluster::build` do, with timing wrappers.
fn wire_traced(spec: &Spec, cfg: &ClusterConfig) -> (Stack, Vec<Group>, Option<ActorId>) {
    let mut world = World::new(cfg.seed);
    world.set_event_limit(500_000_000);
    world.set_tie_break(cfg.tie_break);
    let sharded = spec.shards > 1;
    let mut groups = Vec::new();
    for g in 0..spec.shards {
        let fabric_name = if sharded {
            let scope = world.register_metric_scope(&format!("g{g}"));
            world.set_build_scope(scope);
            format!("net-g{g}")
        } else {
            "net".to_string()
        };
        let fabric = world.add_actor(
            fabric_name,
            Timed::new(Layer::Net, NetFabric::new(cfg.net.clone())),
        );
        let nodes: Vec<NodeId> = (0..spec.replicas).map(NodeId::new).collect();
        let servers: Vec<ServerHandles> = nodes
            .iter()
            .map(|&node| wire_server(&mut world, fabric, node, &nodes, cfg))
            .collect();
        for s in &servers {
            world.schedule_now(s.daemon, EvsCmd::JoinGroup);
        }
        groups.push(Group { fabric, servers });
    }
    let router = sharded.then(|| {
        world.set_build_scope(0);
        let topology = ShardTopology {
            contacts: groups
                .iter()
                .map(|g| g.servers.iter().map(|s| s.engine).collect())
                .collect(),
        };
        let router = ShardRouter::new(ShardRouterConfig::new(topology));
        world.add_actor("router", Timed::new(Layer::Shard, router))
    });
    (Stack::Traced(Box::new(world)), groups, router)
}

/// One server, as `Cluster`'s wiring builds it.
fn wire_server(
    world: &mut World,
    fabric: ActorId,
    node: NodeId,
    server_set: &[NodeId],
    cfg: &ClusterConfig,
) -> ServerHandles {
    let disk = world.add_actor(
        format!("disk-{node}"),
        Timed::new(Layer::Storage, DiskActor::new(cfg.disk_mode)),
    );
    let evs = EvsConfig {
        universe: server_set.to_vec(),
        hb_interval: cfg.hb_interval,
        fail_timeout: cfg.fail_timeout,
        ack_delay: cfg.ack_delay,
        reliable_links: cfg.reliable_links,
        max_pack: cfg.max_pack,
        cumulative_ack_threshold: cfg.cumulative_ack_threshold,
        clone_fanout: cfg.clone_fanout,
        eager_receipts: cfg.fast_path || cfg.read_leases,
        lease_heartbeats: cfg.read_leases,
        ..EvsConfig::default()
    };
    let daemon = world.add_actor(
        format!("evs-{node}"),
        Timed::new(
            Layer::Evs,
            EvsDaemon::new(node, fabric, ActorId::from_raw(0), evs),
        ),
    );
    let mut ec = EngineConfig::new(node, server_set.to_vec());
    ec.cpu_per_action = cfg.cpu_per_action;
    ec.checkpoint_interval = cfg.checkpoint_interval;
    ec.initial_member = true;
    ec.fast_path = cfg.fast_path;
    ec.read_leases = cfg.read_leases;
    ec.lease_duration = cfg.lease_duration;
    ec.max_retained_bodies = cfg.max_retained_bodies;
    ec.weights = cfg
        .weights
        .iter()
        .map(|(&idx, &w)| (NodeId::new(idx), w))
        .collect();
    let store = StorageHandle::from_backend(Box::new(TimedStore::default()));
    let engine = world.add_actor(
        format!("engine-{node}"),
        Timed::new(
            Layer::Engine,
            ReplicationEngine::with_storage(ec, daemon, disk, fabric, store),
        ),
    );
    world.with_actor(daemon, |d: &mut Timed<EvsDaemon>| d.inner.set_app(engine));
    world.with_actor(fabric, |f: &mut Timed<NetFabric>| {
        f.inner.register(node, daemon)
    });
    ServerHandles {
        node,
        daemon,
        disk,
        engine,
    }
}

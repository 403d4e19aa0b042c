//! The group layer: every operation on one replication group, written
//! once for both deployments.
//!
//! A [`Cluster`](crate::cluster::Cluster) is one group; a
//! [`ShardedCluster`](crate::sharded::ShardedCluster) is `S` of them
//! behind a router. Theorem 1 holds per group, so wiring, settling,
//! failure scripting, replica views and the consistency check are the
//! same code for both: each deployment hands out [`Group`] views of its
//! groups and delegates here.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use todr_core::{EngineCtl, EngineState, ReplicationEngine};
use todr_evs::EvsCmd;
use todr_net::{NetFabric, NodeId};
use todr_sim::{ActorId, SimDuration, World};
use todr_storage::DiskOp;

use crate::checkers::{
    verify_db_convergence, verify_fifo_order, verify_single_primary, verify_total_order,
    ConsistencyError, ConsistencyReport, ConsistencyViolation, ReplicaView,
};
use crate::cluster::{BackendKind, Cluster, ClusterConfig, ServerHandles, SettleTimeout};
use crate::sharded::GroupHandles;

impl GroupHandles {
    pub(crate) fn view(&self) -> Group<'_> {
        Group {
            fabric: self.fabric,
            servers: &self.servers,
            scope: self.scope,
        }
    }
}

/// A borrowed view of one group: its fabric, its replicas and the
/// metric scope its events land in (`0` for a plain cluster, whose
/// every actor is in the root scope).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Group<'a> {
    pub(crate) fabric: ActorId,
    pub(crate) servers: &'a [ServerHandles],
    pub(crate) scope: u32,
}

impl Group<'_> {
    /// Splits connectivity into the given sets of replica indices.
    pub(crate) fn partition(self, world: &mut World, sets: &[Vec<usize>]) {
        let node_groups: Vec<Vec<NodeId>> = sets
            .iter()
            .map(|s| s.iter().map(|&i| self.servers[i].node).collect())
            .collect();
        world.with_actor(self.fabric, move |f: &mut NetFabric| {
            f.set_partition(&node_groups)
        });
    }

    /// Reconnects all partitions.
    pub(crate) fn merge_all(self, world: &mut World) {
        world.with_actor(self.fabric, |f: &mut NetFabric| f.merge_all());
    }

    /// Crashes replica `idx`: network silenced, daemon and engine wiped
    /// (`ctl` says whether the write in flight tears), disk reset.
    pub(crate) fn crash(self, world: &mut World, idx: usize, ctl: EngineCtl) {
        let s = self.servers[idx];
        world.with_actor(self.fabric, move |f: &mut NetFabric| f.crash(s.node));
        world.schedule_now(s.daemon, EvsCmd::Crash);
        world.schedule_now(s.engine, ctl);
        world.schedule_now(s.disk, DiskOp::Reset);
    }

    /// Recovers replica `idx` from its stable storage.
    pub(crate) fn recover(self, world: &mut World, idx: usize) {
        let s = self.servers[idx];
        world.with_actor(self.fabric, move |f: &mut NetFabric| f.recover(s.node));
        world.schedule_now(s.engine, EngineCtl::Recover);
    }

    /// Every replica's view, crashed and joining replicas included.
    pub(crate) fn views(self, world: &mut World) -> Vec<ReplicaView> {
        self.servers
            .iter()
            .map(|s| {
                world.with_actor(s.engine, |e: &mut ReplicationEngine| ReplicaView {
                    node: s.node,
                    state: e.state(),
                    green_count: e.green_count(),
                    green_floor: e.green_floor(),
                    green_tail: e.green_tail().to_vec(),
                    db_digest: e.db_digest(),
                    white_line: e.white_line(),
                    prim_index: e.prim_component().prim_index,
                })
            })
            .collect()
    }

    /// Runs every safety check against the group's live (non-crashed,
    /// non-joining) replicas; a violation carries the tail of the
    /// group's own typed protocol events.
    pub(crate) fn try_check_consistency(
        self,
        world: &mut World,
    ) -> Result<ConsistencyReport, Box<ConsistencyViolation>> {
        let views: Vec<ReplicaView> = self
            .views(world)
            .into_iter()
            .filter(|v| !matches!(v.state, EngineState::Down | EngineState::Joining))
            .collect();
        let run = || -> Result<u64, ConsistencyError> {
            let compared = verify_total_order(&views)?;
            verify_fifo_order(&views)?;
            verify_db_convergence(&views)?;
            verify_single_primary(&views)?;
            Ok(compared)
        };
        match run() {
            Ok(positions_compared) => Ok(ConsistencyReport {
                replicas_checked: views.len(),
                min_green: views.iter().map(|v| v.green_count).min().unwrap_or(0),
                max_green: views.iter().map(|v| v.green_count).max().unwrap_or(0),
                positions_compared,
            }),
            Err(error) => {
                let group_events: Vec<_> = world
                    .metrics()
                    .events()
                    .iter()
                    .filter(|e| e.group == self.scope)
                    .cloned()
                    .collect();
                let tail_from = group_events
                    .len()
                    .saturating_sub(ConsistencyViolation::EVENT_TAIL);
                Err(Box::new(ConsistencyViolation {
                    error,
                    recent_events: group_events[tail_from..].to_vec(),
                }))
            }
        }
    }
}

/// A fresh world for a deployment: seeded, tie-break set, with the
/// runaway-simulation guard every harness run uses.
pub(crate) fn new_world(config: &ClusterConfig) -> World {
    let mut world = World::new(config.seed);
    world.set_event_limit(500_000_000);
    world.set_tie_break(config.tie_break);
    world
}

/// Wires one group of `config.n_servers` replicas on a fabric of its
/// own (registered under the world's current build scope) and joins
/// every replica to the group.
pub(crate) fn wire_group(
    world: &mut World,
    fabric_name: String,
    config: &ClusterConfig,
    storage_root: Option<&Path>,
    scope: u32,
) -> GroupHandles {
    let fabric = world.add_actor(fabric_name, NetFabric::new(config.net.clone()));
    let nodes: Vec<NodeId> = (0..config.n_servers).map(NodeId::new).collect();
    let servers: Vec<ServerHandles> = nodes
        .iter()
        .map(|&node| Cluster::wire_server(world, fabric, node, &nodes, config, true, storage_root))
        .collect();
    for server in &servers {
        world.schedule_now(server.daemon, EvsCmd::JoinGroup);
    }
    GroupHandles {
        fabric,
        servers,
        scope,
    }
}

/// Advances virtual time until every replica of every group is in the
/// primary component (bounded at 5 seconds), or reports how far the
/// deployment got.
pub(crate) fn try_settle(world: &mut World, groups: &[Group<'_>]) -> Result<(), SettleTimeout> {
    let bound = SimDuration::from_secs(5);
    let deadline = world.now() + bound;
    let total: usize = groups.iter().map(|g| g.servers.len()).sum();
    loop {
        world.run_for(SimDuration::from_millis(100));
        let in_prim = groups
            .iter()
            .flat_map(|g| g.servers)
            .filter(|s| {
                world.with_actor(s.engine, |e: &mut ReplicationEngine| e.state())
                    == EngineState::RegPrim
            })
            .count();
        if in_prim == total {
            return Ok(());
        }
        if world.now() >= deadline {
            return Err(SettleTimeout {
                waited: bound,
                in_prim,
                servers: total,
            });
        }
    }
}

/// Monotonic counter making concurrent deployments' storage roots
/// unique.
static NEXT_STORAGE_ROOT: AtomicU64 = AtomicU64::new(0);

/// A deployment's directory of file-backed stores (`None` on the sim
/// backend), removed when the deployment drops.
#[derive(Debug)]
pub(crate) struct StorageRoot(Option<PathBuf>);

impl StorageRoot {
    /// Creates `todr-{kind}-{pid}-{seed}-{n}` under `TODR_STORAGE_DIR`
    /// (default: the OS temp dir) when `backend` is
    /// [`BackendKind::File`].
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub(crate) fn create(backend: BackendKind, kind: &str, seed: u64) -> Self {
        StorageRoot(match backend {
            BackendKind::Sim => None,
            BackendKind::File => {
                let base = std::env::var_os("TODR_STORAGE_DIR")
                    .map(PathBuf::from)
                    .unwrap_or_else(std::env::temp_dir);
                let n = NEXT_STORAGE_ROOT.fetch_add(1, Ordering::Relaxed);
                let root = base.join(format!("todr-{kind}-{}-{seed}-{n}", std::process::id()));
                std::fs::create_dir_all(&root)
                    .unwrap_or_else(|e| panic!("create storage root {}: {e}", root.display()));
                Some(root)
            }
        })
    }

    pub(crate) fn path(&self) -> Option<&Path> {
        self.0.as_deref()
    }
}

impl Drop for StorageRoot {
    fn drop(&mut self) {
        if let Some(root) = &self.0 {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

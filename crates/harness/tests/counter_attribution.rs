//! The metrics hub is the only place counters live, and per-replica
//! readers use its per-actor view. That view is only trustworthy if
//! every increment lands on the actor that made it: for every engine,
//! EVS, net, storage and shard counter, the per-actor shares must sum
//! back to the world-wide value. A seeded chaotic single-group run and a
//! sharded run (where each group's counters live under its `g{g}.`
//! scope) are both checked, and per-replica shares are checked against
//! the replica-stamped typed events.

use std::collections::BTreeSet;

use todr_core::UpdateReplyPolicy;
use todr_db::ReadConsistency;
use todr_harness::client::ClientConfig;
use todr_harness::cluster::{Cluster, ClusterConfig};
use todr_harness::sharded::{ShardClientConfig, ShardedCluster, ShardedConfig};
use todr_sim::{ActorId, ProtocolEvent, SimDuration, World};

const SUBSYSTEMS: [&str; 5] = ["engine.", "evs.", "net.", "storage.", "shard."];

/// Asserts that every counter of [`SUBSYSTEMS`] equals the sum of its
/// per-actor shares over the actors of its scope, and returns the
/// checked world-wide names.
fn assert_attribution_is_exact(world: &World) -> BTreeSet<String> {
    let hub = world.metrics();
    let actors: Vec<ActorId> = (0..world.actor_count() as u32)
        .map(ActorId::from_raw)
        .collect();
    let scopes: BTreeSet<u32> = actors.iter().map(|&a| world.actor_scope(a)).collect();
    let mut checked = BTreeSet::new();
    for (name, total) in hub.counters() {
        let scope = scopes
            .iter()
            .copied()
            .find(|&s| s != 0 && name.starts_with(hub.scope_prefix(s)))
            .unwrap_or(0);
        let base = &name[hub.scope_prefix(scope).len()..];
        if !SUBSYSTEMS.iter().any(|p| base.starts_with(p)) {
            continue;
        }
        let attributed: u64 = actors
            .iter()
            .filter(|&&a| world.actor_scope(a) == scope)
            .map(|&a| hub.actor_counter(a, base))
            .sum();
        assert_eq!(
            attributed, total,
            "{name}: per-actor shares sum to {attributed}, world-wide {total}"
        );
        checked.insert(name.to_string());
    }
    checked
}

#[test]
fn per_actor_counters_sum_to_world_counters_under_chaos() {
    let config = ClusterConfig::builder(5, 1313)
        .fast_path(true)
        .read_leases(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::build(config);
    cluster.settle();
    for i in 0..5 {
        cluster.attach_client(
            i,
            ClientConfig {
                reply_policy: UpdateReplyPolicy::Fast,
                conflict_pct: 20,
                read_pct: 30,
                read_consistency: Some(ReadConsistency::Linearizable),
                ..ClientConfig::default()
            },
        );
    }
    for round in 0..3usize {
        cluster.run_for(SimDuration::from_millis(400));
        cluster.partition(&[vec![0, 1, 2], vec![3, 4]]);
        cluster.run_for(SimDuration::from_millis(400));
        if round == 1 {
            cluster.crash(4);
            cluster.run_for(SimDuration::from_millis(300));
        }
        cluster.merge_all();
        cluster.run_for(SimDuration::from_millis(400));
        if round == 1 {
            cluster.recover(4);
        }
    }
    cluster.run_for(SimDuration::from_secs(2));
    cluster.check_consistency();

    let checked = assert_attribution_is_exact(&cluster.world);
    for name in [
        "engine.actions_created",
        "engine.fast_commits",
        "engine.lease_reads",
        "engine.exchanges_completed",
        "evs.views_installed",
        "net.dropped_partition",
        "storage.sync_requests",
    ] {
        assert!(checked.contains(name), "{name} was never exercised");
    }

    // The sums cannot see a share credited to the wrong replica; the
    // typed events name their replica, so check two counters against
    // them per server.
    let hub = cluster.world.metrics();
    for s in &cluster.servers {
        let node = s.node.index();
        let events = |pred: &dyn Fn(&ProtocolEvent) -> bool| {
            hub.events().iter().filter(|e| pred(&e.event)).count() as u64
        };
        assert_eq!(
            hub.actor_counter(s.engine, "engine.actions_created"),
            events(&|e| matches!(e, ProtocolEvent::ActionCreated { node: n, .. } if *n == node)),
            "engine.actions_created of {}",
            s.node
        );
        assert_eq!(
            hub.actor_counter(s.daemon, "evs.views_installed"),
            events(&|e| matches!(e, ProtocolEvent::ViewInstalled { node: n, .. } if *n == node)),
            "evs.views_installed of {}",
            s.node
        );
    }
}

#[test]
fn per_actor_counters_sum_to_group_counters_when_sharded() {
    let mut cluster = ShardedCluster::build(ShardedConfig::new(2, 3, 1717));
    cluster.settle();
    for _ in 0..3 {
        cluster.attach_client(ShardClientConfig {
            cross_permille: 250,
            ..ShardClientConfig::default()
        });
    }
    cluster.run_for(SimDuration::from_secs(1));
    cluster.partition(1, &[vec![0, 1], vec![2]]);
    cluster.run_for(SimDuration::from_millis(500));
    cluster.merge_all(1);
    cluster.run_for(SimDuration::from_secs(1));
    cluster.stop_clients();
    assert!(cluster.run_to_router_quiescence(SimDuration::from_secs(20)));
    cluster.check_consistency();

    let checked = assert_attribution_is_exact(&cluster.world);
    for name in [
        "g0.engine.marked_green",
        "g1.engine.marked_green",
        "g1.evs.views_installed",
        "g1.net.dropped_partition",
        "g0.storage.sync_requests",
        "shard.single_routed",
        "shard.cross_routed",
    ] {
        assert!(checked.contains(name), "{name} was never exercised");
    }
}

//! Run reports: one-stop aggregation of every layer's counters for an
//! engine cluster, with a human-readable rendering. Used by examples
//! and by tests that assert on protocol costs (e.g. "no per-action
//! acknowledgements").

use std::collections::BTreeMap;
use std::fmt;

use todr_core::EngineState;
use todr_net::NodeId;
use todr_sim::{MetricsExport, SimTime};

use crate::cluster::Cluster;

/// The per-server counters a report captures, in display order.
const SERVER_COUNTERS: [&str; 12] = [
    "engine.actions_created",
    "engine.marked_red",
    "engine.marked_yellow",
    "storage.sync_requests",
    "storage.forced_writes",
    "engine.exchanges_completed",
    "engine.primaries_installed",
    "evs.submitted",
    "evs.sequenced",
    "evs.delivered_safe",
    "evs.delivered_trans",
    "evs.views_installed",
];

/// One server's counters.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The server.
    pub node: NodeId,
    /// Protocol state at capture time.
    pub state: EngineState,
    /// Green count at capture time.
    pub green: u64,
    /// The server's share of the engine, EVS and storage counters (its
    /// engine, daemon and disk actors summed), by metric name.
    pub counters: BTreeMap<&'static str, u64>,
}

impl ServerReport {
    /// The server's share of counter `name` (0 if not captured).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Cluster-wide counters at one instant.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Capture time.
    pub at: SimTime,
    /// Per-server rows.
    pub servers: Vec<ServerReport>,
    /// The world's typed observability bus: every counter and latency
    /// histogram recorded across net / EVS / storage / engine, plus the
    /// typed-event tallies. Deterministic for a fixed seed.
    pub metrics: MetricsExport,
}

impl ClusterReport {
    /// Captures a report from a cluster.
    pub fn capture(cluster: &mut Cluster) -> Self {
        let servers = (0..cluster.servers.len())
            .map(|i| {
                let handles = cluster.servers[i];
                let (state, green) = cluster.with_engine(i, |e| (e.state(), e.green_count()));
                let hub = cluster.world.metrics();
                let actors = [handles.engine, handles.daemon, handles.disk];
                let counters = BTreeMap::from(SERVER_COUNTERS.map(|name| {
                    let share = actors.iter().map(|&a| hub.actor_counter(a, name)).sum();
                    (name, share)
                }));
                ServerReport {
                    node: handles.node,
                    state,
                    green,
                    counters,
                }
            })
            .collect();
        ClusterReport {
            at: cluster.now(),
            servers,
            metrics: cluster.metrics_export(),
        }
    }

    /// The world-wide counter `name` at capture time (0 if never
    /// incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// The observability bus as deterministic, pretty-printed JSON —
    /// two runs with the same seed produce byte-identical output.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json_pretty()
    }

    /// Total forced-write requests across the cluster.
    pub fn total_syncs(&self) -> u64 {
        self.counter("storage.sync_requests")
    }

    /// Total actions marked green across the cluster (sum over
    /// replicas; divide by the replica count for unique actions).
    pub fn total_green_marks(&self) -> u64 {
        self.counter("engine.marked_green")
    }

    /// Total actions created (unique actions entering the system).
    pub fn total_actions_created(&self) -> u64 {
        self.counter("engine.actions_created")
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cluster report at {}", self.at)?;
        let [partition, loss, crash] = [
            "net.dropped_partition",
            "net.dropped_loss",
            "net.dropped_crashed",
        ]
        .map(|name| self.counter(name));
        writeln!(
            f,
            "  net: sent={} delivered={} dropped={} ({} partition / {} loss / {} crash), {} bytes",
            self.counter("net.sent"),
            self.counter("net.delivered"),
            partition + loss + crash,
            partition,
            loss,
            crash,
            self.counter("net.bytes_delivered"),
        )?;
        for s in &self.servers {
            let [created, red, yellow, syncs, performed, exch, prims, sub, seq, safe, trans, confs] =
                SERVER_COUNTERS.map(|name| s.counter(name));
            writeln!(
                f,
                "  {}: {:?} green={} created={created} red={red} yellow={yellow} syncs={syncs} \
                 (disk {performed} performed) exch={exch} prims={prims} \
                 evs[sub={sub} seq={seq} safe={safe} trans={trans} confs={confs}]",
                s.node, s.state, s.green,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::cluster::ClusterConfig;
    use todr_sim::SimDuration;

    #[test]
    fn report_reflects_protocol_cost_structure() {
        let mut cluster = Cluster::build(ClusterConfig::new(3, 51));
        cluster.settle();
        let client = cluster.attach_client(
            0,
            ClientConfig {
                max_requests: Some(50),
                ..ClientConfig::default()
            },
        );
        cluster.run_for(SimDuration::from_secs(3));
        assert_eq!(cluster.client_stats(client).committed, 50);
        let report = ClusterReport::capture(&mut cluster);

        // The paper's cost claim: ONE forced write per action, at the
        // origin only. Allow the handful of membership-change syncs.
        let actions = report.total_actions_created();
        assert!(actions >= 50);
        let syncs = report.total_syncs();
        assert!(
            syncs < actions + 30,
            "too many forced writes for {actions} actions: {syncs}"
        );

        // Every replica marked every action green.
        assert_eq!(report.total_green_marks() % 3, 0);
        let rendered = report.to_string();
        assert!(rendered.contains("cluster report"));
        assert!(rendered.contains("n0"));
    }
}

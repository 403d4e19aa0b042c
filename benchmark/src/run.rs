//! One seeded run of a workload: set-up, the measured window, the
//! drain and the output checks.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use todr::core::{EngineState, ReplicationEngine};
use todr::sim::{MetricsExport, ProtocolEvent, ReadTier, SimDuration, SimTime, World};

use crate::client::{Log, SetLive};
use crate::deploy::Deployment;
use crate::host::{self, peak_rss_mb, thread_cpu_ns};
use crate::trace::{self, Tally};
use crate::workload::{schedule, Fault, Spec, Window};

/// How long the initial primary may take to form.
const SETTLE_BOUND: SimDuration = SimDuration::from_secs(5);
/// How long the warm-up and window may take, in virtual time.
const PHASE_BOUND: SimDuration = SimDuration::from_secs(120);
/// How long outstanding requests have to be answered after the window.
const DRAIN_BOUND: SimDuration = SimDuration::from_secs(10);

/// Events between two slices of the reference workload.
pub const CHUNK_EVENTS: u64 = 20_000;

/// Histograms whose window means the traced run reports.
pub const HISTOGRAMS: [&str; 4] = [
    "evs.actions_per_frame",
    "storage.group_commit_batch",
    "engine.submit_batch",
    "engine.green_burst",
];

/// Everything one run measured.
pub struct Rep {
    /// On-CPU time of the benchmark thread in set-up (build, settle and
    /// warm-up) and in the window, reference slices excluded.
    pub setup_cpu_ns: u64,
    pub window_cpu_ns: u64,
    /// Mean on-CPU time of one reference slice during the run.
    pub slice_ns: f64,
    /// The process's resident-set high-water mark after the run, MB.
    pub peak_rss_mb: f64,
    pub window_start: SimTime,
    pub window_end: SimTime,
    pub window_events: u64,
    pub log: Log,
    /// Metrics at the window's edges and after the drain.
    pub before: MetricsExport,
    pub after: MetricsExport,
    pub last: MetricsExport,
    /// `(count, sum)` of each of [`HISTOGRAMS`] over the window.
    pub hist: Vec<(u64, u64)>,
    pub tally: Option<Tally>,
    pub failures: Vec<String>,
}

/// `(count, sum)` of histogram `name` summed over every group scope.
fn hist_totals(world: &World, export: &MetricsExport, name: &str) -> (u64, u64) {
    let mut total = (0, 0);
    for key in export.histograms.keys().filter(|k| scoped(k, name)) {
        let h = world.metrics().histogram(key).expect("exported histogram");
        let json = serde::json::to_string(h).expect("histograms serialize");
        let sum = json
            .split("\"sum\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse::<u64>().ok())
            .expect("a serialized histogram carries its sum");
        total.0 += h.count();
        total.1 += sum;
    }
    total
}

/// Whether metric `key` is `name`, at the root or under a group scope.
pub fn scoped(key: &str, name: &str) -> bool {
    key == name
        || key
            .split_once('.')
            .is_some_and(|(g, rest)| rest == name && g.starts_with('g'))
}

/// Counter `name` summed over every group scope.
pub fn counter(export: &MetricsExport, name: &str) -> u64 {
    export
        .counters
        .iter()
        .filter(|(k, _)| scoped(k, name))
        .map(|(_, v)| v)
        .sum()
}

/// Runs `spec` once with `seed`, plain or traced.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Rep {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut failures = Vec::new();

    let (cal_from, slices_from) = host::spent();
    let setup_from = thread_cpu_ns();
    let mut dep = Deployment::build(spec, seed, traced, log.clone());
    dep.calibrating = true;
    let settled = dep.run_while_not(SimTime::ZERO + SETTLE_BOUND, |d| {
        d.world().now() >= SimTime::ZERO + SimDuration::from_millis(100)
            && d.engine_states().iter().all(|s| *s == EngineState::RegPrim)
    });
    if !settled {
        failures.push("the initial primary component did not form".to_string());
    }
    dep.start_clients();
    let bound = dep.now() + PHASE_BOUND;
    if spec.open_interval.is_some() {
        let at = dep.now() + spec.warmup_time;
        dep.run_until(at);
    } else if !dep.run_while_not(bound, |d| d.log.borrow().replies >= spec.warmup_ops) {
        failures.push("warm-up did not complete".to_string());
    }
    let cal_setup = host::spent().0;
    let setup_cpu_ns = thread_cpu_ns() - setup_from - (cal_setup - cal_from);

    let before = dep.export();
    let hist_before: Vec<_> = HISTOGRAMS
        .iter()
        .map(|h| hist_totals(dep.world_ref(), &before, h))
        .collect();
    let window_start = dep.now();
    let events_before = dep.world_ref().events_processed();
    log.borrow_mut().measuring = true;
    if traced {
        trace::begin_window();
    }
    let cpu_from = thread_cpu_ns();
    match spec.window {
        Window::Ops(n) => {
            let bound = window_start + PHASE_BOUND;
            if !dep.run_while_not(bound, |d| d.log.borrow().completed >= n) {
                failures.push(format!("the window did not reach {n} completed requests"));
            }
        }
        Window::Cycles => {
            let (steps, total) = schedule(seed, spec.replicas as usize);
            for (offset, fault) in steps {
                dep.run_until(window_start + offset);
                apply(&mut dep, spec, fault);
            }
            dep.run_until(window_start + total);
        }
    }
    let (cal_to, slices_to) = host::spent();
    let window_cpu_ns = thread_cpu_ns() - cpu_from - (cal_to - cal_setup);
    dep.calibrating = false;
    let slice_ns = match slices_to - slices_from {
        0 => host::NOMINAL_SLICE_NS,
        n => (cal_to - cal_from) as f64 / n as f64,
    };
    let tally = traced.then(|| {
        let mut t = trace::end_window();
        trace::settle_kernel(&mut t);
        t
    });
    let window_end = dep.now();
    let window_events = dep.world_ref().events_processed() - events_before;
    {
        let mut log = log.borrow_mut();
        log.measuring = false;
        log.stopped = true;
    }
    let after = dep.export();
    let hist = HISTOGRAMS
        .iter()
        .zip(&hist_before)
        .map(|(h, b)| {
            let a = hist_totals(dep.world_ref(), &after, h);
            (a.0 - b.0, a.1 - b.1)
        })
        .collect();

    let bound = dep.now() + DRAIN_BOUND;
    dep.run_while_not(bound, |d| {
        d.log.borrow().outstanding == 0 && d.router_pending() == 0
    });
    check(&mut dep, spec, &mut failures);
    let stale_reads = if spec.read_leases {
        count_stale_lease_reads(dep.world_ref())
    } else {
        0
    };
    if stale_reads > 0 {
        failures.push(format!(
            "{stale_reads} lease reads missed an acknowledged write"
        ));
    }
    if log.borrow().attempted == 0 {
        failures.push("no request was issued inside the window".to_string());
    }
    let last = dep.export();
    drop(dep);
    let log = Rc::try_unwrap(log)
        .expect("the deployment and its clients are gone")
        .into_inner();
    Rep {
        setup_cpu_ns,
        window_cpu_ns,
        slice_ns,
        peak_rss_mb: peak_rss_mb(),
        window_start,
        window_end,
        window_events,
        log,
        before,
        after,
        last,
        hist,
        tally,
        failures,
    }
}

fn apply(dep: &mut Deployment, spec: &Spec, fault: Fault) {
    let generator = dep.clients[0];
    match fault {
        Fault::Split { minority } => dep.split(&minority),
        Fault::Heal => dep.heal(),
        Fault::Drain(i) => dep.world().schedule_now(
            generator,
            SetLive {
                index: i,
                live: false,
            },
        ),
        Fault::Crash(i) => dep.crash(i, spec.torn_crashes),
        Fault::Recover(i) => dep.recover(i),
        Fault::Resume(i) => dep.world().schedule_now(
            generator,
            SetLive {
                index: i,
                live: true,
            },
        ),
    }
}

/// The output checks every run ends with.
fn check(dep: &mut Deployment, spec: &Spec, failures: &mut Vec<String>) {
    if spec.open_interval.is_some() {
        // Every replica must have rejoined and converged on one state.
        let bound = dep.now() + DRAIN_BOUND;
        let converged = dep.run_while_not(bound, |d| {
            let states = d.engine_states();
            let views: BTreeSet<(u64, u64)> = d
                .engines()
                .into_iter()
                .map(|e| {
                    d.with(e, |e: &mut ReplicationEngine| {
                        (e.green_count(), e.db_digest())
                    })
                })
                .collect();
            states.iter().all(|s| *s == EngineState::RegPrim) && views.len() == 1
        });
        if !converged {
            let states = dep.engine_states();
            failures.push(format!(
                "replicas did not all rejoin and converge after the schedule: states {states:?}"
            ));
        }
    }
    if let Err(e) = dep.check_consistency() {
        failures.push(format!("consistency check: {e}"));
    }
}

/// Lease-served reads that missed an already-acknowledged write,
/// recounted from the typed event trace: a lease read is stale when
/// the version it observed for a row is below the number of distinct
/// strongly acknowledged writes to that row at serve time.
fn count_stale_lease_reads(world: &World) -> u64 {
    let mut footprints: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
    let mut acked: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut acked_by_row: BTreeMap<u64, u64> = BTreeMap::new();
    let mut stale = 0;
    for rec in world.metrics().events() {
        match &rec.event {
            ProtocolEvent::ActionFootprint {
                node,
                action_seq,
                writes,
                writes_unbounded: false,
                ..
            } => {
                let mut w = writes.clone();
                w.sort_unstable();
                w.dedup();
                footprints.insert((*node, *action_seq), w);
            }
            ProtocolEvent::UpdateAcked {
                creator,
                action_seq,
                ..
            } if acked.insert((*creator, *action_seq)) => {
                for row in footprints
                    .get(&(*creator, *action_seq))
                    .into_iter()
                    .flatten()
                {
                    *acked_by_row.entry(*row).or_insert(0) += 1;
                }
            }
            ProtocolEvent::ReadServed {
                key_fp,
                tier: ReadTier::LeaseLinearizable,
                version,
                ..
            } if *version < acked_by_row.get(key_fp).copied().unwrap_or(0) => stale += 1,
            _ => {}
        }
    }
    stale
}

impl Rep {
    /// Successful replies inside the window.
    pub fn ops(&self) -> u64 {
        self.log.completed
    }

    pub fn failed(&self) -> u64 {
        self.log.rejected + self.log.outstanding
    }

    pub fn window_s(&self) -> f64 {
        self.window_end
            .saturating_since(self.window_start)
            .as_secs_f64()
    }

    /// Converts this run's on-CPU ns to ns at the reference speed.
    fn at_reference(&self, ns: u64) -> f64 {
        ns as f64 * host::NOMINAL_SLICE_NS / self.slice_ns
    }

    /// Set-up seconds at the reference speed.
    pub fn setup_s(&self) -> f64 {
        self.at_reference(self.setup_cpu_ns) / 1e9
    }

    /// Window host ns at the reference speed.
    pub fn window_host_ns(&self) -> f64 {
        self.at_reference(self.window_cpu_ns)
    }

    /// Host µs per completed request at the reference speed.
    pub fn host_us_per_op(&self) -> f64 {
        self.window_host_ns() / 1e3 / self.ops().max(1) as f64
    }

    /// The first virtual-time output in which `other` differs, if any.
    pub fn virtual_difference(&self, other: &Rep) -> Option<String> {
        let (a, b) = (&self.log, &other.log);
        let fields: [(&str, bool); 12] = [
            ("window length", self.window_end == other.window_end),
            ("window start", self.window_start == other.window_start),
            ("events stepped", self.window_events == other.window_events),
            ("attempted requests", a.attempted == b.attempted),
            ("completed requests", a.completed == b.completed),
            ("failed requests", self.failed() == other.failed()),
            ("write latency samples", a.write_ns == b.write_ns),
            ("read latency samples", a.read_ns == b.read_ns),
            ("transaction latency samples", a.txn_ns == b.txn_ns),
            ("reply instants", a.replies_at == b.replies_at),
            (
                "metrics export",
                self.before == other.before && self.after == other.after,
            ),
            ("metrics export after the drain", self.last == other.last),
        ];
        fields
            .iter()
            .find(|(_, same)| !same)
            .map(|(what, _)| what.to_string())
    }

    pub fn summary_line(&self, index: usize) -> String {
        format!(
            "run {index}: set-up {:.3} s, window {:.3} s virtual, {} ops, on-CPU {:.3} s, \
             reference slice {:.3} ms, {:.2} us/op at the reference speed",
            self.setup_s(),
            self.window_s(),
            self.ops(),
            self.window_cpu_ns as f64 / 1e9,
            self.slice_ns / 1e6,
            self.host_us_per_op()
        )
    }
}

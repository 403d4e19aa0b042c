//! Turns runs into the named metrics and the result line.

use crate::run::{counter, Rep, HISTOGRAMS};
use crate::trace::{Layer, Tally, LAYER_NAMES};
use crate::workload::{Spec, Window};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The exact nearest-rank percentile of unsorted samples, in ms.
fn percentile_ms(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1] as f64 / 1e6
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Write and transaction latencies together: everything that commits.
fn commit_samples(rep: &Rep) -> Vec<u64> {
    let mut s = rep.log.write_ns.clone();
    s.extend_from_slice(&rep.log.txn_ns);
    s
}

/// The parts `unavail_ms` splits a window into: one per fault cycle,
/// or one per [`GAP_SLICE_S`] of virtual time.
fn gap_slices(spec: &Spec, rep: &Rep) -> u32 {
    match spec.window {
        Window::Cycles => spec.replicas,
        Window::Ops(_) => (rep.window_s() / GAP_SLICE_S).ceil().max(1.0) as u32,
    }
}

/// Virtual seconds per `unavail_ms` part outside fault schedules.
const GAP_SLICE_S: f64 = 0.02;

/// The longest stretch without a completed request in each of `slices`
/// equal parts of the window (part edges included), averaged over the
/// parts, in ms of virtual time. A single maximum over the window is
/// an extreme value and swings with the seed; the mean of per-part
/// maxima repeats within a few percent, and under churn, with one part
/// per fault cycle, it is the outage each cycle causes.
fn unavail_ms(rep: &Rep, slices: u32) -> f64 {
    let start = rep.window_start.as_nanos();
    let len = rep.window_end.as_nanos() - start;
    let mut total = 0;
    let mut replies = rep.log.replies_at.iter().map(|t| t.as_nanos()).peekable();
    for i in 0..u64::from(slices) {
        let (from, to) = (
            start + len * i / u64::from(slices),
            start + len * (i + 1) / u64::from(slices),
        );
        let (mut prev, mut longest) = (from, 0);
        while let Some(t) = replies.next_if(|&t| t <= to) {
            longest = longest.max(t - prev);
            prev = t;
        }
        total += longest.max(to - prev);
    }
    total as f64 / f64::from(slices) / 1e6
}

/// The end-to-end metrics: virtual time and memory from the first run
/// (every run of one seed is identical, and later runs would also see
/// the heap the earlier ones fragmented), host time as the median over
/// the runs.
pub fn end_to_end(spec: &Spec, reps: &[Rep]) -> Vec<Metric> {
    let first = &reps[0];
    let commits = commit_samples(first);
    let mut host: Vec<f64> = reps.iter().map(Rep::host_us_per_op).collect();
    let mut setup: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    vec![
        metric("commit_p50_ms", "ms", percentile_ms(&commits, 50.0)),
        metric("commit_p99_ms", "ms", percentile_ms(&commits, 99.0)),
        metric("read_p50_ms", "ms", percentile_ms(&first.log.read_ns, 50.0)),
        metric("read_p99_ms", "ms", percentile_ms(&first.log.read_ns, 99.0)),
        metric("ops_per_s", "ops/s", first.ops() as f64 / first.window_s()),
        metric(
            "unavail_ms",
            "ms",
            unavail_ms(first, gap_slices(spec, first)),
        ),
        metric("host_us_per_op", "us", median(&mut host)),
        metric("setup_s", "s", median(&mut setup)),
        metric("peak_rss_mb", "MB", first.peak_rss_mb),
    ]
}

/// The per-layer metrics of the traced run, per completed request
/// unless the name says otherwise.
pub fn per_layer(plain: &Rep, traced: &Rep) -> Vec<Metric> {
    let t: &Tally = traced.tally.as_ref().expect("the traced run has a tally");
    let ops = traced.ops().max(1) as f64;
    let delta = |name: &str| (counter(&traced.after, name) - counter(&traced.before, name)) as f64;
    let hist_mean = |name: &str| {
        let i = HISTOGRAMS
            .iter()
            .position(|h| *h == name)
            .expect("tracked histogram");
        let (count, sum) = traced.hist[i];
        ratio(sum as f64, count as f64)
    };
    let host = |l: Layer| t.self_ns[l as usize] as f64 / ops;
    let allocs = |l: Layer| t.allocs[l as usize] as f64 / ops;

    let mut m = Vec::new();
    m.push(metric("sim.events_per_op", "count", t.steps as f64 / ops));
    m.push(metric(
        "sim.self_ns_per_event",
        "ns",
        ratio(t.self_ns[Layer::Sim as usize] as f64, t.steps as f64),
    ));
    for layer in [
        Layer::Sim,
        Layer::Net,
        Layer::Evs,
        Layer::Storage,
        Layer::Engine,
        Layer::Shard,
        Layer::Client,
    ] {
        let name = LAYER_NAMES[layer as usize];
        m.push(metric(format!("{name}.host_ns_per_op"), "ns", host(layer)));
        m.push(metric(
            format!("{name}.allocs_per_op"),
            "count",
            allocs(layer),
        ));
    }
    m.push(metric(
        "net.datagrams_per_op",
        "count",
        delta("net.sent") / ops,
    ));
    m.push(metric(
        "net.bytes_per_op",
        "B",
        delta("net.bytes_delivered") / ops,
    ));
    m.push(metric(
        "evs.acks_per_op",
        "count",
        delta("evs.acks_sent") / ops,
    ));
    m.push(metric(
        "evs.actions_per_frame",
        "count",
        hist_mean("evs.actions_per_frame"),
    ));
    m.push(metric(
        "evs.views_installed",
        "count",
        delta("evs.views_installed"),
    ));
    m.push(metric(
        "evs.retransmitted",
        "count",
        delta("evs.retransmitted"),
    ));
    m.push(metric(
        "storage.bytes_per_op",
        "B",
        t.storage_bytes as f64 / ops,
    ));
    m.push(metric(
        "storage.ckpt_bytes_per_op",
        "B",
        t.ckpt_bytes as f64 / ops,
    ));
    m.push(metric(
        "storage.forced_writes_per_op",
        "count",
        delta("storage.forced_writes") / ops,
    ));
    m.push(metric(
        "storage.group_commit_batch",
        "count",
        hist_mean("storage.group_commit_batch"),
    ));
    m.push(metric(
        "storage.sync_wait_ms",
        "ms",
        ratio(t.sync_wait_ns as f64 / 1e6, t.sync_waits as f64),
    ));
    m.push(metric(
        "engine.ckpt_host_share",
        "ratio",
        ratio(t.ckpt_ns as f64, t.step_ns as f64),
    ));
    m.push(metric(
        "engine.ckpt_ms_per_call",
        "ms",
        ratio(t.ckpt_ns as f64 / 1e6, t.ckpt_calls as f64),
    ));
    m.push(metric(
        "engine.recover_ms",
        "ms",
        ratio(t.recover_ns as f64 / 1e6, t.recover_calls as f64),
    ));
    m.push(metric(
        "engine.submit_batch",
        "count",
        hist_mean("engine.submit_batch"),
    ));
    m.push(metric(
        "engine.green_burst",
        "count",
        hist_mean("engine.green_burst"),
    ));
    let (fast, demoted) = (delta("engine.fast_commits"), delta("engine.fast_demotions"));
    m.push(metric(
        "engine.fast_share",
        "ratio",
        ratio(fast, fast + demoted),
    ));
    let (lease, ordered) = (delta("engine.lease_reads"), delta("engine.ordered_reads"));
    m.push(metric(
        "engine.lease_share",
        "ratio",
        ratio(lease, lease + ordered),
    ));
    m.push(metric(
        "engine.parked_per_read",
        "ratio",
        ratio(delta("engine.lease_reads_parked"), lease + ordered),
    ));
    m.push(metric(
        "engine.exchanges",
        "count",
        delta("engine.exchanges_completed"),
    ));
    m.push(metric(
        "engine.retransmitted",
        "count",
        delta("engine.retransmitted"),
    ));
    m.push(metric(
        "engine.backpressure_rejects",
        "count",
        delta("engine.backpressure_rejects"),
    ));
    m.push(metric(
        "shard.retries_per_txn",
        "ratio",
        ratio(delta("shard.retries"), delta("shard.cross_routed")),
    ));
    m.push(metric(
        "shard.txn_p99_ms",
        "ms",
        percentile_ms(&traced.log.txn_ns, 99.0),
    ));
    m.push(metric(
        "client.failed_frac",
        "ratio",
        ratio(traced.failed() as f64, traced.log.attempted as f64),
    ));
    m.push(metric(
        "trace.overhead_pct",
        "%",
        100.0
            * ratio(
                traced.window_host_ns() - plain.window_host_ns(),
                plain.window_host_ns(),
            ),
    ));
    m
}

/// The result line and what it was computed from.
pub struct Output {
    attempted: u64,
    failed: u64,
    samples: Vec<(&'static str, usize)>,
    metrics: Vec<Metric>,
}

impl Output {
    pub fn new(rep: &Rep, metrics: Vec<Metric>) -> Self {
        Output {
            attempted: rep.log.attempted,
            failed: rep.failed(),
            samples: vec![
                ("commit", rep.log.write_ns.len() + rep.log.txn_ns.len()),
                ("read", rep.log.read_ns.len()),
                ("txn", rep.log.txn_ns.len()),
            ],
            metrics,
        }
    }

    /// The sample count behind each percentile.
    pub fn sample_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .samples
            .iter()
            .map(|(what, n)| format!("samples {what}: {n} (p50 and p99 are exact ranks)"))
            .collect();
        for m in &self.metrics {
            lines.push(format!("{} = {} {}", m.name, m.value, m.unit));
        }
        lines
    }

    pub fn to_json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

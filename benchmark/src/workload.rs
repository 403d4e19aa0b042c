//! The four workloads, and everything the seed decides in them: keys,
//! request mix and the fault schedule. The program under test only
//! ever sees the requests and the faults.

use std::rc::Rc;

use todr::core::UpdateReplyPolicy;
use todr::db::keys::shard_of;
use todr::sim::{SimDuration, SimRng};
use todr::storage::DiskMode;

/// The forced-write latency of every workload with forced writes.
pub const FORCED: DiskMode = DiskMode::Forced {
    sync_latency: SimDuration::from_millis(10),
};

/// Where keys come from.
#[derive(Debug, Clone)]
pub enum Keys {
    /// `rows` rows; every client first writes its share of fresh rows
    /// (nothing but those writes until they are done),
    /// so the table reaches `rows` rows during warm-up, then picks
    /// rows uniformly.
    Filled { rows: u64 },
    /// YCSB-style Zipfian popularity over a small key space (the
    /// cumulative distribution over key ranks).
    Zipf { cdf: Rc<Vec<f64>> },
    /// Per-shard key pools, so the shard a request lands on is chosen
    /// explicitly rather than by accident of hashing.
    Pools { pools: Rc<Vec<Vec<String>>> },
}

impl Keys {
    fn zipf(keys: u32, theta: f64) -> Keys {
        let mut cdf: Vec<f64> = (1..=keys).map(|r| 1.0 / f64::from(r).powf(theta)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        Keys::Zipf { cdf: Rc::new(cdf) }
    }

    fn pools(shards: u32, per_shard: usize) -> Keys {
        let mut pools: Vec<Vec<String>> = vec![Vec::new(); shards as usize];
        let mut j = 0u64;
        while pools.iter().any(|p| p.len() < per_shard) {
            let key = format!("s{j}");
            let pool = &mut pools[shard_of("bench", &key, shards) as usize];
            if pool.len() < per_shard {
                pool.push(key);
            }
            j += 1;
        }
        Keys::Pools {
            pools: Rc::new(pools),
        }
    }

    /// Rows the clients fill before picking keys at random.
    pub fn fill_rows(&self) -> u64 {
        match self {
            Keys::Filled { rows } => *rows,
            _ => 0,
        }
    }

    /// The name of fill row `i`.
    pub fn name(&self, i: u64) -> String {
        format!("k{i}")
    }

    /// One key drawn from the distribution.
    pub fn sample(&self, rng: &mut SimRng) -> String {
        match self {
            Keys::Filled { rows } => self.name(rng.gen_range(*rows)),
            Keys::Zipf { cdf } => {
                let u = rng.next_f64();
                format!("z{}", cdf.partition_point(|&c| c < u))
            }
            Keys::Pools { pools } => {
                let pool = &pools[rng.gen_range(pools.len() as u64) as usize];
                pool[rng.gen_range(pool.len() as u64) as usize].clone()
            }
        }
    }

    /// Two keys on two distinct shards.
    ///
    /// # Panics
    ///
    /// Panics unless the keys are per-shard pools over two shards or
    /// more.
    pub fn cross_pair(&self, rng: &mut SimRng) -> (String, String) {
        let Keys::Pools { pools } = self else {
            panic!("cross-shard transactions need per-shard key pools");
        };
        let n = pools.len() as u64;
        let a = rng.gen_range(n);
        let b = (a + 1 + rng.gen_range(n - 1)) % n;
        let pick = |s: u64, rng: &mut SimRng| {
            let pool = &pools[s as usize];
            pool[rng.gen_range(pool.len() as u64) as usize].clone()
        };
        let ka = pick(a, rng);
        (ka, pick(b, rng))
    }
}

/// How long the measured window lasts.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Until this many requests have completed inside it.
    Ops(u64),
    /// One cycle of the fault schedule per replica.
    Cycles,
}

/// One workload: the deployment, the load and the window.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Replication groups (1 = one group without a router).
    pub shards: u32,
    /// Replicas per group.
    pub replicas: u32,
    /// Load generators: closed-loop clients, or one open-loop generator.
    pub clients: u32,
    pub disk: DiskMode,
    /// EVS packing: submissions per wire frame.
    pub pack: usize,
    pub read_leases: bool,
    pub fast_path: bool,
    pub torn_crashes: bool,
    /// Reply policy of single-row writes.
    pub write_policy: UpdateReplyPolicy,
    /// Out of every 1000 requests, how many are linearizable reads and
    /// how many are cross-shard transactions.
    pub read_permille: u32,
    pub cross_permille: u32,
    pub keys: Keys,
    /// `Some(interval)`: one open-loop generator sending every
    /// `interval`; `None`: closed loops.
    pub open_interval: Option<SimDuration>,
    /// Completed requests before the window opens (closed loops), or
    /// virtual time (open loop).
    pub warmup_ops: u64,
    pub warmup_time: SimDuration,
    pub window: Window,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "write-heavy",
    "read-mostly",
    "partition-churn",
    "sharded-mix",
];

/// The workload called `name`, or `None`.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        shards: 1,
        replicas: 5,
        clients: 10,
        disk: FORCED,
        pack: 1,
        read_leases: false,
        fast_path: false,
        torn_crashes: false,
        write_policy: UpdateReplyPolicy::OnGreen,
        read_permille: 0,
        cross_permille: 0,
        keys: Keys::Filled { rows: 0 },
        open_interval: None,
        warmup_ops: 0,
        warmup_time: SimDuration::ZERO,
        window: Window::Ops(0),
    };
    let spec = match name {
        // The paper's 14-machine testbed at full load: one closed-loop
        // client per replica, delayed writes, packing 8. Reads here are
        // linearizable without leases, so every request is ordered.
        "write-heavy" => Spec {
            replicas: 14,
            clients: 14,
            disk: DiskMode::Delayed,
            pack: 8,
            read_permille: 250,
            keys: Keys::Filled { rows: 2560 },
            warmup_ops: 2700,
            window: Window::Ops(4096),
            ..base
        },
        "read-mostly" => Spec {
            read_leases: true,
            fast_path: true,
            write_policy: UpdateReplyPolicy::Fast,
            read_permille: 950,
            keys: Keys::zipf(64, 0.99),
            warmup_ops: 20_000,
            window: Window::Ops(400_000),
            ..base
        },
        "partition-churn" => Spec {
            clients: 1,
            torn_crashes: true,
            read_permille: 150,
            keys: Keys::Filled { rows: 256 },
            open_interval: Some(SimDuration::from_micros(800)),
            warmup_time: SimDuration::from_millis(1000),
            window: Window::Cycles,
            ..base
        },
        "sharded-mix" => Spec {
            shards: 2,
            replicas: 3,
            clients: 12,
            read_permille: 100,
            cross_permille: 50,
            keys: Keys::pools(2, 256),
            warmup_ops: 1000,
            window: Window::Ops(32_768),
            ..base
        },
        _ => return None,
    };
    Some(spec)
}

/// One step of the fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Cut the replicas in `minority` off from the rest.
    Split { minority: Vec<usize> },
    /// Reconnect every replica.
    Heal,
    /// Stop sending requests to a replica ahead of its crash, so no
    /// request dies with it.
    Drain(usize),
    /// Crash a replica (torn when the workload says so).
    Crash(usize),
    /// Recover a crashed replica from its stable storage.
    Recover(usize),
    /// Send requests to a recovered replica again.
    Resume(usize),
}

/// The fault schedule of one cycle per replica, as offsets from the
/// start of the window. Cycle `c` splits replicas `v+1` and `v+2` off
/// from the rest, heals, then crashes replica `v` and recovers it, where
/// `v` is `c` plus a seed-drawn offset: over the schedule every replica
/// crashes once and every cycle cuts a different pair, so the seed
/// changes the order and, by up to ±2%, the length of every phase, but
/// not how much work the schedule makes.
pub fn schedule(seed: u64, replicas: usize) -> (Vec<(SimDuration, Fault)>, SimDuration) {
    let mut rng = SimRng::new(seed ^ 0x5C4E_D01E_FA17_5EED);
    let offset = rng.gen_range(replicas as u64) as usize;
    let mut jitter = |ms: u64| {
        let spread = ms / 50;
        SimDuration::from_millis(ms - spread + rng.gen_range(2 * spread + 1))
    };
    let mut steps = Vec::new();
    let mut at = SimDuration::ZERO;
    for c in 0..replicas {
        let v = (offset + c) % replicas;
        let mut minority = vec![(v + 1) % replicas, (v + 2) % replicas];
        minority.sort_unstable();
        let cycle = [
            (jitter(300), Fault::Split { minority }),
            (jitter(800), Fault::Heal),
            (jitter(700), Fault::Drain(v)),
            (SimDuration::from_millis(100), Fault::Crash(v)),
            (jitter(500), Fault::Recover(v)),
            (jitter(300), Fault::Resume(v)),
        ];
        for (gap, fault) in cycle {
            at += gap;
            steps.push((at, fault));
        }
        at += jitter(700);
    }
    (steps, at)
}

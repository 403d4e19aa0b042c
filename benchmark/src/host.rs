//! Host-side measurement: the thread's on-CPU clock, the process's
//! memory high-water mark, and a fixed reference workload that measures
//! how fast this machine runs right now, so host times can be stated at
//! one reference speed.
//!
//! On a shared machine the same code runs up to half again slower for
//! stretches of seconds while neighbours load the caches and memory
//! bus; excluding descheduled time does not remove that. A slice of
//! this workload (string-keyed map updates with 160-byte values, and
//! rows rendered as text: the kind of work the engine and its snapshot
//! codec do) runs after every [`CHUNK_EVENTS`] events, outside the measured time, and a host time is reported as
//! `on-CPU time × NOMINAL_SLICE_NS / measured slice time`.
//!
//! [`CHUNK_EVENTS`]: crate::run::CHUNK_EVENTS

use std::cell::RefCell;
use std::collections::BTreeMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's on-CPU time, in ns: time spent descheduled on a
/// shared machine does not count. This is the counter
/// `/proc/thread-self/schedstat` shows first, but brought up to date
/// at the call instead of at the last scheduler tick.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rows in the reference map.
const ROWS: u64 = 20_000;
/// Slices run, unmeasured, before the first measured one.
const WARM_SLICES: u32 = 40;
/// Map updates per slice.
const SLICE_OPS: u32 = 1_000;
/// The slice time host times are scaled to, in ns: a round figure near
/// one slice on the 2-core x86-64 VM the benchmark was tuned on (1.3 to
/// 1.5 ms there). It sets the unit; the scaling is what steadies the
/// figures.
pub const NOMINAL_SLICE_NS: f64 = 1.0e6;

struct Reference {
    rows: BTreeMap<String, Vec<u8>>,
    state: u64,
    spent_ns: u64,
    slices: u64,
}

impl Reference {
    fn new() -> Self {
        let mut r = Reference {
            rows: (0..ROWS)
                .map(|i| (format!("key{i}"), vec![1; 160]))
                .collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            spent_ns: 0,
            slices: 0,
        };
        // A freshly built map runs faster than one whose rows have been
        // replaced many times; start from the steady state.
        for _ in 0..WARM_SLICES {
            r.slice();
        }
        r.spent_ns = 0;
        r.slices = 0;
        r
    }

    fn slice(&mut self) {
        use std::fmt::Write;
        let from = thread_cpu_ns();
        let mut text = String::new();
        for i in 0..SLICE_OPS {
            // xorshift64: a fixed key sequence.
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let key = format!("key{}", self.state % ROWS);
            if i % 16 == 0 {
                // Render a row as text, as a snapshot codec would.
                let row = &self.rows[&key];
                let _ = write!(text, "{{\"{key}\":{row:?}}}");
            }
            self.rows.insert(key, vec![self.state as u8; 160]);
        }
        std::hint::black_box((self.rows.len(), text.len()));
        self.spent_ns += thread_cpu_ns() - from;
        self.slices += 1;
    }
}

thread_local! {
    static REFERENCE: RefCell<Reference> = RefCell::new(Reference::new());
}

/// Runs one slice of the reference workload.
pub fn slice() {
    REFERENCE.with(|r| r.borrow_mut().slice());
}

/// On-CPU ns spent in slices so far, and the number of slices.
pub fn spent() -> (u64, u64) {
    REFERENCE.with(|r| {
        let r = r.borrow();
        (r.spent_ns, r.slices)
    })
}

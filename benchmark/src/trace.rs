//! Per-layer accounting for the traced run, measured from outside the
//! program: a timing wrapper around every actor, a timing wrapper around
//! every stable store, and a counting global allocator.
//!
//! Spans nest. A layer's self time is its span's duration minus the
//! spans that ran inside it (the storage calls an engine event makes,
//! for instance), and every allocation is charged to the innermost open
//! span. Host times come from the monotonic clock; the end-to-end host
//! clock (on-CPU time) lives in `main.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use todr::core::EngineCtl;
use todr::sim::{Actor, ActorId, Ctx, Payload, SimRng, SimTime};
use todr::storage::{
    DiskDone, DiskOp, FileIoStats, InjectedFault, LogFault, LogRecord, StableStore, Storage,
    StorageError,
};

/// The layers host time and allocations are charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark code outside any event.
    Other = 0,
    /// The event kernel (`World::step` outside the handler).
    Sim,
    /// The network fabric.
    Net,
    /// The EVS daemons.
    Evs,
    /// Disk actors and stable stores.
    Storage,
    /// Replication engines (database apply included).
    Engine,
    /// The shard router.
    Shard,
    /// The benchmark's own load generators.
    Client,
}

pub const LAYERS: usize = 8;

pub const LAYER_NAMES: [&str; LAYERS] = [
    "other", "sim", "net", "evs", "storage", "engine", "shard", "client",
];

static COUNTING: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicUsize = AtomicUsize::new(Layer::Other as usize);
static ALLOCS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];

/// The system allocator, counting allocations per current layer while
/// counting is on. The benchmark is single-threaded, so the relaxed
/// counters publish nothing but themselves.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count() {
    if COUNTING.load(Relaxed) {
        ALLOCS[CURRENT.load(Relaxed)].fetch_add(1, Relaxed);
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// Everything the wrappers observe in one measured window.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Self host time per layer, ns.
    pub self_ns: [u64; LAYERS],
    /// Host time of every `World::step`, ns.
    pub step_ns: u64,
    /// Events stepped.
    pub steps: u64,
    /// Allocations per layer.
    pub allocs: [u64; LAYERS],
    /// Bytes handed to the stores (log entries and records).
    pub storage_bytes: u64,
    /// Bytes of checkpoint base records.
    pub ckpt_bytes: u64,
    /// Engine events during which the store truncated its log, and
    /// their host time including the nested storage calls.
    pub ckpt_calls: u64,
    pub ckpt_ns: u64,
    /// `Recover` events and their host time.
    pub recover_calls: u64,
    pub recover_ns: u64,
    /// Virtual time from a forced-write request reaching the disk to
    /// its completion reaching the engine.
    pub sync_waits: u64,
    pub sync_wait_ns: u64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Frame>,
    tally: Tally,
    truncated: bool,
    sync_started: HashMap<(ActorId, u64), SimTime>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Clears the tally and starts counting allocations.
pub fn begin_window() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.tally = Tally::default();
        t.sync_started.clear();
    });
    for a in &ALLOCS {
        a.store(0, Relaxed);
    }
    COUNTING.store(true, Relaxed);
}

/// Stops counting and returns the window's tally.
pub fn end_window() -> Tally {
    COUNTING.store(false, Relaxed);
    let mut tally = TRACER.with(|t| std::mem::take(&mut t.borrow_mut().tally));
    for (dst, a) in tally.allocs.iter_mut().zip(&ALLOCS) {
        *dst = a.load(Relaxed);
    }
    tally
}

/// Runs `f` as a span of `layer`; returns its result and the span's
/// total duration in ns (children included).
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    CURRENT.store(layer as usize, Relaxed);
    let out = f();
    let end = Instant::now();
    let total = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let frame = t.stack.pop().expect("span stack underflow");
        let total = end.duration_since(frame.start).as_nanos() as u64;
        t.tally.self_ns[frame.layer as usize] += total.saturating_sub(frame.child_ns);
        let outer = match t.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += total;
                parent.layer
            }
            None => Layer::Sim,
        };
        CURRENT.store(outer as usize, Relaxed);
        total
    });
    (out, total)
}

/// Steps the world once, charging the kernel the step's time outside
/// the handler. Returns `false` when the queue is empty.
pub fn step(world: &mut todr::sim::World) -> bool {
    CURRENT.store(Layer::Sim as usize, Relaxed);
    let start = Instant::now();
    let stepped = world.step();
    let total = start.elapsed().as_nanos() as u64;
    CURRENT.store(Layer::Other as usize, Relaxed);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.tally.step_ns += total;
        if stepped {
            t.tally.steps += 1;
        }
    });
    stepped
}

/// Closes the step's accounting: the kernel's self time is whatever the
/// handlers' spans did not cover.
pub fn settle_kernel(tally: &mut Tally) {
    let handlers: u64 = tally.self_ns[Layer::Net as usize..].iter().sum();
    tally.self_ns[Layer::Sim as usize] = tally.step_ns.saturating_sub(handlers);
}

/// An actor whose `handle` runs as a span of one layer. Engines and
/// disks also have their forced-write waits, recoveries and
/// checkpoints observed.
pub struct Timed<A> {
    pub inner: A,
    layer: Layer,
}

impl<A> Timed<A> {
    pub fn new(layer: Layer, inner: A) -> Self {
        Timed { inner, layer }
    }
}

impl<A: Actor> Actor for Timed<A> {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let now = ctx.now();
        let me = ctx.self_id();
        let mut recover = false;
        match self.layer {
            Layer::Storage => {
                if let Some(DiskOp::Sync { token, reply_to }) = payload.downcast_ref::<DiskOp>() {
                    let key = (*reply_to, token.0);
                    TRACER.with(|t| t.borrow_mut().sync_started.insert(key, now));
                }
            }
            Layer::Engine => {
                if let Some(done) = payload.downcast_ref::<DiskDone>() {
                    TRACER.with(|t| {
                        let mut t = t.borrow_mut();
                        if let Some(at) = t.sync_started.remove(&(me, done.token.0)) {
                            t.tally.sync_waits += 1;
                            t.tally.sync_wait_ns += now.saturating_since(at).as_nanos();
                        }
                    });
                }
                recover = matches!(
                    payload.downcast_ref::<EngineCtl>(),
                    Some(EngineCtl::Recover)
                );
                TRACER.with(|t| t.borrow_mut().truncated = false);
            }
            _ => {}
        }
        let ((), total) = span(self.layer, || self.inner.handle(ctx, payload));
        if self.layer == Layer::Engine {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                if recover {
                    t.tally.recover_calls += 1;
                    t.tally.recover_ns += total;
                }
                if std::mem::take(&mut t.truncated) {
                    t.tally.ckpt_calls += 1;
                    t.tally.ckpt_ns += total;
                }
            });
        }
    }
}

/// The engine's record key of the checkpoint base (the green database
/// snapshot a log truncation compacts onto).
const BASE_RECORD: &str = "base";

/// The simulated stable store with every call timed as storage.
#[derive(Debug, Default)]
pub struct TimedStore(StableStore);

fn stored(bytes: usize, checkpoint: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.tally.storage_bytes += bytes as u64;
        if checkpoint {
            t.tally.ckpt_bytes += bytes as u64;
        }
    });
}

impl Storage for TimedStore {
    fn put_record_bytes(&mut self, key: &str, bytes: Vec<u8>) {
        stored(bytes.len(), key == BASE_RECORD);
        span(Layer::Storage, || {
            Storage::put_record_bytes(&mut self.0, key, bytes)
        });
    }

    fn delete_record(&mut self, key: &str) {
        span(Layer::Storage, || Storage::delete_record(&mut self.0, key));
    }

    fn get_record_bytes(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError> {
        span(Layer::Storage, || Storage::get_record_bytes(&self.0, key)).0
    }

    fn append_log(&mut self, entry: Vec<u8>) {
        stored(entry.len(), false);
        span(Layer::Storage, || Storage::append_log(&mut self.0, entry));
    }

    fn set_epoch(&mut self, epoch: u64) {
        span(Layer::Storage, || Storage::set_epoch(&mut self.0, epoch));
    }

    fn epoch(&self) -> u64 {
        span(Layer::Storage, || Storage::epoch(&self.0)).0
    }

    fn log_len(&self) -> usize {
        span(Layer::Storage, || Storage::log_len(&self.0)).0
    }

    fn read_log(&self) -> Vec<LogRecord> {
        span(Layer::Storage, || Storage::read_log(&self.0)).0
    }

    fn verify_log(&self) -> Result<(), LogFault> {
        span(Layer::Storage, || Storage::verify_log(&self.0)).0
    }

    fn truncate_log_from(&mut self, index: u64) {
        span(Layer::Storage, || {
            Storage::truncate_log_from(&mut self.0, index)
        });
    }

    fn truncate_log(&mut self) {
        TRACER.with(|t| t.borrow_mut().truncated = true);
        span(Layer::Storage, || Storage::truncate_log(&mut self.0));
    }

    fn commit_staged(&mut self) -> Result<(), StorageError> {
        span(Layer::Storage, || Storage::commit_staged(&mut self.0)).0
    }

    fn has_staged(&self) -> bool {
        span(Layer::Storage, || Storage::has_staged(&self.0)).0
    }

    fn crash(&mut self) {
        span(Layer::Storage, || Storage::crash(&mut self.0));
    }

    fn crash_torn(&mut self, rng: &mut SimRng) {
        span(Layer::Storage, || Storage::crash_torn(&mut self.0, rng));
    }

    fn inject_bit_flip(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        span(Layer::Storage, || {
            Storage::inject_bit_flip(&mut self.0, rng)
        })
        .0
    }

    fn inject_stale_sector(&mut self, rng: &mut SimRng) -> Option<InjectedFault> {
        span(Layer::Storage, || {
            Storage::inject_stale_sector(&mut self.0, rng)
        })
        .0
    }

    fn bytes_written(&self) -> u64 {
        Storage::bytes_written(&self.0)
    }

    fn io_stats(&self) -> Option<FileIoStats> {
        Storage::io_stats(&self.0)
    }
}

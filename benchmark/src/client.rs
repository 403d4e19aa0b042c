//! The benchmark's own load generators. Every request is tracked until
//! its reply, every latency sample is kept, and a rejected or
//! unanswered request is counted as failed instead of ending the loop.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use todr::core::{
    ClientId, ClientReply, ClientRequest, QuerySemantics, ReadConsistency, RequestId,
    UpdateReplyPolicy,
};
use todr::db::{Op, Query, Value};
use todr::net::{LatencyModel, NetConfig};
use todr::sim::{Actor, ActorId, Ctx, Payload, SimDuration, SimRng, SimTime};

use crate::workload::{Keys, Spec};

/// How long a closed-loop client waits before issuing again after a
/// rejection, so a refusing server is not flooded.
const REJECT_BACKOFF: SimDuration = SimDuration::from_millis(1);

/// The request classes latency is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A single-row (single-shard) put.
    Write,
    /// A linearizable single-row read.
    Read,
    /// A two-shard transaction through the router.
    Txn,
}

/// What every client of one deployment records, shared with the run loop.
#[derive(Debug, Default)]
pub struct Log {
    /// Set while the window is open: requests issued then are measured.
    pub measuring: bool,
    /// Set at the end of the window: clients issue nothing more.
    pub stopped: bool,
    /// Measured requests issued.
    pub attempted: u64,
    /// Measured requests answered with a rejection.
    pub rejected: u64,
    /// Measured requests not answered yet.
    pub outstanding: u64,
    /// Successful replies received inside the window.
    pub completed: u64,
    /// Successful replies received since the clients started.
    pub replies: u64,
    /// Latency samples of measured requests, ns of virtual time.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub txn_ns: Vec<u64>,
    /// Virtual instants of the successful replies received inside the
    /// window, in arrival order.
    pub replies_at: Vec<SimTime>,
}

pub type SharedLog = Rc<RefCell<Log>>;

struct Pending {
    issued: SimTime,
    kind: Kind,
    measured: bool,
}

/// Picks request kinds and keys from the seed.
struct Generator {
    rng: SimRng,
    keys: Keys,
    read_permille: u32,
    cross_permille: u32,
    /// Writes still to be aimed at fresh rows (table fill).
    fill_next: u64,
    fill_stride: u64,
    fill_end: u64,
}

impl Generator {
    fn next(&mut self) -> (Kind, Op, Option<Query>) {
        if self.fill_next < self.fill_end {
            let key = self.keys.name(self.fill_next);
            self.fill_next += self.fill_stride;
            return (Kind::Write, Op::put("bench", key, payload()), None);
        }
        let roll = self.rng.gen_range(1000) as u32;
        if roll < self.read_permille {
            let key = self.keys.sample(&mut self.rng);
            return (Kind::Read, Op::Noop, Some(Query::get("bench", key)));
        }
        if roll < self.read_permille + self.cross_permille {
            let (a, b) = self.keys.cross_pair(&mut self.rng);
            let batch = Op::Batch(vec![
                Op::put("bench", a, payload()),
                Op::put("bench", b, payload()),
            ]);
            return (Kind::Txn, batch, None);
        }
        let key = self.keys.sample(&mut self.rng);
        (Kind::Write, Op::put("bench", key, payload()), None)
    }
}

/// The 160-byte value that makes a put a 200-byte action.
fn payload() -> Value {
    Value::Bytes(vec![0xAB; 160])
}

/// A client actor: a closed loop with one request outstanding, or an
/// open loop sending on a fixed schedule to the live targets in turn.
/// Clients sit one LAN hop away from the server they talk to: each
/// request and each reply is delayed by a one-way delay drawn from the
/// LAN profile, and latency is measured across both hops.
pub struct Client {
    id: ClientId,
    targets: Vec<ActorId>,
    live: Vec<bool>,
    turn: usize,
    interval: Option<SimDuration>,
    policy: UpdateReplyPolicy,
    gen: Generator,
    lan: LatencyModel,
    hops: SimRng,
    next_request: u64,
    pending: HashMap<u64, Pending>,
    log: SharedLog,
}

/// Starts a client's loop; the open loop also sends it to itself on
/// its schedule.
pub struct Start;

/// A reply, at the end of its hop back to the client.
struct Delivered(ClientReply);

/// Marks target `index` live or not (open loop only).
pub struct SetLive {
    pub index: usize,
    pub live: bool,
}

impl Client {
    /// Client `index` of `spec`, sending to `targets` (one engine or
    /// the router for a closed loop, every engine for the open loop).
    pub fn new(spec: &Spec, seed: u64, index: u32, targets: Vec<ActorId>, log: SharedLog) -> Self {
        let clients = u64::from(spec.clients);
        let fill_end = spec.keys.fill_rows();
        Client {
            id: ClientId(index + 1),
            live: vec![true; targets.len()],
            targets,
            turn: 0,
            interval: spec.open_interval,
            policy: spec.write_policy,
            gen: Generator {
                rng: SimRng::new(seed ^ (u64::from(index) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                keys: spec.keys.clone(),
                read_permille: spec.read_permille,
                cross_permille: spec.cross_permille,
                fill_next: u64::from(index),
                fill_stride: clients,
                fill_end,
            },
            lan: NetConfig::lan().latency,
            hops: SimRng::new(seed ^ (u64::from(index) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
            next_request: 0,
            pending: HashMap::new(),
            log,
        }
    }

    fn hop(&mut self, bytes: u32) -> SimDuration {
        self.lan.sample(&mut self.hops, bytes)
    }

    fn target(&mut self) -> Option<ActorId> {
        for _ in 0..self.targets.len() {
            let i = self.turn % self.targets.len();
            self.turn += 1;
            if self.live[i] {
                return Some(self.targets[i]);
            }
        }
        None
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.log.borrow().stopped {
            return;
        }
        let Some(target) = self.target() else {
            return;
        };
        let measured = {
            let mut log = self.log.borrow_mut();
            let measured = log.measuring;
            if measured {
                log.attempted += 1;
                log.outstanding += 1;
            }
            measured
        };
        self.next_request += 1;
        let (kind, update, query) = self.gen.next();
        let read = kind == Kind::Read;
        let req = ClientRequest {
            request: RequestId(self.next_request),
            client: self.id,
            reply_to: ctx.self_id(),
            query,
            update,
            query_semantics: QuerySemantics::Strict,
            read_consistency: read.then_some(ReadConsistency::Linearizable),
            reply_policy: if kind == Kind::Write {
                self.policy
            } else {
                UpdateReplyPolicy::OnGreen
            },
            size_bytes: if read { 64 } else { 200 },
        };
        self.pending.insert(
            self.next_request,
            Pending {
                issued: ctx.now(),
                kind,
                measured,
            },
        );
        let hop = self.hop(req.size_bytes);
        ctx.send_after(hop, target, req);
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_>, reply: ClientReply) {
        let (request, ok) = match reply {
            ClientReply::Committed { request, .. } | ClientReply::QueryAnswer { request, .. } => {
                (request, true)
            }
            ClientReply::Rejected { request, .. } => (request, false),
        };
        let Some(p) = self.pending.remove(&request.0) else {
            return;
        };
        let now = ctx.now();
        {
            let mut log = self.log.borrow_mut();
            log.replies += u64::from(ok);
            if log.measuring && ok {
                log.completed += 1;
                log.replies_at.push(now);
            }
            if p.measured {
                log.outstanding -= 1;
                if ok {
                    let ns = now.saturating_since(p.issued).as_nanos();
                    match p.kind {
                        Kind::Write => log.write_ns.push(ns),
                        Kind::Read => log.read_ns.push(ns),
                        Kind::Txn => log.txn_ns.push(ns),
                    }
                } else {
                    log.rejected += 1;
                }
            }
        }
        if self.interval.is_none() {
            if ok {
                self.issue(ctx);
            } else {
                ctx.send_self_after(REJECT_BACKOFF, Start);
            }
        }
    }
}

impl Actor for Client {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<ClientReply>() {
            Ok(reply) => {
                let hop = self.hop(64);
                return ctx.send_self_after(hop, Delivered(reply));
            }
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<Delivered>() {
            Ok(Delivered(reply)) => return self.on_reply(ctx, reply),
            Err(p) => p,
        };
        if payload.is::<Start>() {
            self.issue(ctx);
            if let Some(interval) = self.interval.filter(|_| !self.log.borrow().stopped) {
                ctx.send_self_after(interval, Start);
            }
        } else if let Some(SetLive { index, live }) = payload.downcast::<SetLive>() {
            self.live[index] = live;
        } else {
            panic!("benchmark client received an unknown payload type");
        }
    }
}

//! Driving the product: the `Target`s operations go to (each one a public
//! entry point of a product layer), the latency recorders, the verifying
//! operation loop, and the barrier-started worker threads.
//!
//! Spans are taken here, in the harness, around the public call — the
//! product is not instrumented by this benchmark.

use crate::gen::{Op, OpGen, Shadow, VALUE_MULT};
use crate::stats::ns_since;
use nvtraverse::DurableSet;
use nvtraverse_obs as obs;
use nvtraverse_server::{exec_data_op, Client, ConnTokens, KvStore, Reply, Request};
use std::sync::Barrier;
use std::time::Instant;

/// Something that answers get/insert/remove. `None` is a failed operation
/// (I/O error, `POOL_FULL`, unexpected reply shape).
pub trait Target {
    /// Looks `key` up.
    fn get(&mut self, key: u64) -> Option<Option<u64>>;
    /// Inserts `key → value`; whether it was absent.
    fn insert(&mut self, key: u64, value: u64) -> Option<bool>;
    /// Removes `key`; whether it was present.
    fn remove(&mut self, key: u64) -> Option<bool>;
}

/// The embedded store: `KvStore::{get, try_insert, try_remove}`.
impl Target for &KvStore {
    #[inline]
    fn get(&mut self, key: u64) -> Option<Option<u64>> {
        Some(KvStore::get(self, key))
    }
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Option<bool> {
        self.try_insert(key, value).ok()
    }
    #[inline]
    fn remove(&mut self, key: u64) -> Option<bool> {
        self.try_remove(key).ok()
    }
}

/// Any `DurableSet` called directly: bare structures, pooled handles,
/// `ShardedSet`.
#[derive(Debug)]
pub struct SetTarget<'a, S>(pub &'a S);

impl<S: DurableSet<u64, u64>> Target for SetTarget<'_, S> {
    #[inline]
    fn get(&mut self, key: u64) -> Option<Option<u64>> {
        Some(self.0.get(key))
    }
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Option<bool> {
        self.0.try_insert(key, value).ok()
    }
    #[inline]
    fn remove(&mut self, key: u64) -> Option<bool> {
        self.0.try_remove(key).ok()
    }
}

/// The server's executor without a socket: `exec_data_op`.
#[derive(Debug)]
pub struct ExecTarget<'a> {
    /// The store requests run against.
    pub store: &'a KvStore,
    /// The connection-scoped descriptor tokens `exec_data_op` wants.
    pub tokens: ConnTokens,
}

fn decode_get(reply: Reply) -> Option<Option<u64>> {
    match reply {
        Reply::Value(v) => Some(Some(v)),
        Reply::Miss => Some(None),
        _ => None,
    }
}

fn decode_applied(reply: Reply) -> Option<bool> {
    match reply {
        Reply::Applied => Some(true),
        Reply::Miss => Some(false),
        _ => None,
    }
}

impl Target for ExecTarget<'_> {
    fn get(&mut self, key: u64) -> Option<Option<u64>> {
        decode_get(exec_data_op(
            self.store,
            &mut self.tokens,
            &Request::Get(key),
        ))
    }
    fn insert(&mut self, key: u64, value: u64) -> Option<bool> {
        decode_applied(exec_data_op(
            self.store,
            &mut self.tokens,
            &Request::Insert(key, value),
        ))
    }
    fn remove(&mut self, key: u64) -> Option<bool> {
        decode_applied(exec_data_op(
            self.store,
            &mut self.tokens,
            &Request::Remove(key),
        ))
    }
}

/// One connection to a running server, one frame per operation. With
/// `split` set, `Client::send` and `Client::recv` are timed separately.
#[derive(Debug)]
pub struct WireTarget {
    /// The connection.
    pub client: Client,
    /// `(send_ns, recv_wait_ns)` samples of a traced trial.
    pub split: Option<(Vec<u32>, Vec<u32>)>,
}

impl WireTarget {
    fn round_trip(&mut self, req: &Request) -> Option<Reply> {
        match &mut self.split {
            None => self.client.request(req).ok(),
            Some((send, recv)) => {
                let t0 = Instant::now();
                self.client.send(req).ok()?;
                send.push(ns_since(t0));
                let t1 = Instant::now();
                let reply = self.client.recv(req).ok()?;
                recv.push(ns_since(t1));
                Some(reply)
            }
        }
    }
}

impl Target for WireTarget {
    fn get(&mut self, key: u64) -> Option<Option<u64>> {
        self.round_trip(&Request::Get(key)).and_then(decode_get)
    }
    fn insert(&mut self, key: u64, value: u64) -> Option<bool> {
        self.round_trip(&Request::Insert(key, value))
            .and_then(decode_applied)
    }
    fn remove(&mut self, key: u64) -> Option<bool> {
        self.round_trip(&Request::Remove(key))
            .and_then(decode_applied)
    }
}

/// A store that does nothing: what the generator and the shadow model
/// cost on their own (`harness.gen_ns_per_op`).
#[derive(Debug)]
pub struct NullTarget;

impl Target for NullTarget {
    #[inline]
    fn get(&mut self, key: u64) -> Option<Option<u64>> {
        Some(std::hint::black_box((key & 1 == 0).then_some(key)))
    }
    #[inline]
    fn insert(&mut self, key: u64, _value: u64) -> Option<bool> {
        Some(std::hint::black_box(key & 1 == 0))
    }
    #[inline]
    fn remove(&mut self, key: u64) -> Option<bool> {
        Some(std::hint::black_box(key & 1 == 0))
    }
}

/// Operation kinds, as indices into per-kind span arrays.
pub const GET: usize = 0;
/// See [`GET`].
pub const INSERT: usize = 1;
/// See [`GET`].
pub const REMOVE: usize = 2;

/// How a trial times its operations.
pub trait Recorder {
    /// Runs `f` — operation number `i`, of `kind` — timing it or not.
    fn time<X>(&mut self, kind: usize, i: u64, f: impl FnOnce() -> X) -> X;

    /// Operation (or frame) number `i` is done, reply checked.
    #[inline]
    fn done(&mut self, _i: u64) {}
}

/// Stamps the stream every `every` operations: the chunk durations from
/// which a trial's throughput is taken as *chunk size ÷ median chunk
/// time*. On a shared virtual machine the host takes the CPU away for
/// milliseconds at a time — measured here at 2 % to 14 % of wall time,
/// changing by the minute — so operations ÷ wall time tracks the
/// neighbours' load, not the code. A chunk is long enough (≈1 ms) to
/// hold the product's own periodic work — epoch advances, magazine
/// refills — at its average rate, and short enough that most chunks see
/// no theft; the median chunk is what the code costs when it has the CPU.
#[derive(Debug)]
pub struct ChunkClock {
    mask: u64,
    last: Instant,
    /// Nanoseconds per completed chunk.
    pub chunks: Vec<u32>,
}

impl ChunkClock {
    /// A clock that stamps every `every` operations (a power of two).
    pub fn new(every: u64, ops: u64) -> ChunkClock {
        assert!(every.is_power_of_two());
        ChunkClock {
            mask: every - 1,
            last: Instant::now(),
            chunks: Vec::with_capacity((ops / every) as usize),
        }
    }

    /// Operation number `i` is done.
    #[inline]
    pub fn done(&mut self, i: u64) {
        if (i + 1) & self.mask == 0 {
            let now = Instant::now();
            self.chunks
                .push(u32::try_from((now - self.last).as_nanos()).unwrap_or(u32::MAX));
            self.last = now;
        }
    }
}

/// Times nothing (ladder rungs: total time ÷ operations only).
#[derive(Debug)]
pub struct Untimed;

impl Recorder for Untimed {
    #[inline]
    fn time<X>(&mut self, _kind: usize, _i: u64, f: impl FnOnce() -> X) -> X {
        f()
    }
}

/// Times every `mask + 1`-th operation: the untraced run's latency
/// samples, cheap enough not to move the throughput they ride on.
#[derive(Debug)]
pub struct Sampled {
    /// `i & mask == 0` selects the timed operations.
    pub mask: u64,
    /// The samples, in nanoseconds.
    pub samples: Vec<u32>,
    /// Chunk stamps.
    pub clock: ChunkClock,
}

impl Recorder for Sampled {
    #[inline]
    fn done(&mut self, i: u64) {
        self.clock.done(i);
    }

    #[inline]
    fn time<X>(&mut self, _kind: usize, i: u64, f: impl FnOnce() -> X) -> X {
        if i & self.mask != 0 {
            return f();
        }
        let t0 = Instant::now();
        let x = f();
        self.samples.push(ns_since(t0));
        x
    }
}

/// Times every operation, by kind: the traced run's spans.
#[derive(Debug)]
pub struct Spans {
    /// Nanosecond samples per operation kind.
    pub by_kind: [Vec<u32>; 3],
    /// Chunk stamps.
    pub clock: ChunkClock,
}

impl Recorder for Spans {
    #[inline]
    fn done(&mut self, i: u64) {
        self.clock.done(i);
    }

    #[inline]
    fn time<X>(&mut self, kind: usize, _i: u64, f: impl FnOnce() -> X) -> X {
        let t0 = Instant::now();
        let x = f();
        self.by_kind[kind].push(ns_since(t0));
        x
    }
}

/// Executes `ops` generated operations against `target`, checking every
/// reply against `shadow`. Returns how many failed.
pub fn drive<T: Target, R: Recorder>(
    target: &mut T,
    gen: &mut OpGen,
    shadow: &mut Shadow,
    ops: u64,
    rec: &mut R,
) -> u64 {
    let mut failed = 0;
    for i in 0..ops {
        let ok = match gen.next_op() {
            Op::Get(k) => rec
                .time(GET, i, || target.get(k))
                .is_some_and(|got| shadow.check_get(k, got)),
            Op::Insert(k) => rec
                .time(INSERT, i, || target.insert(k, k.wrapping_mul(VALUE_MULT)))
                .is_some_and(|applied| shadow.check_insert(k, applied)),
            Op::Remove(k) => rec
                .time(REMOVE, i, || target.remove(k))
                .is_some_and(|applied| shadow.check_remove(k, applied)),
        };
        failed += u64::from(!ok);
        rec.done(i);
    }
    failed
}

/// Executes `frames` BATCH frames of `batch` generated operations each
/// over `target`'s connection, checking every sub-reply in order (the
/// server executes a batch in order). Every frame's round trip is timed
/// into `rtt`. Returns how many operations failed.
pub fn drive_batches(
    target: &mut WireTarget,
    gen: &mut OpGen,
    shadow: &mut Shadow,
    frames: u64,
    batch: usize,
    rtt: &mut Vec<u32>,
    clock: &mut ChunkClock,
) -> u64 {
    let mut failed = 0;
    let mut ops = Vec::with_capacity(batch);
    for frame_no in 0..frames {
        ops.clear();
        ops.extend((0..batch).map(|_| gen.next_op()));
        let frame = Request::Batch(
            ops.iter()
                .map(|op| match *op {
                    Op::Get(k) => Request::Get(k),
                    Op::Insert(k) => Request::Insert(k, k.wrapping_mul(VALUE_MULT)),
                    Op::Remove(k) => Request::Remove(k),
                })
                .collect(),
        );
        let t0 = Instant::now();
        let reply = target.round_trip(&frame);
        rtt.push(ns_since(t0));
        let replies = match reply {
            Some(Reply::Batch(r)) if r.len() == batch => r,
            _ => {
                failed += batch as u64;
                clock.done(frame_no);
                continue;
            }
        };
        for (op, reply) in ops.iter().zip(replies) {
            let ok = match *op {
                Op::Get(k) => decode_get(reply).is_some_and(|got| shadow.check_get(k, got)),
                Op::Insert(k) => decode_applied(reply).is_some_and(|a| shadow.check_insert(k, a)),
                Op::Remove(k) => decode_applied(reply).is_some_and(|a| shadow.check_remove(k, a)),
            };
            failed += u64::from(!ok);
        }
        clock.done(frame_no);
    }
    failed
}

/// Runs `body` once per worker on its own thread, all released together
/// by a barrier, each attributing its persistence traffic to the
/// harness-private `set` and pinned to `cpus[t % cpus.len()]` (nowhere
/// when `cpus` is empty). Returns the seconds from the first worker's
/// start to the last worker's end — measured, not nominal — and, in
/// worker order, each body's own seconds and result.
pub fn timed_threads<W: Send, O: Send>(
    workers: &mut [W],
    set: &'static obs::MetricSet,
    cpus: &[usize],
    body: impl Fn(usize, &mut W) -> O + Sync,
) -> (f64, Vec<(f64, O)>) {
    let barrier = Barrier::new(workers.len());
    let done: Vec<(Instant, Instant, O)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(t, w)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    let _attr = obs::attribute_to(Some(set));
                    if !cpus.is_empty() {
                        crate::host::pin_to_cpus(&[cpus[t % cpus.len()]]);
                    }
                    barrier.wait();
                    let start = Instant::now();
                    let out = body(t, w);
                    (start, Instant::now(), out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let first = done.iter().map(|d| d.0).min().expect("at least one worker");
    let last = done.iter().map(|d| d.1).max().expect("at least one worker");
    (
        (last - first).as_secs_f64(),
        done.into_iter()
            .map(|d| ((d.1 - d.0).as_secs_f64(), d.2))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{KeyDist, Mix};
    use nvtraverse::policy::Volatile;
    use nvtraverse_structures::hash::HashMapDs;

    #[test]
    fn a_correct_store_passes_and_a_wrong_oracle_fails() {
        let map: HashMapDs<u64, u64, Volatile> = HashMapDs::new(16);
        let mut gen = OpGen::new(1, 8, KeyDist::Uniform, Mix::A, 0, 1);
        let mut shadow = Shadow::new(8, 0, 1);
        let mut rec = Sampled {
            mask: 3,
            samples: Vec::new(),
            clock: ChunkClock::new(1024, 4_000),
        };
        assert_eq!(
            drive(&mut SetTarget(&map), &mut gen, &mut shadow, 4_000, &mut rec),
            0
        );
        assert_eq!((rec.samples.len(), rec.clock.chunks.len()), (1_000, 3));
        assert_eq!(shadow.len(), map.len() as u64);
        let mut wrong = shadow.clone().expecting_mult(5);
        assert!(
            drive(
                &mut SetTarget(&map),
                &mut gen,
                &mut wrong,
                4_000,
                &mut Untimed
            ) > 0
        );
    }

    #[test]
    fn workers_start_together_and_elapsed_spans_them() {
        let set: &'static obs::MetricSet = Box::leak(Box::new(obs::MetricSet::new(2)));
        let mut workers = [5u64, 20];
        let (elapsed, outs) = timed_threads(&mut workers, set, &[], |t, ms| {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            t
        });
        assert_eq!(outs.iter().map(|o| o.1).collect::<Vec<_>>(), vec![0, 1]);
        assert!(outs[0].0 < outs[1].0, "each worker's own time is reported");
        assert!(
            elapsed >= 0.020,
            "elapsed {elapsed} must cover the slowest worker"
        );
    }
}

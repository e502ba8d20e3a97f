//! The server: thread-per-core accept loops, blocking per-connection
//! handlers, group-commit batching, graceful shutdown.
//!
//! Threading model (no async runtime — ROADMAP's offline-deps
//! constraint): [`ServerConfig::workers`] acceptor threads share one
//! non-blocking listener and poll a shutdown flag; each accepted
//! connection gets its own handler thread running a strict
//! read-frame → execute → write-frame loop. Durable-set operations are
//! lock-free, so handler threads scale without a dispatcher; per-batch
//! fence amortization happens inside the handler via
//! [`run_batch`], and the reply frame is written
//! only after that call returns — i.e. after the batch's single closing
//! fence (group commit: no ack escapes before its fence).
//!
//! Shutdown (either [`Server::shutdown`] or a wire `SHUTDOWN` request):
//! stop accepting, let every in-flight request finish and flush its
//! reply, cut idle connections, join all threads, then close the store
//! (which `msync`s its pool). A crash instead of a shutdown is the
//! tested path, not a failure mode: reopening the store runs the pool's
//! recovery pipeline over every shard and the op-table classification
//! that makes acked detectable operations answerable
//! (`tests/crash_server.rs`).

use crate::batch::run_batch;
use crate::net::{Listener, Stream};
use crate::proto::{self, Reply, Request};
use crate::store::{ConnTokens, KvStore};
use nvtraverse_obs as obs;
use nvtraverse_pool::{OpId, OpOutcome};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start_uds`] / [`Server::start_tcp`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Acceptor threads sharing the listener (thread-per-core shape).
    pub workers: usize,
    /// How long [`Server::shutdown`] waits for in-flight requests to
    /// drain before cutting connections.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(16),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Monotone service counters, exported in `STATS` and read by the
/// `kv_service` figure.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    ops: AtomicU64,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    deferred_fences: AtomicU64,
    closing_batch_fences: AtomicU64,
    malformed: AtomicU64,
}

struct Shared {
    store: KvStore,
    shutdown: AtomicBool,
    /// Server-wide obs target: every handler thread attributes its
    /// flushes/fences (including each batch's single closing fence) here,
    /// so fences/op over the whole service is one snapshot delta.
    metrics: &'static obs::MetricSet,
    counters: Counters,
    /// A clone of every *live* connection's stream, by connection number,
    /// so shutdown can cut handlers parked in `read`. A handler removes its
    /// own entry when it exits.
    conns: Mutex<HashMap<u64, Stream>>,
    /// Handler threads not yet joined: the live ones, plus those that
    /// finished since the last accept (the acceptor joins those).
    handlers: Mutex<Vec<JoinHandle<()>>>,
    in_flight: AtomicUsize,
}

/// A running KV service. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    uds_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("uds_path", &self.uds_path)
            .field("tcp_addr", &self.tcp_addr)
            .field("workers", &self.acceptors.len())
            .finish()
    }
}

impl Server {
    /// Serves `store` on a Unix-domain socket at `path` (a stale socket
    /// file from a previous crash is removed first — the pool files, not
    /// the socket, carry the durable state).
    ///
    /// # Errors
    ///
    /// Bind/clone failures.
    pub fn start_uds(
        path: impl AsRef<Path>,
        store: KvStore,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        let listener = Listener::Unix(std::os::unix::net::UnixListener::bind(path)?);
        Server::start(listener, store, cfg, Some(path.to_path_buf()))
    }

    /// Serves `store` on a TCP socket bound to `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port; see [`Server::tcp_addr`]).
    ///
    /// # Errors
    ///
    /// Bind/clone failures.
    pub fn start_tcp(
        addr: impl std::net::ToSocketAddrs,
        store: KvStore,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = Listener::Tcp(std::net::TcpListener::bind(addr)?);
        Server::start(listener, store, cfg, None)
    }

    fn start(
        listener: Listener,
        store: KvStore,
        cfg: ServerConfig,
        uds_path: Option<PathBuf>,
    ) -> std::io::Result<Server> {
        listener.set_nonblocking(true)?;
        let tcp_addr = listener.tcp_addr();
        let shared = Arc::new(Shared {
            store,
            shutdown: AtomicBool::new(false),
            metrics: Box::leak(Box::new(obs::MetricSet::new(16))),
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
        });
        let workers = cfg.workers.max(1);
        let acceptors = (0..workers)
            .map(|i| {
                let listener = listener.try_clone()?;
                let shared = Arc::clone(&shared);
                Ok(std::thread::Builder::new()
                    .name(format!("kv-accept-{i}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .expect("spawn acceptor"))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let _ = cfg.drain_timeout; // stored per-shutdown call; see `shutdown_with`
        Ok(Server { shared, acceptors, uds_path, tcp_addr })
    }

    /// The bound TCP address (None for a UDS server).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The UDS socket path (None for a TCP server).
    pub fn uds_path(&self) -> Option<&Path> {
        self.uds_path.as_deref()
    }

    /// Whether a `SHUTDOWN` request (or [`Server::shutdown`]) has been
    /// seen.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until a wire `SHUTDOWN` request arrives (the runnable
    /// server binary's main loop).
    pub fn wait_for_shutdown_request(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// The server-wide obs metric set (flush/fence attribution for all
    /// connection handlers — the `kv_service` figure reads deltas of it).
    pub fn metrics(&self) -> &'static obs::MetricSet {
        self.shared.metrics
    }

    /// Data operations executed (batched + single).
    pub fn ops_executed(&self) -> u64 {
        self.shared.counters.ops.load(Ordering::Relaxed)
    }

    /// Batches executed, operations inside them, closing fences deferred
    /// by those operations, and real shared fences issued at batch
    /// durability points — the per-batch attribution quadruple.
    pub fn batch_counters(&self) -> (u64, u64, u64, u64) {
        let c = &self.shared.counters;
        (
            c.batches.load(Ordering::Relaxed),
            c.batched_ops.load(Ordering::Relaxed),
            c.deferred_fences.load(Ordering::Relaxed),
            c.closing_batch_fences.load(Ordering::Relaxed),
        )
    }

    /// Stops accepting, drains in-flight requests (bounded by
    /// `drain_timeout` of the start config — 5 s here), cuts idle
    /// connections, joins every thread, and closes the store.
    ///
    /// # Errors
    ///
    /// The store close error, if any (the service is down regardless).
    pub fn shutdown(self) -> std::io::Result<()> {
        self.shutdown_with(Duration::from_secs(5))
    }

    /// [`Server::shutdown`] with an explicit drain bound.
    ///
    /// # Errors
    ///
    /// The store close error, if any.
    pub fn shutdown_with(self, drain_timeout: Duration) -> std::io::Result<()> {
        let Server { shared, acceptors, uds_path, .. } = self;
        shared.shutdown.store(true, Ordering::Release);
        for a in acceptors {
            let _ = a.join();
        }
        // Let requests that already started finish and flush their
        // replies; handlers notice the flag after each frame.
        let deadline = Instant::now() + drain_timeout;
        while shared.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Unblock handlers parked in `read` on idle connections.
        for (_, conn) in shared.conns.lock().unwrap_or_else(|e| e.into_inner()).drain() {
            let _ = conn.shutdown_both();
        }
        let handlers: Vec<_> =
            std::mem::take(&mut *shared.handlers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handlers {
            let _ = h.join();
        }
        if let Some(path) = &uds_path {
            let _ = std::fs::remove_file(path);
        }
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.store.close(),
            Err(_) => {
                // A handler leaked its Arc (should not happen once joined);
                // still force the pool's mapping to its file.
                nvtraverse_pmem::MmapBackend::sync_all_regions();
                Ok(())
            }
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(stream) => {
                let id = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap_or_else(|e| e.into_inner()).insert(id, clone);
                }
                let shared2 = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("kv-conn".into())
                    .spawn(move || handle_conn(&shared2, id, stream))
                    .expect("spawn handler");
                let mut handlers = shared.handlers.lock().unwrap_or_else(|e| e.into_inner());
                // Reap the handlers of connections that have closed, so the
                // list stays the size of the live set.
                let mut i = 0;
                while i < handlers.len() {
                    if handlers[i].is_finished() {
                        let _ = handlers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                handlers.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Decrements `in_flight` even if request processing unwinds.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Takes connection `id` out of `Shared.conns` when its handler exits,
/// unwinding included.
struct ConnEntry<'a>(&'a Shared, u64);

impl Drop for ConnEntry<'_> {
    fn drop(&mut self) {
        self.0.conns.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.1);
    }
}

fn handle_conn(shared: &Arc<Shared>, id: u64, stream: Stream) {
    let _entry = ConnEntry(shared, id);
    // Everything this connection flushes or fences — pool writes, batch
    // closing fences — lands in the server-wide metric set.
    let _obs = obs::attribute_to(Some(shared.metrics));
    let mut tokens = ConnTokens::new();
    // One buffered reader and one reply buffer for the connection's
    // lifetime: a frame is one `read` in and one `write` out.
    let mut conn = BufReader::new(stream);
    let mut out = Vec::with_capacity(64);
    // Ok(None) is clean EOF; Err covers a cut socket or a dead peer.
    while let Ok(Some(body)) = proto::read_frame(&mut conn) {
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let guard = InFlightGuard(&shared.in_flight);
        let (reply, close_after) = process_request(shared, &mut tokens, &body);
        let stream = conn.get_mut();
        let io_ok = proto::write_frame_with(stream, &mut out, |body| proto::encode_reply(&reply, body))
            .and_then(|()| stream.flush())
            .is_ok();
        drop(guard);
        if !io_ok || close_after || shared.shutdown.load(Ordering::Acquire) {
            break;
        }
    }
    // Until `_entry` drops, a clone of this stream lives in `shared.conns`,
    // and shutdown may be holding it: closing our handle alone would not
    // deliver EOF to the peer. shutdown(2) acts on the socket itself.
    let _ = conn.get_ref().shutdown_both();
}

/// Executes one framed request. Returns the reply and whether the
/// connection must close after sending it.
fn process_request(shared: &Arc<Shared>, tokens: &mut ConnTokens, body: &[u8]) -> (Reply, bool) {
    let req = match proto::decode_request(body) {
        Ok(req) => req,
        Err(e) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            // The stream position can't be trusted after a framing error.
            return (Reply::BadRequest(e.to_string()), true);
        }
    };
    let c = &shared.counters;
    match req {
        Request::Stats => (Reply::Json(stats_json(shared)), false),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            (Reply::Applied, true)
        }
        Request::OpOutcome { shard, op_id } => {
            let reply = match shared.store.op_outcome(shard as usize, OpId::from_bits(op_id)) {
                Some(OpOutcome::Committed) => Reply::Outcome(0),
                Some(OpOutcome::NotApplied) => Reply::Outcome(1),
                Some(OpOutcome::Superseded) => Reply::Outcome(2),
                None => Reply::Unknown,
            };
            (reply, false)
        }
        Request::Batch(subs) => {
            let (replies, stats) = run_batch(&shared.store, tokens, &subs);
            c.ops.fetch_add(stats.ops, Ordering::Relaxed);
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.batched_ops.fetch_add(stats.ops, Ordering::Relaxed);
            c.deferred_fences.fetch_add(stats.deferred_fences, Ordering::Relaxed);
            c.closing_batch_fences.fetch_add(stats.closing_fences, Ordering::Relaxed);
            (Reply::Batch(replies), false)
        }
        ref data_op => {
            c.ops.fetch_add(1, Ordering::Relaxed);
            (crate::batch::exec_data_op(&shared.store, tokens, data_op), false)
        }
    }
}

fn stats_json(shared: &Arc<Shared>) -> String {
    let c = &shared.counters;
    format!(
        "{{\"policy\":\"{}\",\"shards\":{},\"len\":{},\
         \"server\":{{\"connections\":{},\"ops\":{},\"batches\":{},\"batched_ops\":{},\
         \"deferred_fences\":{},\"closing_batch_fences\":{},\"malformed\":{}}},\
         \"obs\":{},\"pools\":{}}}",
        shared.store.policy().name(),
        shared.store.shard_count(),
        shared.store.len(),
        c.connections.load(Ordering::Relaxed),
        c.ops.load(Ordering::Relaxed),
        c.batches.load(Ordering::Relaxed),
        c.batched_ops.load(Ordering::Relaxed),
        c.deferred_fences.load(Ordering::Relaxed),
        c.closing_batch_fences.load(Ordering::Relaxed),
        c.malformed.load(Ordering::Relaxed),
        shared.metrics.snapshot().to_json(),
        shared.store.metrics_snapshot().to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::store::PolicyKind;

    fn open_fds() -> Option<usize> {
        std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Per-connection bookkeeping follows the *live* connections, not every
    /// connection ever accepted; and shutdown still drains what is running.
    #[test]
    fn connection_churn_leaves_no_bookkeeping_behind() {
        const WAVES: usize = 250;
        const PER_WAVE: usize = 8;
        let tag = format!("nvt-server-churn-{}", std::process::id());
        let dir = std::env::temp_dir().join(&tag);
        let sock = std::env::temp_dir().join(format!("{tag}.sock"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = KvStore::create(&dir, PolicyKind::NvTraverse, 2, 1 << 22).unwrap();
        let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
        let server = Server::start_uds(&sock, store, cfg).unwrap();
        let conns = |s: &Server| s.shared.conns.lock().unwrap().len();
        let handlers = |s: &Server| s.shared.handlers.lock().unwrap().len();

        let fds_before = open_fds();
        let mut high_water = (0, 0);
        for wave in 0..WAVES {
            let mut clients: Vec<Client> =
                (0..PER_WAVE).map(|_| Client::connect_uds(&sock).unwrap()).collect();
            for (i, c) in clients.iter_mut().enumerate() {
                let key = (wave * PER_WAVE + i) as u64;
                assert!(c.insert(key, key * 3).unwrap());
            }
            high_water = (high_water.0.max(conns(&server)), high_water.1.max(handlers(&server)));
            drop(clients);
            if wave % 25 == 24 {
                wait_until("closed connections leave the registry", || conns(&server) == 0);
            }
        }
        wait_until("closed connections leave the registry", || conns(&server) == 0);
        // Handlers are reaped at the next accept: at most the last waves'
        // worth are still listed, never the 2 000 there have been.
        assert!(high_water.0 <= 4 * PER_WAVE, "conns peaked at {}", high_water.0);
        assert!(high_water.1 <= 8 * PER_WAVE, "handlers peaked at {}", high_water.1);
        assert!(handlers(&server) <= 8 * PER_WAVE, "{} handles kept", handlers(&server));
        if let (Some(before), Some(after)) = (fds_before, open_fds()) {
            // Slack for whatever the other tests of this binary have open.
            assert!(after <= before + 64, "fds grew {before} -> {after} over the churn");
        }

        // A pipelined connection with work in progress when shutdown is
        // called gets the running request's reply before it is cut.
        let mut busy = Client::connect_uds(&sock).unwrap();
        let batch = Request::Batch((1 << 32..(1 << 32) + 4096).map(|k| Request::Insert(k, k)).collect());
        for _ in 0..4 {
            busy.send(&batch).unwrap();
        }
        wait_until("the handler has taken the first batch", || {
            server.shared.in_flight.load(Ordering::Acquire) > 0
                || server.ops_executed() > (WAVES * PER_WAVE) as u64
        });
        assert_eq!(conns(&server), 1);
        server.shutdown().unwrap();
        match busy.recv(&batch).unwrap() {
            Reply::Batch(replies) => assert!(replies.iter().all(|r| *r == Reply::Applied)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!sock.exists(), "clean shutdown removes the socket");

        let store = KvStore::open(&dir).unwrap();
        assert!(store.len() >= WAVES * PER_WAVE + 4096, "acked inserts lost: {}", store.len());
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

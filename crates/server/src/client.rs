//! Client library for the KV service.
//!
//! One [`Client`] wraps one connection and speaks the strict in-order
//! request/reply protocol. The split [`Client::send`]/[`Client::recv`]
//! pair exists for pipelining: write several request frames before
//! reading any reply, then drain replies in the same order (the server
//! processes frames strictly in sequence, so order is the contract, not
//! an option). The convenience methods are `send` + `recv` fused.

use crate::net::Stream;
use crate::proto::{self, Reply, Request};
use std::io::{self, BufReader, Read, Write};
use std::net::ToSocketAddrs;
use std::path::Path;

/// What a detectable operation acknowledged: whether it took effect, and
/// the durable descriptor coordinates a client must log (fsynced) to ask
/// [`Client::op_outcome`] after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectableAck {
    /// Whether the operation took effect (insert was fresh / remove found
    /// its key).
    pub applied: bool,
    /// Shard whose descriptor table recorded the op.
    pub shard: u32,
    /// `OpId` bits within that shard's pool. The *next* detectable op on
    /// the same connection reuses the slot with `seq + 1`, which is what
    /// makes the id predictable for write-ahead intent logs.
    pub op_id: u64,
}

/// Post-crash classification of a detectable operation, decoded from an
/// `OP_OUTCOME` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeAnswer {
    /// The operation completed and its effect is durable.
    Committed,
    /// The descriptor was claimed but the operation never took effect.
    NotApplied,
    /// A later operation on the same slot overwrote the descriptor.
    Superseded,
    /// The server could not classify the id (unknown slot / shard).
    Unknown,
}

/// A connected protocol client. Not thread-safe; clone-per-thread by
/// opening one connection per thread.
#[derive(Debug)]
pub struct Client {
    /// Every read goes through the buffer, so a reply — or k pipelined
    /// ones — costs one `read` call, not one per prefix and body.
    stream: BufReader<Stream>,
    /// The request frame under construction, reused across sends.
    buf: Vec<u8>,
}

impl Client {
    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Client> {
        let s = std::os::unix::net::UnixStream::connect(path)?;
        Ok(Client::over(Stream::Unix(s)))
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let s = std::net::TcpStream::connect(addr)?;
        let _ = s.set_nodelay(true);
        Ok(Client::over(Stream::Tcp(s)))
    }

    fn over(stream: Stream) -> Client {
        Client { stream: BufReader::new(stream), buf: Vec::with_capacity(256) }
    }

    /// Writes one request frame without reading the reply (pipelining).
    /// Pair every `send` with a later [`Client::recv`] of the *same*
    /// request, in send order.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        let stream = self.stream.get_mut();
        proto::write_frame_with(stream, &mut self.buf, |out| proto::encode_request(req, out))?;
        stream.flush()
    }

    /// Reads one reply frame and decodes it against `req` (the request it
    /// answers — order is the protocol's framing).
    ///
    /// # Errors
    ///
    /// Transport errors; `UnexpectedEof` when the server closed the
    /// connection instead of replying.
    pub fn recv(&mut self, req: &Request) -> io::Result<Reply> {
        match proto::read_frame(&mut self.stream)? {
            Some(body) => Ok(proto::decode_reply(req, &body)?),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )),
        }
    }

    /// One full request/reply exchange.
    ///
    /// # Errors
    ///
    /// Transport and protocol errors.
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        self.send(req)?;
        self.recv(req)
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on an unexpected reply shape.
    pub fn get(&mut self, key: u64) -> io::Result<Option<u64>> {
        match self.request(&Request::Get(key))? {
            Reply::Value(v) => Ok(Some(v)),
            Reply::Miss => Ok(None),
            other => Err(unexpected("GET", &other)),
        }
    }

    /// Inserts `key → value`; `Ok(false)` when the key already existed.
    ///
    /// # Errors
    ///
    /// Transport errors; `Other` on `POOL_FULL`.
    pub fn insert(&mut self, key: u64, value: u64) -> io::Result<bool> {
        applied("INSERT", self.request(&Request::Insert(key, value))?)
    }

    /// Removes `key`; `Ok(false)` when the key was absent.
    ///
    /// # Errors
    ///
    /// Transport errors; `Other` on server-side failures.
    pub fn remove(&mut self, key: u64) -> io::Result<bool> {
        applied("REMOVE", self.request(&Request::Remove(key))?)
    }

    /// Detectable insert: the ack names the durable descriptor for
    /// post-crash [`Client::op_outcome`].
    ///
    /// # Errors
    ///
    /// Transport errors; `Unsupported`/`Other` on policy or pool errors.
    pub fn insert_detectable(&mut self, key: u64, value: u64) -> io::Result<DetectableAck> {
        detectable("INSERT_DETECTABLE", self.request(&Request::InsertDetectable(key, value))?)
    }

    /// Detectable remove.
    ///
    /// # Errors
    ///
    /// Transport errors; `Unsupported`/`Other` on policy or pool errors.
    pub fn remove_detectable(&mut self, key: u64) -> io::Result<DetectableAck> {
        detectable("REMOVE_DETECTABLE", self.request(&Request::RemoveDetectable(key))?)
    }

    /// Classifies a previous detectable op after a server restart.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on an unexpected reply shape.
    pub fn op_outcome(&mut self, shard: u32, op_id: u64) -> io::Result<OutcomeAnswer> {
        match self.request(&Request::OpOutcome { shard, op_id })? {
            Reply::Outcome(0) => Ok(OutcomeAnswer::Committed),
            Reply::Outcome(1) => Ok(OutcomeAnswer::NotApplied),
            Reply::Outcome(2) => Ok(OutcomeAnswer::Superseded),
            Reply::Unknown => Ok(OutcomeAnswer::Unknown),
            other => Err(unexpected("OP_OUTCOME", &other)),
        }
    }

    /// Server + store statistics as a JSON string.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on an unexpected reply shape.
    pub fn stats_json(&mut self) -> io::Result<String> {
        match self.request(&Request::Stats)? {
            Reply::Json(s) => Ok(s),
            other => Err(unexpected("STATS", &other)),
        }
    }

    /// Runs `ops` as one batch — one shared closing fence server-side,
    /// all replies released together after it (group commit). Replies are
    /// in operation order.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on a shape mismatch.
    pub fn batch(&mut self, ops: &[Request]) -> io::Result<Vec<Reply>> {
        let req = Request::Batch(ops.to_vec());
        match self.request(&req)? {
            Reply::Batch(replies) => Ok(replies),
            other => Err(unexpected("BATCH", &other)),
        }
    }

    /// Asks the server to stop accepting and drain.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Reply::Applied => Ok(()),
            other => Err(unexpected("SHUTDOWN", &other)),
        }
    }

    /// Writes raw bytes to the connection, bypassing the protocol layer —
    /// for malformed-frame tests only.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let stream = self.stream.get_mut();
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Reads one raw reply frame (for tests asserting on `BAD_REQUEST`
    /// after [`Client::send_raw`]).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn recv_raw_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        proto::read_frame(&mut self.stream)
    }

    /// Reads until EOF, returning how many bytes arrived — tests use this
    /// to assert the server closed the connection.
    ///
    /// # Errors
    ///
    /// Transport errors other than the expected close.
    pub fn drain_to_eof(&mut self) -> io::Result<usize> {
        let mut total = 0;
        let mut scratch = [0u8; 512];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Ok(total),
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok(total),
                Err(e) => return Err(e),
            }
        }
    }
}

fn unexpected(what: &str, reply: &Reply) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected {what} reply: {reply:?}"))
}

fn applied(what: &str, reply: Reply) -> io::Result<bool> {
    match reply {
        Reply::Applied => Ok(true),
        Reply::Miss => Ok(false),
        Reply::PoolFull => Err(io::Error::other(format!("{what}: pool full"))),
        other => Err(unexpected(what, &other)),
    }
}

fn detectable(what: &str, reply: Reply) -> io::Result<DetectableAck> {
    match reply {
        Reply::Detectable { applied, shard, op_id } => Ok(DetectableAck { applied, shard, op_id }),
        Reply::Unsupported => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("{what}: store policy has no detectable ops"),
        )),
        Reply::PoolFull => Err(io::Error::other(format!("{what}: pool full"))),
        other => Err(unexpected(what, &other)),
    }
}

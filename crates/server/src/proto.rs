//! The wire protocol: length-prefixed binary frames.
//!
//! Every message — request or reply — is one *frame*: a little-endian
//! `u32` body length followed by that many body bytes. Frames longer than
//! [`MAX_FRAME`] are rejected before allocation (a malformed or hostile
//! length prefix must not OOM the server). A request body is an opcode
//! byte followed by a fixed little-endian payload; a reply body is a
//! status byte followed by a payload whose shape the client knows from
//! the request it sent (the protocol is strictly request/reply in order,
//! so replies need no self-description).
//!
//! ```text
//! frame   := len:u32le body[len]
//! request := opcode:u8 payload
//!   GET                (0x01) key:u64
//!   INSERT             (0x02) key:u64 value:u64
//!   REMOVE             (0x03) key:u64
//!   INSERT_DETECTABLE  (0x04) key:u64 value:u64
//!   REMOVE_DETECTABLE  (0x05) key:u64
//!   OP_OUTCOME         (0x06) shard:u32 op_id:u64
//!   STATS              (0x07)
//!   SHUTDOWN           (0x08)
//!   BATCH              (0x10) count:u32 (sub-request)*count   # sub-ops 0x01–0x05 only
//! reply   := status:u8 payload
//!   OK=0 MISS=1 UNSUPPORTED=2 POOL_FULL=3 UNKNOWN=4 BAD_REQUEST=0xFE
//! ```
//!
//! `BATCH` is the fence-amortization unit: the server executes its
//! sub-operations under one `FenceBatch` (one closing `sfence` for all of
//! them) and releases the combined reply only after that fence — group
//! commit. Batches must not nest, and control operations
//! (`OP_OUTCOME`/`STATS`/`SHUTDOWN`) cannot ride in one: a batch is a
//! durability unit, not a transport envelope.
//!
//! A reply with status `BAD_REQUEST` carries a UTF-8 diagnostic and is
//! followed by the server closing the connection: after a framing error
//! the stream position is untrustworthy.

use std::io::{self, Read, Write};

/// Upper bound on a frame body, enforced on both sides before allocating.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on operations per batch (bounds reply size and the work a
/// single frame can demand).
pub const MAX_BATCH: usize = 4096;

/// `GET key` opcode.
pub const OP_GET: u8 = 0x01;
/// `INSERT key value` opcode.
pub const OP_INSERT: u8 = 0x02;
/// `REMOVE key` opcode.
pub const OP_REMOVE: u8 = 0x03;
/// `INSERT_DETECTABLE key value` opcode.
pub const OP_INSERT_DETECTABLE: u8 = 0x04;
/// `REMOVE_DETECTABLE key` opcode.
pub const OP_REMOVE_DETECTABLE: u8 = 0x05;
/// `OP_OUTCOME shard op_id` opcode.
pub const OP_OP_OUTCOME: u8 = 0x06;
/// `STATS` opcode.
pub const OP_STATS: u8 = 0x07;
/// `SHUTDOWN` opcode.
pub const OP_SHUTDOWN: u8 = 0x08;
/// `BATCH count …` opcode.
pub const OP_BATCH: u8 = 0x10;

/// Reply status: the operation took effect / the value was found.
pub const ST_OK: u8 = 0;
/// Reply status: not found / already present — the no-op outcomes.
pub const ST_MISS: u8 = 1;
/// Reply status: the store's policy does not support this operation.
pub const ST_UNSUPPORTED: u8 = 2;
/// Reply status: the store's pool is out of space.
pub const ST_POOL_FULL: u8 = 3;
/// Reply status: `OP_OUTCOME` could not classify the id.
pub const ST_UNKNOWN: u8 = 4;
/// Reply status: malformed request; the server closes the connection.
pub const ST_BAD_REQUEST: u8 = 0xFE;

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up `key`.
    Get(u64),
    /// Insert `key → value` (set semantics: a duplicate is a no-op).
    Insert(u64, u64),
    /// Remove `key`.
    Remove(u64),
    /// Insert with a durable operation descriptor (exactly-once recovery).
    InsertDetectable(u64, u64),
    /// Remove with a durable operation descriptor.
    RemoveDetectable(u64),
    /// Classify a previous detectable operation after a crash.
    OpOutcome {
        /// Shard index the original operation was routed to.
        shard: u32,
        /// The `OpId` bits the original reply (or the client's prediction
        /// from its fsynced log) named.
        op_id: u64,
    },
    /// Server + store statistics as JSON.
    Stats,
    /// Ask the server to stop accepting and drain.
    Shutdown,
    /// N data operations sharing one closing fence (group commit).
    Batch(Vec<Request>),
}

impl Request {
    /// Whether this request may appear inside a [`Request::Batch`].
    pub fn batchable(&self) -> bool {
        matches!(
            self,
            Request::Get(..)
                | Request::Insert(..)
                | Request::Remove(..)
                | Request::InsertDetectable(..)
                | Request::RemoveDetectable(..)
        )
    }
}

/// A decoded reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The operation took effect (insert was fresh / remove found its key).
    Applied,
    /// The no-op outcome: key absent (get/remove) or already present
    /// (insert).
    Miss,
    /// A get hit, carrying the value.
    Value(u64),
    /// A detectable operation ran; its durable descriptor is named by
    /// `(shard, op_id)` for post-crash [`Request::OpOutcome`] queries.
    Detectable {
        /// Whether the operation took effect (`Applied` vs `Miss`).
        applied: bool,
        /// Shard whose descriptor slot holds the op.
        shard: u32,
        /// The `OpId` bits in the store's descriptor table.
        op_id: u64,
    },
    /// `OP_OUTCOME` classification: 0 committed, 1 not applied,
    /// 2 superseded.
    Outcome(u8),
    /// `OP_OUTCOME` could not classify the id (unknown slot / no table).
    Unknown,
    /// The store's policy does not support the operation.
    Unsupported,
    /// The store's pool is full; nothing changed.
    PoolFull,
    /// A JSON document (`STATS`).
    Json(String),
    /// One reply per batched operation, in operation order.
    Batch(Vec<Reply>),
    /// Malformed request; the server closes the connection after this.
    BadRequest(String),
}

/// A framing or encoding violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

// ---- frame transport -------------------------------------------------------

/// Bytes of length prefix in front of every frame body.
const PREFIX: usize = 4;

/// Writes one frame (`u32le` length + body) with a single `write_all`:
/// a prefix written on its own wakes the peer for four bytes it cannot
/// act on. `encode` appends the body to `buf` behind a reserved prefix, so
/// prefix and body leave in one write without being copied together
/// first; `buf` is scratch space a connection reuses across frames. The
/// caller flushes the stream when the exchange requires it (replies are
/// flushed per frame by the server; a pipelining client may batch its
/// flushes).
///
/// # Errors
///
/// I/O errors from `w`; `InvalidData` when the body exceeds [`MAX_FRAME`].
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; PREFIX]);
    encode(buf);
    let len = buf.len() - PREFIX;
    if len > MAX_FRAME {
        return Err(ProtoError(format!("frame of {len} bytes exceeds MAX_FRAME")).into());
    }
    buf[..PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(buf)
}

/// Reads one frame body. Returns `Ok(None)` on clean EOF **before** the
/// length prefix (the peer closed between messages). Prefix and body are
/// separate reads: hand it a buffered reader over a socket, as the server
/// and [`Client`](crate::Client) do, and a frame costs one `read` call.
///
/// # Errors
///
/// `UnexpectedEof` on mid-frame EOF, `InvalidData` on an oversized
/// length prefix, and any transport error from `r`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // Distinguish clean EOF (no bytes of the prefix) from truncation.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (length prefix)",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError(format!("declared frame length {len} exceeds MAX_FRAME")).into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// ---- request encoding ------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes a request body (no frame prefix).
///
/// # Panics
///
/// Panics on a nested or oversized batch, or a non-batchable operation
/// inside one — those are constructible only by caller bugs, never from
/// wire input.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match *req {
        Request::Get(k) => {
            out.push(OP_GET);
            put_u64(out, k);
        }
        Request::Insert(k, v) => {
            out.push(OP_INSERT);
            put_u64(out, k);
            put_u64(out, v);
        }
        Request::Remove(k) => {
            out.push(OP_REMOVE);
            put_u64(out, k);
        }
        Request::InsertDetectable(k, v) => {
            out.push(OP_INSERT_DETECTABLE);
            put_u64(out, k);
            put_u64(out, v);
        }
        Request::RemoveDetectable(k) => {
            out.push(OP_REMOVE_DETECTABLE);
            put_u64(out, k);
        }
        Request::OpOutcome { shard, op_id } => {
            out.push(OP_OP_OUTCOME);
            put_u32(out, shard);
            put_u64(out, op_id);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Shutdown => out.push(OP_SHUTDOWN),
        Request::Batch(ref subs) => {
            assert!(subs.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
            out.push(OP_BATCH);
            put_u32(out, subs.len() as u32);
            for sub in subs {
                assert!(sub.batchable(), "only data operations can be batched");
                encode_request(sub, out);
            }
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.at).ok_or_else(|| ProtoError("truncated body".into()))?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self.at + 4;
        if end > self.buf.len() {
            return err("truncated u32");
        }
        let v = u32::from_le_bytes(self.buf[self.at..end].try_into().unwrap());
        self.at = end;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self.at + 8;
        if end > self.buf.len() {
            return err("truncated u64");
        }
        let v = u64::from_le_bytes(self.buf[self.at..end].try_into().unwrap());
        self.at = end;
        Ok(v)
    }
}

fn decode_one(c: &mut Cursor<'_>, in_batch: bool) -> Result<Request, ProtoError> {
    let opcode = c.u8()?;
    let req = match opcode {
        OP_GET => Request::Get(c.u64()?),
        OP_INSERT => Request::Insert(c.u64()?, c.u64()?),
        OP_REMOVE => Request::Remove(c.u64()?),
        OP_INSERT_DETECTABLE => Request::InsertDetectable(c.u64()?, c.u64()?),
        OP_REMOVE_DETECTABLE => Request::RemoveDetectable(c.u64()?),
        OP_OP_OUTCOME if !in_batch => Request::OpOutcome {
            shard: c.u32()?,
            op_id: c.u64()?,
        },
        OP_STATS if !in_batch => Request::Stats,
        OP_SHUTDOWN if !in_batch => Request::Shutdown,
        OP_BATCH if !in_batch => {
            let count = c.u32()? as usize;
            if count > MAX_BATCH {
                return err(format!("batch of {count} ops exceeds MAX_BATCH ({MAX_BATCH})"));
            }
            let mut subs = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                subs.push(decode_one(c, true)?);
            }
            Request::Batch(subs)
        }
        OP_BATCH => return err("nested batch"),
        other if in_batch => return err(format!("opcode {other:#04x} not allowed in a batch")),
        other => return err(format!("unknown opcode {other:#04x}")),
    };
    Ok(req)
}

/// Parses one request body.
///
/// # Errors
///
/// [`ProtoError`] on unknown opcodes, truncated payloads, trailing
/// garbage, nested or oversized batches, and control ops inside a batch.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor { buf: body, at: 0 };
    let req = decode_one(&mut c, false)?;
    if c.at != body.len() {
        return err(format!("{} trailing bytes after request", body.len() - c.at));
    }
    Ok(req)
}

// ---- reply encoding --------------------------------------------------------

/// Serializes a reply body (no frame prefix).
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    match *reply {
        Reply::Applied => out.push(ST_OK),
        Reply::Miss => out.push(ST_MISS),
        Reply::Value(v) => {
            out.push(ST_OK);
            put_u64(out, v);
        }
        Reply::Detectable { applied, shard, op_id } => {
            out.push(if applied { ST_OK } else { ST_MISS });
            put_u32(out, shard);
            put_u64(out, op_id);
        }
        Reply::Outcome(o) => {
            out.push(ST_OK);
            out.push(o);
        }
        Reply::Unknown => out.push(ST_UNKNOWN),
        Reply::Unsupported => out.push(ST_UNSUPPORTED),
        Reply::PoolFull => out.push(ST_POOL_FULL),
        Reply::Json(ref s) => {
            out.push(ST_OK);
            out.extend_from_slice(s.as_bytes());
        }
        Reply::Batch(ref subs) => {
            out.push(ST_OK);
            put_u32(out, subs.len() as u32);
            for sub in subs {
                encode_reply(sub, out);
            }
        }
        Reply::BadRequest(ref msg) => {
            out.push(ST_BAD_REQUEST);
            out.extend_from_slice(msg.as_bytes());
        }
    }
}

fn decode_reply_one(req: &Request, c: &mut Cursor<'_>) -> Result<Reply, ProtoError> {
    let status = c.u8()?;
    match status {
        ST_BAD_REQUEST => {
            let msg = String::from_utf8_lossy(&c.buf[c.at..]).into_owned();
            c.at = c.buf.len();
            return Ok(Reply::BadRequest(msg));
        }
        ST_UNSUPPORTED => return Ok(Reply::Unsupported),
        ST_POOL_FULL => return Ok(Reply::PoolFull),
        ST_UNKNOWN => return Ok(Reply::Unknown),
        ST_OK | ST_MISS => {}
        other => return err(format!("unknown reply status {other:#04x}")),
    }
    let reply = match *req {
        Request::Get(..) => {
            if status == ST_OK {
                Reply::Value(c.u64()?)
            } else {
                Reply::Miss
            }
        }
        Request::Insert(..) | Request::Remove(..) | Request::Shutdown => {
            if status == ST_OK {
                Reply::Applied
            } else {
                Reply::Miss
            }
        }
        Request::InsertDetectable(..) | Request::RemoveDetectable(..) => Reply::Detectable {
            applied: status == ST_OK,
            shard: c.u32()?,
            op_id: c.u64()?,
        },
        Request::OpOutcome { .. } => {
            if status == ST_OK {
                Reply::Outcome(c.u8()?)
            } else {
                Reply::Miss
            }
        }
        Request::Stats => {
            let s = std::str::from_utf8(&c.buf[c.at..])
                .map_err(|_| ProtoError("STATS reply is not UTF-8".into()))?
                .to_owned();
            c.at = c.buf.len();
            Reply::Json(s)
        }
        Request::Batch(ref subs) => {
            let count = c.u32()? as usize;
            if count != subs.len() {
                return err(format!("batch reply has {count} entries for {} ops", subs.len()));
            }
            let mut replies = Vec::with_capacity(count);
            for sub in subs {
                replies.push(decode_reply_one(sub, c)?);
            }
            Reply::Batch(replies)
        }
    };
    Ok(reply)
}

/// Parses a reply body against the request that produced it (the protocol
/// is strict request/reply in order, so the client always knows the
/// request).
///
/// # Errors
///
/// [`ProtoError`] on status/shape mismatches, truncation, or trailing
/// bytes.
pub fn decode_reply(req: &Request, body: &[u8]) -> Result<Reply, ProtoError> {
    let mut c = Cursor { buf: body, at: 0 };
    let reply = decode_reply_one(req, &mut c)?;
    if c.at != body.len() {
        return err(format!("{} trailing bytes after reply", body.len() - c.at));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame of an already-encoded `body`.
    fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
        write_frame_with(w, &mut Vec::new(), |out| out.extend_from_slice(body))
    }

    fn round_trip(req: Request, reply: Reply) {
        let mut rb = Vec::new();
        encode_request(&req, &mut rb);
        assert_eq!(decode_request(&rb).unwrap(), req);
        let mut pb = Vec::new();
        encode_reply(&reply, &mut pb);
        assert_eq!(decode_reply(&req, &pb).unwrap(), reply);
    }

    #[test]
    fn requests_and_replies_round_trip() {
        round_trip(Request::Get(7), Reply::Value(9));
        round_trip(Request::Get(7), Reply::Miss);
        round_trip(Request::Insert(1, 2), Reply::Applied);
        round_trip(Request::Remove(1), Reply::Miss);
        round_trip(
            Request::InsertDetectable(3, 4),
            Reply::Detectable { applied: true, shard: 2, op_id: 0x1_0000_0005 },
        );
        round_trip(Request::OpOutcome { shard: 1, op_id: 42 }, Reply::Outcome(0));
        round_trip(Request::OpOutcome { shard: 1, op_id: 42 }, Reply::Unknown);
        round_trip(Request::Stats, Reply::Json("{\"ok\":true}".into()));
        round_trip(
            Request::Batch(vec![Request::Get(1), Request::Insert(2, 3), Request::Remove(4)]),
            Reply::Batch(vec![Reply::Miss, Reply::Applied, Reply::PoolFull]),
        );
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        assert!(decode_request(&[]).is_err(), "empty body");
        assert!(decode_request(&[0xAB]).is_err(), "unknown opcode");
        assert!(decode_request(&[OP_GET, 1, 2]).is_err(), "truncated key");
        let mut ok = Vec::new();
        encode_request(&Request::Get(1), &mut ok);
        ok.push(0);
        assert!(decode_request(&ok).is_err(), "trailing bytes");
        // A batch may not nest or carry control ops.
        assert!(decode_request(&[OP_BATCH, 1, 0, 0, 0, OP_BATCH, 0, 0, 0, 0]).is_err());
        assert!(decode_request(&[OP_BATCH, 1, 0, 0, 0, OP_STATS]).is_err());
        // Batch count beyond MAX_BATCH is rejected before any allocation.
        let huge = (MAX_BATCH as u32 + 1).to_le_bytes();
        assert!(decode_request(&[OP_BATCH, huge[0], huge[1], huge[2], huge[3]]).is_err());
    }

    /// Counts `write` calls and accepts at most 3 bytes in each.
    struct Trickle(Vec<u8>, usize);
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            self.1 += 1;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_offered_to_the_writer_whole() {
        // Prefix and body arrive in one `write` call...
        let mut whole = Vec::new();
        let mut scratch = Vec::new();
        write_frame_with(&mut whole, &mut scratch, |out| out.extend_from_slice(b"hello")).unwrap();
        assert_eq!(whole, [&5u32.to_le_bytes()[..], b"hello"].concat());
        assert_eq!(scratch, whole, "the scratch buffer is the frame");
        // ...and a writer that takes less is retried until all of it is out.
        let mut slow = Trickle(Vec::new(), 0);
        write_frame(&mut slow, b"hello").unwrap();
        assert_eq!((slow.0, slow.1), (whole, 3));
        // The bound is checked on the encoded body, before anything is sent.
        let mut none = Trickle(Vec::new(), 0);
        assert!(write_frame(&mut none, &vec![0; MAX_FRAME + 1]).is_err());
        assert_eq!(none.1, 0);
    }

    #[test]
    fn frames_round_trip_and_enforce_bounds() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // Oversized declared length is refused without allocating.
        let bad = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &bad[..]).is_err());
        // Mid-frame EOF is an error, not a clean end.
        let truncated = [5u8, 0, 0, 0, b'x'];
        assert!(read_frame(&mut &truncated[..]).is_err());
        assert!(read_frame(&mut &truncated[..2]).is_err(), "EOF inside the prefix");
        // All of it holds through the buffered reader connections use.
        let mut r = io::BufReader::with_capacity(8, &buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        assert!(read_frame(&mut io::BufReader::new(&truncated[..])).is_err());
    }
}

//! The wire format: length-prefixed serde frames with a versioned
//! header.
//!
//! Every message on an `a4nn-net` connection travels as one frame:
//!
//! ```text
//! +----------+-----------+------------+--------------------+
//! | magic    | version   | length     | payload            |
//! | "A4NN"   | u16 BE    | u32 BE     | serde_json bytes   |
//! | 4 bytes  | 2 bytes   | 4 bytes    | `length` bytes     |
//! +----------+-----------+------------+--------------------+
//! ```
//!
//! The codec is deliberately strict: wrong magic, a header version other
//! than [`PROTOCOL_VERSION`], a length above [`MAX_PAYLOAD`], an
//! undecodable payload, and a stream that ends mid-frame are all
//! distinct [`NetError`]s — never panics, never silent truncation. The
//! incremental [`FrameDecoder`] makes the framing independent of how the
//! kernel splits or coalesces reads, which is what the property suite
//! exercises.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol revision this build speaks. Bumped on any wire-visible
/// change. Every frame header carries it and nothing else does, so
/// mismatched builds refuse each other's first frame as
/// [`NetError::VersionMismatch`] instead of misparsing.
pub const PROTOCOL_VERSION: u16 = 5;

/// Frame preamble, for cheap misdial detection.
pub const MAGIC: [u8; 4] = *b"A4NN";

/// Fixed header size: magic + version + payload length.
pub const HEADER_LEN: usize = 10;

/// Upper bound on one frame's payload (64 MiB) — far above any real
/// message, low enough that a corrupted length field cannot provoke a
/// giant allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Read granularity for payloads in [`read_message`]. The payload buffer
/// grows by at most this much ahead of the bytes actually received, so a
/// peer that announces a huge length but never sends the bytes costs the
/// reader one chunk of memory, not [`MAX_PAYLOAD`]. The serve event
/// loop reads its nonblocking sockets in chunks of this size too.
pub const READ_CHUNK: usize = 64 * 1024;

/// Every way a frame or stream can be malformed. Converted into the
/// workspace's `Net` failure class at the transport boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The stream did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol revision.
    VersionMismatch {
        /// The revision this build speaks.
        ours: u16,
        /// The revision found on the wire.
        theirs: u16,
    },
    /// The header announced a payload above [`MAX_PAYLOAD`].
    FrameTooLarge {
        /// The announced payload length.
        len: u32,
    },
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Where in the frame the bytes ran out.
        context: String,
    },
    /// The payload was not a decodable message.
    Decode(String),
    /// The underlying socket failed (includes read timeouts).
    Io(String),
    /// The peer sent a well-formed message that violates the protocol
    /// state machine (e.g. a `Job` before the `RunSetup`).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:?} (expected {MAGIC:?})"),
            NetError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer sent v{theirs}"
            ),
            NetError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            NetError::Truncated { context } => write!(f, "stream truncated {context}"),
            NetError::Decode(msg) => write!(f, "undecodable frame payload: {msg}"),
            NetError::Io(msg) => write!(f, "socket failure: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<NetError> for a4nn_error::A4nnError {
    fn from(e: NetError) -> Self {
        a4nn_error::A4nnError::Net(e.to_string())
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// Encode one message as a complete frame (header + payload).
pub fn encode<T: Serialize>(msg: &T) -> Result<Vec<u8>, NetError> {
    let payload = serde_json::to_vec(msg).map_err(|e| NetError::Decode(e.to_string()))?;
    if payload.len() as u64 > u64::from(MAX_PAYLOAD) {
        return Err(NetError::FrameTooLarge {
            len: payload.len() as u32,
        });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Incremental frame parser: push bytes in whatever chunking the socket
/// delivers, pop complete messages. Validation errors are sticky in the
/// sense that the caller should drop the connection — the stream offset
/// is unrecoverable once framing is broken.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Buffer more bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Validate the buffered header and return the full frame length
    /// (header + payload) when the header is complete, `Ok(None)` when
    /// more header bytes are needed.
    fn frame_len(&self) -> Result<Option<usize>, NetError> {
        let Some(header) = self.buf.first_chunk() else {
            return Ok(None);
        };
        Ok(Some(HEADER_LEN + payload_len(header)?))
    }

    /// Pop the next complete message; `Ok(None)` means more bytes are
    /// needed.
    pub fn next_frame<T: Deserialize>(&mut self) -> Result<Option<T>, NetError> {
        let total = match self.frame_len()? {
            Some(total) if self.buf.len() >= total => total,
            _ => return Ok(None),
        };
        let msg = serde_json::from_slice(&self.buf[HEADER_LEN..total])
            .map_err(|e| NetError::Decode(e.to_string()))?;
        self.buf.drain(..total);
        Ok(Some(msg))
    }

    /// Call when the stream reached clean EOF: leftover buffered bytes
    /// mean the peer died mid-frame.
    pub fn finish(&self) -> Result<(), NetError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(NetError::Truncated {
                context: format!(
                    "with {} byte(s) of an incomplete frame buffered",
                    self.buf.len()
                ),
            })
        }
    }
}

/// Validate a frame header's magic, version and length field, and
/// return the payload length it announces.
fn payload_len(header: &[u8; HEADER_LEN]) -> Result<usize, NetError> {
    let [m0, m1, m2, m3, v0, v1, l0, l1, l2, l3] = *header;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = u16::from_be_bytes([v0, v1]);
    if version != PROTOCOL_VERSION {
        return Err(NetError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let len = u32::from_be_bytes([l0, l1, l2, l3]);
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge { len });
    }
    Ok(len as usize)
}

/// Write one message as a frame to a blocking stream.
pub fn write_message<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), NetError> {
    let frame = encode(msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one message from a blocking stream. `Ok(None)` is clean EOF at
/// a frame boundary; EOF inside a frame is [`NetError::Truncated`], and
/// a read timeout surfaces as [`NetError::Io`] — the coordinator's
/// heartbeat-deadline mechanism.
pub fn read_message<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(NetError::Truncated {
                    context: format!("after {got} of {HEADER_LEN} header byte(s)"),
                })
            }
            Ok(n) => got += n,
            Err(e) => return Err(e.into()),
        }
    }
    let len = payload_len(&header)?;
    // The length header is untrusted until the payload actually arrives:
    // grow the buffer one bounded chunk at a time instead of
    // preallocating `len` bytes up front, so a hostile or corrupt peer
    // that announces MAX_PAYLOAD but sends nothing cannot force a 64 MiB
    // allocation per frame. This codec fronts public serve connections,
    // not just trusted workers.
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let old = payload.len();
        let take = (len - old).min(READ_CHUNK);
        payload.resize(old + take, 0);
        let mut filled = old;
        while filled < old + take {
            match r.read(&mut payload[filled..old + take]) {
                Ok(0) => {
                    return Err(NetError::Truncated {
                        context: format!("inside a {len}-byte payload after {filled} byte(s)"),
                    })
                }
                Ok(n) => filled += n,
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }
    serde_json::from_slice(&payload)
        .map(Some)
        .map_err(|e| NetError::Decode(e.to_string()))
}

/// Buffered outbound bytes for a nonblocking stream — the write-side
/// twin of [`FrameDecoder`].
///
/// A nonblocking socket may accept any prefix of a `write` (including
/// nothing); the queue owns whatever the kernel did not take, so a
/// frame's bytes hit the wire exactly once and in order no matter how
/// the writes are cut. An event loop watches for write readiness exactly
/// while [`pending`](Self::pending) is nonzero.
#[derive(Debug, Default)]
pub struct WriteQueue {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WriteQueue::default()
    }

    /// Append one encoded frame's bytes (from [`encode`]).
    pub fn enqueue(&mut self, frame: &[u8]) {
        // Reclaim the consumed prefix before it dominates the buffer.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(frame);
    }

    /// Encode `msg` and queue its frame.
    pub fn enqueue_message<T: Serialize>(&mut self, msg: &T) -> Result<(), NetError> {
        let frame = encode(msg)?;
        self.enqueue(&frame);
        Ok(())
    }

    /// Bytes queued but not yet accepted by the sink.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every queued byte has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Write as much as the sink accepts. Returns `Ok(true)` when the
    /// queue drained completely, `Ok(false)` when the sink stopped
    /// taking bytes mid-queue (`WouldBlock`); short `Ok(n)` writes keep
    /// going and `Interrupted` is retried, every other error is the
    /// caller's to map. A sink returning `Ok(0)` with bytes still
    /// pending is a closed pipe and surfaces as `WriteZero`.
    pub fn flush_into<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream accepted zero bytes with frame data pending",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_the_incremental_decoder() {
        let msgs = vec!["alpha".to_string(), String::new(), "γ".repeat(1000)];
        let mut decoder = FrameDecoder::new();
        for m in &msgs {
            decoder.push(&encode(m).unwrap());
        }
        for m in &msgs {
            let back: String = decoder.next_frame().unwrap().unwrap();
            assert_eq!(&back, m);
        }
        assert!(decoder.next_frame::<String>().unwrap().is_none());
        decoder.finish().unwrap();
    }

    #[test]
    fn bad_magic_and_bad_length_are_typed_errors() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"XXXX\x00\x01\x00\x00\x00\x00");
        assert!(matches!(
            decoder.next_frame::<String>(),
            Err(NetError::BadMagic(_))
        ));

        let mut decoder = FrameDecoder::new();
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        decoder.push(&frame);
        assert!(matches!(
            decoder.next_frame::<String>(),
            Err(NetError::FrameTooLarge { len: u32::MAX })
        ));
    }

    #[test]
    fn foreign_header_version_is_rejected() {
        let mut frame = encode(&"hi".to_string()).unwrap();
        frame[4] = 0xBE;
        frame[5] = 0xEF;
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        assert_eq!(
            decoder.next_frame::<String>(),
            Err(NetError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: 0xBEEF,
            })
        );
    }

    #[test]
    fn truncated_stream_is_detected_at_eof() {
        let frame = encode(&"payload".to_string()).unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame[..frame.len() - 1]);
        assert!(decoder.next_frame::<String>().unwrap().is_none());
        assert!(matches!(decoder.finish(), Err(NetError::Truncated { .. })));
    }

    #[test]
    fn blocking_reader_matches_the_decoder() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode(&1u64).unwrap());
        bytes.extend_from_slice(&encode(&2u64).unwrap());
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_message::<_, u64>(&mut cursor).unwrap(), Some(1));
        assert_eq!(read_message::<_, u64>(&mut cursor).unwrap(), Some(2));
        assert_eq!(read_message::<_, u64>(&mut cursor).unwrap(), None);
    }

    #[test]
    fn net_errors_map_to_the_net_failure_class() {
        let e: a4nn_error::A4nnError = NetError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: 3,
        }
        .into();
        assert_eq!(e.exit_code(), 9);
        let expected = format!("we speak v{PROTOCOL_VERSION}, peer sent v3");
        assert!(e.to_string().contains(&expected), "{e}");
    }
}

//! Property tests for the wire codec, plus the version-mismatch contract
//! against a live worker and a live coordinator.
//!
//! The framing invariants must hold for *any* message content and *any*
//! way the kernel splits or coalesces the byte stream:
//!
//! - encode → decode is the identity, regardless of read chunking;
//! - a stream cut at any interior byte is a typed [`NetError::Truncated`]
//!   at EOF, never a panic or a silent partial message;
//! - a corrupted length field above the cap is [`NetError::FrameTooLarge`]
//!   before any allocation;
//! - outbound frames pushed through the [`WriteQueue`] survive *any*
//!   split of the byte stream into partial writes — including
//!   interleaved `WouldBlock` — bitwise (the write-side mirror of the
//!   arbitrary-cut read tests);
//! - a peer speaking a foreign protocol revision is refused at its first
//!   frame header on both sides of a session: the worker closes it, the
//!   coordinator reports a typed mismatch naming both versions.

use a4nn_core::prelude::*;
use a4nn_net::{
    encode, read_message, FrameDecoder, Message, NetError, SocketOptions, SocketTransport,
    WorkerServer, WriteQueue, HEADER_LEN, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// A `Write` impl emulating a congested nonblocking socket: each call
/// accepts a bounded number of bytes (cycling through `caps`, all ≥ 1,
/// so progress is guaranteed) and a finite queue of injected
/// `WouldBlock`s interrupts the stream at arbitrary points.
struct ThrottledWriter {
    out: Vec<u8>,
    caps: Vec<usize>,
    call: usize,
    blocks: VecDeque<bool>,
}

impl std::io::Write for ThrottledWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.blocks.pop_front() == Some(true) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let cap = self.caps[self.call % self.caps.len()];
        self.call += 1;
        let n = buf.len().min(cap);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any batch of messages survives the decoder under any chunking of
    /// the byte stream — the framing is independent of how the kernel
    /// delivers bytes.
    #[test]
    fn roundtrip_is_chunking_invariant(
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..6,
        ),
        chunk in 1usize..97,
    ) {
        let mut bytes = Vec::new();
        for m in &msgs {
            bytes.extend_from_slice(&encode(m).unwrap());
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded: Vec<Vec<u8>> = Vec::new();
        for piece in bytes.chunks(chunk) {
            decoder.push(piece);
            while let Some(m) = decoder.next_frame::<Vec<u8>>().unwrap() {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded, msgs);
        decoder.finish().unwrap();
    }

    /// Cutting the stream at any interior byte is detected as truncation
    /// at EOF: the decoder never yields a message from a partial frame
    /// and never panics.
    #[test]
    fn any_interior_cut_is_typed_truncation(
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        cut_seed in any::<u64>(),
    ) {
        let frame = encode(&msg).unwrap();
        // Interior cut: at least one byte present, at least one missing.
        let cut = 1 + (cut_seed as usize) % (frame.len() - 1);
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame[..cut]);
        prop_assert!(decoder.next_frame::<Vec<u8>>().unwrap().is_none());
        prop_assert!(matches!(decoder.finish(), Err(NetError::Truncated { .. })));
    }

    /// A length field above [`MAX_PAYLOAD`] is rejected from the header
    /// alone — a corrupted stream cannot provoke a giant allocation.
    #[test]
    fn oversized_length_field_is_rejected(extra in 1u32..=1024) {
        let len = MAX_PAYLOAD + extra;
        let mut frame = Vec::with_capacity(HEADER_LEN);
        frame.extend_from_slice(b"A4NN");
        frame.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        frame.extend_from_slice(&len.to_be_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        prop_assert_eq!(
            decoder.next_frame::<String>(),
            Err(NetError::FrameTooLarge { len })
        );
    }

    /// Frames queued through the [`WriteQueue`] reach the wire bitwise
    /// identical to their back-to-back encodings, no matter how the
    /// writer splits or defers the bytes — and the reassembled stream
    /// decodes back to the original messages. A partial mid-stream
    /// flush exercises compaction under a live cursor.
    #[test]
    fn write_queue_partial_writes_roundtrip_bitwise(
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..6,
        ),
        caps in proptest::collection::vec(1usize..97, 1..16),
        blocks in proptest::collection::vec(any::<bool>(), 0..24),
        split in 0usize..6,
    ) {
        let mut q = WriteQueue::default();
        let mut w = ThrottledWriter {
            out: Vec::new(),
            caps,
            call: 0,
            blocks: blocks.into(),
        };
        let mut expected = Vec::new();
        let split = split.min(msgs.len() - 1);
        for (i, m) in msgs.iter().enumerate() {
            let frame = encode(m).unwrap();
            expected.extend_from_slice(&frame);
            // Alternate the raw-frame and typed entry points.
            if i % 2 == 0 {
                q.enqueue(&frame);
            } else {
                q.enqueue_message(m).unwrap();
            }
            if i == split {
                let _ = q.flush_into(&mut w).unwrap();
            }
        }
        while !q.flush_into(&mut w).unwrap() {}
        prop_assert!(q.is_empty());
        prop_assert_eq!(&w.out, &expected);
        let mut decoder = FrameDecoder::new();
        decoder.push(&w.out);
        let mut decoded: Vec<Vec<u8>> = Vec::new();
        while let Some(m) = decoder.next_frame::<Vec<u8>>().unwrap() {
            decoded.push(m);
        }
        prop_assert_eq!(decoded, msgs);
        decoder.finish().unwrap();
    }

    /// Any header version other than ours is a typed mismatch carrying
    /// both revisions.
    #[test]
    fn foreign_frame_versions_are_typed_mismatches(theirs in any::<u16>()) {
        prop_assume!(theirs != PROTOCOL_VERSION);
        let mut frame = encode(&"x".to_string()).unwrap();
        frame[4..6].copy_from_slice(&theirs.to_be_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        prop_assert_eq!(
            decoder.next_frame::<String>(),
            Err(NetError::VersionMismatch { ours: PROTOCOL_VERSION, theirs })
        );
    }
}

/// The payload-size extremes: an empty collection (the smallest JSON
/// payloads) and a string far above 64 KiB both survive the decoder and
/// the blocking reader.
#[test]
fn payload_size_extremes_roundtrip() {
    let empty: Vec<u8> = Vec::new();
    let big = "g".repeat(80 * 1024); // > 64 KiB of payload
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&encode(&empty).unwrap());
    bytes.extend_from_slice(&encode(&big).unwrap());

    let mut decoder = FrameDecoder::new();
    decoder.push(&bytes);
    assert_eq!(decoder.next_frame::<Vec<u8>>().unwrap().unwrap(), empty);
    assert_eq!(decoder.next_frame::<String>().unwrap().unwrap(), big);
    decoder.finish().unwrap();

    let mut cursor = std::io::Cursor::new(bytes);
    assert_eq!(
        read_message::<_, Vec<u8>>(&mut cursor).unwrap().unwrap(),
        empty
    );
    assert_eq!(
        read_message::<_, String>(&mut cursor).unwrap().unwrap(),
        big
    );
    assert!(read_message::<_, String>(&mut cursor).unwrap().is_none());
}

/// A zero-length payload is structurally valid framing but never a
/// decodable message: the decoder reports a typed decode error, not a
/// panic and not an empty success.
#[test]
fn zero_byte_payload_is_a_typed_decode_error() {
    let mut frame = Vec::with_capacity(HEADER_LEN);
    frame.extend_from_slice(b"A4NN");
    frame.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    frame.extend_from_slice(&0u32.to_be_bytes());
    let mut decoder = FrameDecoder::new();
    decoder.push(&frame);
    assert!(matches!(
        decoder.next_frame::<String>(),
        Err(NetError::Decode(_))
    ));
}

/// One frame of `msg` whose header claims the next protocol revision.
fn foreign_frame(msg: &Message) -> Vec<u8> {
    let mut frame = encode(msg).unwrap();
    frame[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_be_bytes());
    frame
}

/// A live worker ends a session whose first frame carries a foreign
/// protocol revision, sending nothing more, and serves the next one.
#[test]
fn worker_ends_a_session_with_a_foreign_header() {
    let worker = WorkerServer::spawn("127.0.0.1:0", 1, 2).unwrap();
    let mut stream = TcpStream::connect(worker.addr()).unwrap();
    let welcome = read_message::<_, Message>(&mut stream).unwrap();
    assert!(matches!(welcome, Some(Message::Welcome { gpus: 1 })));
    stream
        .write_all(&foreign_frame(&Message::Shutdown))
        .unwrap();
    // The worker drops the session with the payload unread, which may
    // reach us as a reset rather than a clean end of stream.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => {}
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    assert!(rest.is_empty(), "the worker answered a foreign frame");

    let mut next = TcpStream::connect(worker.addr()).unwrap();
    let welcome = read_message::<_, Message>(&mut next).unwrap();
    assert!(matches!(welcome, Some(Message::Welcome { gpus: 1 })));
    drop(next);
    worker.join().unwrap();
}

/// A worker of another protocol revision fails the coordinator's
/// construction at its first frame: a `Net`-class error (exit code 9)
/// that names both versions.
#[test]
fn coordinator_surfaces_a_foreign_worker_as_a_net_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let foreign_worker = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .write_all(&foreign_frame(&Message::Welcome { gpus: 1 }))
            .unwrap();
        // Hold the connection until the coordinator drops it.
        let _ = stream.read(&mut [0u8; 1]);
    });

    let config = WorkflowConfig::a4nn(BeamIntensity::Medium, 1, 7);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), FaultPlan::none());
    let err = SocketTransport::connect(&[addr.to_string()], &config, &ft, SocketOptions::default())
        .err()
        .expect("a foreign worker fails construction");
    assert_eq!(err.exit_code(), 9, "a version mismatch is Net-class: {err}");
    let versions = format!(
        "we speak v{PROTOCOL_VERSION}, peer sent v{}",
        PROTOCOL_VERSION + 1
    );
    assert!(err.to_string().contains(&versions), "{err}");
    foreign_worker.join().unwrap();
}

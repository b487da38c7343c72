//! Hostile peers against a live server: seeded mutations of valid
//! pipelined frame streams — byte flips, truncation anywhere, junk
//! appended, foreign version stamps, the traced flag on control kinds,
//! length fields up to `MAX_PAYLOAD` — each sent over its own
//! connection, which then shuts down its write half.
//!
//! Per connection, the server must answer the stream's valid prefix in
//! order with well-formed frames, add at most one `Error { id: 0 }` for
//! whatever follows it, and close. Across the run it must keep serving
//! clean clients and leave no connection behind.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gadget_kv::{MemStore, StateStore};
use gadget_server::wire::{
    self, ErrorCode, Frame, TraceContext, WireError, HEADER_LEN, MAX_PAYLOAD,
};
use gadget_server::{NetStore, Server, ServerConfig};
use gadget_types::Op;
use proptest::prelude::*;

const CASES: u64 = 256;

#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `at` parts per million of the stream.
    Flip { at: u32, xor: u8 },
    /// Cut the stream at `at` parts per million.
    Truncate { at: u32 },
    /// Append these bytes to the stream.
    Junk(Vec<u8>),
    /// Stamp a foreign version on frame `frame`'s header.
    Restamp { frame: usize, version: u8 },
    /// Set the traced flag on frame `frame`'s kind byte.
    Flag { frame: usize },
    /// Overwrite frame `frame`'s payload length.
    Length { frame: usize, len: u32 },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u32..1_000_000, 1u8..=255).prop_map(|(at, xor)| Mutation::Flip { at, xor }),
        (0u32..1_000_000).prop_map(|at| Mutation::Truncate { at }),
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(Mutation::Junk),
        (0usize..8, prop_oneof![0u8..=3, 5u8..=255])
            .prop_map(|(frame, version)| Mutation::Restamp { frame, version }),
        (0usize..8).prop_map(|frame| Mutation::Flag { frame }),
        (0usize..8, prop_oneof![0u32..256, 0u32..=MAX_PAYLOAD])
            .prop_map(|(frame, len)| Mutation::Length { frame, len }),
    ]
}

/// A valid stream as (kind, ops) pairs — kind 0 an untraced request,
/// 1 a traced one, 2 a topology query, 3 a reshard — plus the mutations
/// to apply to its encoding.
fn cases() -> impl Strategy<Value = (Vec<(u8, Vec<Op>)>, Vec<Mutation>)> {
    let ops = proptest::collection::vec((0u8..4, any::<u8>(), 0usize..16), 0..4).prop_map(|raw| {
        raw.into_iter()
            .map(|(tag, key, len)| {
                let key = vec![b'h', key];
                match tag {
                    0 => Op::get(key),
                    1 => Op::put(key, vec![len as u8; len]),
                    2 => Op::merge(key, vec![len as u8; len]),
                    _ => Op::delete(key),
                }
            })
            .collect::<Vec<_>>()
    });
    (
        proptest::collection::vec((0u8..4, ops), 1..6),
        proptest::collection::vec(mutation(), 1..3),
    )
}

/// Encodes the stream with ids starting at `first_id`; returns the bytes
/// and each frame's offset.
fn encode(stream: Vec<(u8, Vec<Op>)>, first_id: u64) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut offsets = Vec::new();
    for (id, (kind, ops)) in (first_id..).zip(stream) {
        offsets.push(bytes.len());
        let frame = match kind {
            0 | 1 => Frame::Request {
                id,
                ops,
                trace: (kind == 1).then_some(TraceContext {
                    seq: id,
                    send_ns: id * 3,
                }),
            },
            2 => Frame::Topology { id },
            _ => Frame::Reshard {
                id,
                from: 0,
                to: 1,
                at_op: id,
            },
        };
        wire::encode_into(&mut bytes, &frame);
    }
    (bytes, offsets)
}

fn mutate(bytes: &mut Vec<u8>, offsets: &[usize], mutation: &Mutation) {
    let scale = |ppm: u32, len: usize| (len as u64 * ppm as u64 / 1_000_000) as usize;
    let header = |frame: usize| {
        Some(offsets[frame % offsets.len()]).filter(|at| at + HEADER_LEN <= bytes.len())
    };
    match *mutation {
        Mutation::Flip { at, xor } if !bytes.is_empty() => {
            let at = scale(at, bytes.len());
            bytes[at] ^= xor;
        }
        Mutation::Truncate { at } => bytes.truncate(scale(at, bytes.len())),
        Mutation::Junk(ref junk) => bytes.extend_from_slice(junk),
        Mutation::Restamp { frame, version } => {
            if let Some(at) = header(frame) {
                bytes[at + 2] = version;
            }
        }
        Mutation::Flag { frame } => {
            if let Some(at) = header(frame) {
                bytes[at + 3] |= 0x80;
            }
        }
        Mutation::Length { frame, len } => {
            if let Some(at) = header(frame) {
                bytes[at + 12..at + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
            }
        }
        Mutation::Flip { .. } => {}
    }
}

/// The stream's valid prefix, decoded with the server's own codec, and
/// whether it ends in a malformed frame (answered with one error) rather
/// than at or inside a frame boundary (answered with silence).
fn valid_prefix(sent: &[u8]) -> (Vec<Frame>, bool) {
    let mut r = io::Cursor::new(sent);
    let mut scratch = Vec::new();
    let mut prefix = Vec::new();
    loop {
        match wire::read_frame(&mut r, &mut scratch) {
            Ok((frame, _)) => prefix.push(frame),
            Err(e) => return (prefix, !matches!(e, WireError::Truncated)),
        }
    }
}

/// Whether `reply` is a well-formed answer to `request`.
fn answers(request: &Frame, reply: &Frame) -> bool {
    let id = request.id();
    match (request, reply) {
        (
            Frame::Request { ops, trace, .. },
            Frame::Response {
                id: got,
                results,
                trace: echo,
            },
        ) => {
            *got == id
                && results.len() == ops.len()
                && echo.map(|t| (t.seq, t.client_send_ns)) == trace.map(|t| (t.seq, t.send_ns))
        }
        (Frame::Request { .. }, Frame::Error { id: got, .. }) => *got == id,
        (
            Frame::Topology { .. },
            Frame::TopologyInfo {
                id: got, shards, ..
            },
        ) => *got == id && *shards == 1,
        (Frame::Reshard { .. }, Frame::Error { id: got, code, .. }) => {
            *got == id && *code == ErrorCode::Config
        }
        // A server-side kind sent by the client.
        (_, Frame::Error { id: got, code, .. }) => {
            *got == id && *code == ErrorCode::InvalidArgument
        }
        _ => false,
    }
}

/// Sends `sent` on a fresh connection, half-closes it, and returns every
/// byte the server wrote before closing its side.
fn exchange(addr: &str, sent: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(sent).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut received = Vec::new();
    conn.read_to_end(&mut received)
        .expect("the server closes within the timeout");
    received
}

/// Polls `done` for up to two seconds; closing a socket and exiting a
/// thread are asynchronous to the client.
fn settles(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !done() {
        assert!(Instant::now() < deadline, "{what} never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn mutated_streams_get_their_valid_prefix_answered_then_one_error_then_eof() {
    let server = Server::start(
        "127.0.0.1:0",
        Arc::new(MemStore::new()),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut rng = proptest::test_rng(concat!(module_path!(), "::hostile_peer"));
    let (mut answered, mut errored, mut silent) = (0, 0, 0);
    for case in 0..CASES {
        let (stream, mutations) = cases().sample(&mut rng);
        let (mut sent, offsets) = encode(stream, 1 + case * 8);
        for m in &mutations {
            mutate(&mut sent, &offsets, m);
        }
        let (prefix, malformed) = valid_prefix(&sent);
        // A mutation that forges a shutdown, checkpoint or restore would
        // stop the shared server or write to the filesystem.
        if prefix.iter().any(|f| {
            matches!(
                f,
                Frame::Shutdown { .. } | Frame::Checkpoint { .. } | Frame::Restore { .. }
            )
        }) {
            continue;
        }

        let received = exchange(&addr, &sent);
        let context = format!("case {case}, {mutations:?}, sent {}", hex(&sent));
        let mut r = io::Cursor::new(&received[..]);
        let mut scratch = Vec::new();
        let mut replies = Vec::new();
        while (r.position() as usize) < received.len() {
            match wire::read_frame(&mut r, &mut scratch) {
                Ok((frame, _)) => replies.push(frame),
                Err(e) => panic!("{context}: malformed reply ({e})"),
            }
        }
        assert_eq!(
            replies.len(),
            prefix.len() + usize::from(malformed),
            "{context}: {replies:?}"
        );
        for (request, reply) in prefix.iter().zip(&replies) {
            assert!(
                answers(request, reply),
                "{context}: {reply:?} does not answer {request:?}"
            );
        }
        if malformed {
            let last = replies.last().expect("counted above");
            assert!(
                matches!(last, Frame::Error { id: 0, .. }),
                "{context}: {last:?}"
            );
            errored += 1;
        } else {
            silent += 1;
        }
        answered += prefix.len();
    }
    assert!(
        answered > 0 && errored > 0 && silent > 0,
        "the mutations stopped exercising every outcome: \
         {answered} frames answered, {errored} error tails, {silent} silent ends"
    );

    // Every hostile connection is gone, a clean client is served, and
    // its accept reaps what the hostile ones left in the accept loop.
    let gauge = |name| server.metrics().gauge(name).expect("registered");
    settles("net_active_connections", || {
        gauge("net_active_connections") == 0
    });
    let clean = NetStore::connect(&addr).unwrap();
    clean.put(b"clean", b"1").unwrap();
    assert_eq!(clean.get(b"clean").unwrap().as_deref(), Some(&b"1"[..]));
    settles("net_tracked_connections", || {
        gauge("net_tracked_connections") <= 1
    });
    server.stop().unwrap();
}

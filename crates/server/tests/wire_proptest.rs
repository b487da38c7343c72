//! Wire-protocol robustness properties.
//!
//! Three invariants hold for every frame the protocol can express:
//!
//! 1. **Canonical round-trip** — `decode(frame.encode())` returns an
//!    equal frame, and re-encoding it reproduces the original bytes
//!    exactly. The encoding is a bijection on its image, which is what
//!    lets the equivalence tests compare server and embedded runs
//!    without worrying about codec drift.
//! 2. **Strict rejection** — truncations, trailing garbage, flipped
//!    version/kind/tag bytes, and oversized length fields all come back
//!    as typed [`WireError`]s. Decoding arbitrary attacker-controlled
//!    bytes must never panic or allocate unboundedly.
//! 3. **One encoding** — the buffer-reusing encoder, the streaming
//!    writer and `encoded_len()` all agree with `Frame::encode()`, and
//!    `Frame::encode()` agrees with captured byte fixtures.

use bytes::Bytes;
use gadget_kv::{BatchResult, ReshardEvent};
use gadget_server::wire::{
    self, ErrorCode, Frame, ReplyTrace, TraceContext, WireError, MAX_PAYLOAD,
};
use gadget_types::Op;
use proptest::prelude::*;

/// (kind, key, payload length) triples decoded into ops; payload bytes
/// derive from the op index so the strategy stays cheap.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0u8..64, 0u8..48), 0..40).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (kind, key, len))| {
                let key = vec![key, (i % 251) as u8];
                let payload = vec![(i * 17 + 3) as u8; len as usize];
                match kind {
                    0 => Op::get(key),
                    1 => Op::put(key, payload),
                    2 => Op::merge(key, payload),
                    _ => Op::delete(key),
                }
            })
            .collect()
    })
}

/// (tag, value length) pairs decoded into batch results.
fn results() -> impl Strategy<Value = Vec<BatchResult>> {
    proptest::collection::vec((0u8..3, 0u8..48), 0..40).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tag, len))| match tag {
                0 => BatchResult::Applied,
                1 => BatchResult::Value(None),
                _ => BatchResult::Value(Some(Bytes::from(vec![(i * 13) as u8; len as usize]))),
            })
            .collect()
    })
}

/// Reshard events with every word derived from one seed.
fn event(seed: u64) -> ReshardEvent {
    ReshardEvent {
        at_op: seed,
        from: (seed % 7) as usize,
        to: (seed % 11) as usize,
        slots: (seed % 2521) as usize,
        keys: seed.wrapping_mul(3),
        pause_us: seed % 1_000,
        copy_us: seed % 100_000,
        map_version: seed % 64,
    }
}

/// One frame of any kind, with ids across the u64 range. Kinds 4 and 5
/// are the traced twins of Request and Response; the control frames'
/// fields derive from `id`, `code` and `msg_len` so the strategy stays
/// cheap.
fn frames() -> impl Strategy<Value = Frame> {
    (0u8..14, any::<u64>(), ops(), results(), 0u8..5, 0u8..40).prop_map(
        |(kind, id, ops, results, code, msg_len)| match kind {
            0 => Frame::Request {
                id,
                ops,
                trace: None,
            },
            1 => Frame::Response {
                id,
                results,
                trace: None,
            },
            2 => Frame::Error {
                id,
                code: match code {
                    0 => ErrorCode::Io,
                    1 => ErrorCode::Corruption,
                    2 => ErrorCode::Closed,
                    3 => ErrorCode::InvalidArgument,
                    _ => ErrorCode::Unsupported,
                },
                message: "e".repeat(msg_len as usize),
            },
            3 => Frame::Shutdown { id },
            4 => Frame::Request {
                id,
                ops,
                trace: Some(TraceContext {
                    seq: id ^ 0x9E37_79B9_7F4A_7C15,
                    send_ns: id.wrapping_mul(31),
                }),
            },
            5 => Frame::Response {
                id,
                results,
                trace: Some(ReplyTrace {
                    seq: id,
                    client_send_ns: id.wrapping_add(1),
                    recv_ns: id.wrapping_add(2),
                    dequeue_ns: id.wrapping_add(3),
                    apply_dur_ns: id % 1_000_000,
                    send_ns: id.wrapping_add(5),
                }),
            },
            6 => Frame::Reshard {
                id,
                from: code as u32,
                to: msg_len as u32,
                at_op: id.rotate_left(7),
            },
            7 => Frame::ReshardDone {
                id,
                event: event(id),
            },
            8 => Frame::Topology { id },
            9 => Frame::TopologyInfo {
                id,
                shards: msg_len as u32,
                map_version: id % 64,
                digest: id.rotate_left(13),
                events: (0..code as u64)
                    .map(|i| event(id.wrapping_add(i)))
                    .collect(),
            },
            10 => Frame::Checkpoint {
                id,
                dir: "/d".repeat(msg_len as usize),
            },
            11 => Frame::CheckpointDone {
                id,
                files: msg_len as u64,
                total_bytes: id.rotate_left(3),
                reused: code as u64,
            },
            12 => Frame::Restore {
                id,
                dir: "/d".repeat(msg_len as usize),
            },
            _ => Frame::RestoreDone { id },
        },
    )
}

/// Canonical encodings, one per frame kind, captured when the protocol
/// became one version: byte 2 is [`wire::VERSION`] on every frame and
/// the two traced frames carry the flag in bit 7 of the kind byte.
const FIXTURES: [&str; 14] = [
    "5347040107000000000000002a0000000400000000020000006b3101020000006b32010000007602020000006b33030000000909090300000000",
    "5347040207000000000000000e0000000300000001000203000000616263",
    "5347040309000000000000000e0000000309000000656d707479206b6579",
    "53470404ffffffffffffffff00000000",
    "534704050b000000000000001000000000000000040000008813000000000000",
    "534704060b0000000000000034000000881300000000000000000000040000003b0100003930000000000000b400000000000000f0550000000000000200000000000000",
    "534704070c0000000000000000000000",
    "534704080c000000000000004c0000000500000002000000000000000df0fecaefbeadde01000000881300000000000000000000040000003b0100003930000000000000b400000000000000f0550000000000000200000000000000",
    "534704090e000000000000000f0000000b0000002f746d702f636b70742d31",
    "5347040a0e0000000000000018000000090000000000000040e20100000000000400000000000000",
    "5347040b0f000000000000000f0000000b0000002f746d702f636b70742d31",
    "5347040c0f0000000000000000000000",
    "5347048110000000000000001f0000000100000000060000007472616365642a0000000000000040420f0000000000",
    "5347048210000000000000003500000001000000012a0000000000000040420f000000000080841e0000000000200b200000000000307500000000000060a7200000000000",
];

/// The same frames as the builds before it encoded them: stamped 2, or
/// 3 when traced, with no kind flag.
const PARENT_FIXTURES: [&str; 14] = [
    "5347020107000000000000002a0000000400000000020000006b3101020000006b32010000007602020000006b33030000000909090300000000",
    "5347020207000000000000000e0000000300000001000203000000616263",
    "5347020309000000000000000e0000000309000000656d707479206b6579",
    "53470204ffffffffffffffff00000000",
    "534702050b000000000000001000000000000000040000008813000000000000",
    "534702060b0000000000000034000000881300000000000000000000040000003b0100003930000000000000b400000000000000f0550000000000000200000000000000",
    "534702070c0000000000000000000000",
    "534702080c000000000000004c0000000500000002000000000000000df0fecaefbeadde01000000881300000000000000000000040000003b0100003930000000000000b400000000000000f0550000000000000200000000000000",
    "534702090e000000000000000f0000000b0000002f746d702f636b70742d31",
    "5347020a0e0000000000000018000000090000000000000040e20100000000000400000000000000",
    "5347020b0f000000000000000f0000000b0000002f746d702f636b70742d31",
    "5347020c0f0000000000000000000000",
    "5347030110000000000000001f0000000100000000060000007472616365642a0000000000000040420f0000000000",
    "5347030210000000000000003500000001000000012a0000000000000040420f000000000080841e0000000000200b200000000000307500000000000060a7200000000000",
];

/// The frames [`FIXTURES`] encode, in order.
fn fixture_frames() -> Vec<Frame> {
    let event = ReshardEvent {
        at_op: 5_000,
        from: 0,
        to: 4,
        slots: 315,
        keys: 12_345,
        pause_us: 180,
        copy_us: 22_000,
        map_version: 2,
    };
    vec![
        Frame::Request {
            id: 7,
            ops: vec![
                Op::get(b"k1".to_vec()),
                Op::put(b"k2".to_vec(), b"v".to_vec()),
                Op::merge(b"k3".to_vec(), vec![9u8; 3]),
                Op::delete(b"".to_vec()),
            ],
            trace: None,
        },
        Frame::Response {
            id: 7,
            results: vec![
                BatchResult::Value(None),
                BatchResult::Applied,
                BatchResult::Value(Some(Bytes::copy_from_slice(b"abc"))),
            ],
            trace: None,
        },
        Frame::Error {
            id: 9,
            code: ErrorCode::InvalidArgument,
            message: "empty key".to_string(),
        },
        Frame::Shutdown { id: u64::MAX },
        Frame::Reshard {
            id: 11,
            from: 0,
            to: 4,
            at_op: 5_000,
        },
        Frame::ReshardDone {
            id: 11,
            event: event.clone(),
        },
        Frame::Topology { id: 12 },
        Frame::TopologyInfo {
            id: 12,
            shards: 5,
            map_version: 2,
            digest: 0xDEAD_BEEF_CAFE_F00D,
            events: vec![event],
        },
        Frame::Checkpoint {
            id: 14,
            dir: "/tmp/ckpt-1".to_string(),
        },
        Frame::CheckpointDone {
            id: 14,
            files: 9,
            total_bytes: 123_456,
            reused: 4,
        },
        Frame::Restore {
            id: 15,
            dir: "/tmp/ckpt-1".to_string(),
        },
        Frame::RestoreDone { id: 15 },
        Frame::Request {
            id: 16,
            ops: vec![Op::get(b"traced".to_vec())],
            trace: Some(TraceContext {
                seq: 42,
                send_ns: 1_000_000,
            }),
        },
        Frame::Response {
            id: 16,
            results: vec![BatchResult::Value(None)],
            trace: Some(ReplyTrace {
                seq: 42,
                client_send_ns: 1_000_000,
                recv_ns: 2_000_000,
                dequeue_ns: 2_100_000,
                apply_dur_ns: 30_000,
                send_ns: 2_140_000,
            }),
        },
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn fixtures_decode_and_encode_unchanged() {
    for (hex, frame) in FIXTURES.iter().zip(fixture_frames()) {
        let bytes = unhex(hex);
        assert_eq!(frame.encode(), bytes, "encoding of {frame:?} moved");
        assert_eq!(wire::decode(&bytes).expect("fixture decodes"), frame);
    }
}

#[test]
fn one_version_moved_only_the_version_byte_and_the_traced_flag() {
    let all = PARENT_FIXTURES.iter().zip(FIXTURES).zip(fixture_frames());
    for ((parent, fixture), frame) in all {
        let parent = unhex(parent);
        let mut expected = parent.clone();
        expected[2] = wire::VERSION;
        if matches!(
            frame,
            Frame::Request { trace: Some(_), .. } | Frame::Response { trace: Some(_), .. }
        ) {
            expected[3] |= 0x80;
        }
        assert_eq!(unhex(fixture), expected, "{frame:?}: a payload byte moved");
        let err = wire::decode(&parent).unwrap_err();
        assert!(
            matches!(err, WireError::BadVersion(v) if v == parent[2]),
            "{frame:?}: {err:?}"
        );
    }
}

proptest! {
    #[test]
    fn encode_decode_is_byte_identical(frame in frames()) {
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        let decoded = wire::decode(&bytes).expect("canonical encoding decodes");
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn reused_buffer_and_streaming_codec_agree_with_encode(
        first in frames(),
        second in frames(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let canonical = second.encode();
        prop_assert_eq!(second.encoded_len(), canonical.len());

        // Appending leaves what the buffer already held alone.
        let mut buf = junk.clone();
        prop_assert_eq!(wire::encode_into(&mut buf, &second), canonical.len());
        prop_assert_eq!(&buf[..junk.len()], &junk[..]);
        prop_assert_eq!(&buf[junk.len()..], &canonical[..]);

        // A buffer that carried another frame before, cleared.
        let mut buf = Vec::new();
        wire::encode_into(&mut buf, &first);
        buf.clear();
        prop_assert_eq!(wire::encode_into(&mut buf, &second), canonical.len());
        prop_assert_eq!(&buf, &canonical);

        // The borrowed-ops entry is the same encoder.
        if let Frame::Request { id, ops, trace } = &second {
            buf.clear();
            prop_assert_eq!(
                wire::encode_request_into(&mut buf, *id, ops, *trace),
                canonical.len()
            );
            prop_assert_eq!(&buf, &canonical);
        }

        // Streaming write then read, both through one dirty scratch.
        let mut stream = Vec::new();
        let mut scratch = junk;
        prop_assert_eq!(
            wire::write_frame(&mut stream, &first, &mut scratch).unwrap(),
            first.encoded_len()
        );
        prop_assert_eq!(
            wire::write_frame(&mut stream, &second, &mut scratch).unwrap(),
            canonical.len()
        );
        prop_assert!(stream.ends_with(&canonical));
        let mut r = std::io::Cursor::new(stream);
        let (back, n) = wire::read_frame(&mut r, &mut scratch).unwrap();
        prop_assert_eq!((&back, n), (&first, first.encoded_len()));
        let (back, n) = wire::read_frame(&mut r, &mut scratch).unwrap();
        prop_assert_eq!((&back, n), (&second, canonical.len()));
    }

    #[test]
    fn truncation_at_any_point_is_a_typed_error(frame in frames(), cut_ppm in 0u32..1_000_000) {
        let bytes = frame.encode();
        // Cut somewhere strictly inside the frame.
        let cut = (bytes.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let err = wire::decode(&bytes[..cut.min(bytes.len() - 1)]).unwrap_err();
        prop_assert!(
            matches!(err, WireError::Truncated),
            "cut at {} of {}: {:?}", cut, bytes.len(), err
        );
    }

    #[test]
    fn trailing_bytes_are_rejected(frame in frames(), extra in 1u8..32) {
        let mut bytes = frame.encode();
        bytes.extend(std::iter::repeat_n(0xAB, extra as usize));
        let err = wire::decode(&bytes).unwrap_err();
        prop_assert!(matches!(err, WireError::Trailing(_)), "{err:?}");
    }

    #[test]
    fn wrong_version_is_rejected(frame in frames(), version in any::<u8>()) {
        if version == wire::VERSION {
            continue;
        }
        let mut bytes = frame.encode();
        bytes[2] = version;
        let err = wire::decode(&bytes).unwrap_err();
        prop_assert!(matches!(err, WireError::BadVersion(v) if v == version), "{err:?}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation(frame in frames(), over in 1u32..1_000) {
        let mut bytes = frame.encode();
        bytes[12..16].copy_from_slice(&(MAX_PAYLOAD + over).to_le_bytes());
        let err = wire::decode(&bytes).unwrap_err();
        prop_assert!(matches!(err, WireError::Oversized(_)), "{err:?}");
    }

    #[test]
    fn arbitrary_bytes_never_panic(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine; panicking or aborting is not.
        let _ = wire::decode(&noise);
    }

    #[test]
    fn flipped_byte_never_panics(frame in frames(), pos_ppm in 0u32..1_000_000, xor in 1u8..=255) {
        let mut bytes = frame.encode();
        let pos = (bytes.len() as u64 * pos_ppm as u64 / 1_000_000) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= xor;
        // Either it still decodes (flip hit payload filler) or it is a
        // typed error — never a panic.
        let _ = wire::decode(&bytes);
    }
}

//! Server/embedded equivalence property: for any op sequence and any
//! batch size, running through a real TCP round trip — `NetStore` →
//! wire protocol → `Server` → backend — must produce the same per-op
//! results and the same final state as calling the backend directly.
//! The network layer is a transport, never a semantic layer: values,
//! misses, and typed errors all survive serialization intact.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::{apply_ops_serially, MemStore, StateStore, StoreError};
use gadget_server::{NetStore, Server, ServerConfig};
use gadget_types::Op;

/// Batch sizes under test: the point-op path (one frame per op) and a
/// batch big enough that many ops share one request frame.
const BATCH_SIZES: [usize; 2] = [1, 32];

/// Key universe: single-byte keys 0..12, small enough that sequences
/// revisit keys (overwrites, merge stacking, delete-then-get).
const KEYS: u8 = 12;

/// (kind, key, payload length) triples decoded into ops; payload bytes
/// are a deterministic function of the op index.
fn op_seq() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0u8..KEYS, 1u8..32), 1..200).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (kind, key, len))| {
                let key = vec![key];
                let payload = vec![(i * 29 + 11) as u8; len as usize];
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

/// Runs `ops` directly on one backend instance and, via a served
/// loopback deployment, on another instance of the same backend;
/// asserts identical per-op results and final state.
fn assert_net_equivalent<S: StateStore + 'static>(
    mk: impl Fn() -> S,
    ops: &[Op],
    batch: usize,
    label: &str,
) {
    let embedded = mk();
    let expect = apply_ops_serially(&embedded, ops).unwrap();

    let server = Server::start("127.0.0.1:0", Arc::new(mk()), ServerConfig::default()).unwrap();
    let net = NetStore::connect(&server.local_addr().to_string()).unwrap();

    let mut got = Vec::with_capacity(ops.len());
    for chunk in ops.chunks(batch) {
        got.extend(net.apply_batch(chunk).unwrap());
    }
    assert_eq!(
        got, expect,
        "{label} batch={batch}: per-op results differ between served and embedded"
    );

    // Final-state equivalence via single gets over the wire.
    for key in 0..KEYS {
        let direct = embedded.get(&[key]).unwrap();
        let served = net.get(&[key]).unwrap();
        assert_eq!(
            served, direct,
            "{label} batch={batch}: final state differs at key {key}"
        );
    }

    server.stop().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn the_network_layer_is_semantically_invisible(ops in op_seq()) {
        for batch in BATCH_SIZES {
            assert_net_equivalent(MemStore::new, &ops, batch, "mem");
            assert_net_equivalent(
                || HashLogStore::new(HashLogConfig::small()),
                &ops,
                batch,
                "hashlog",
            );
        }
    }

    #[test]
    fn arbitrary_value_bytes_survive_the_wire(
        value in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Values containing frame-magic bytes, zeros, or length-like
        // prefixes must come back byte-identical: length-prefixed
        // framing means payload content can never confuse the codec.
        let server =
            Server::start("127.0.0.1:0", Arc::new(MemStore::new()), ServerConfig::default())
                .unwrap();
        let net = NetStore::connect(&server.local_addr().to_string()).unwrap();
        net.put(b"k", &value).unwrap();
        prop_assert_eq!(net.get(b"k").unwrap().as_deref(), Some(&value[..]));
        server.stop().unwrap();
    }
}

#[test]
fn wire_checkpoint_and_restore_round_trip_server_side() {
    let server = Server::start(
        "127.0.0.1:0",
        Arc::new(MemStore::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let store = NetStore::connect(&server.local_addr().to_string()).unwrap();
    for i in 0..100u64 {
        store.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
    }
    let scratch = common::TestDir::new("net-ckpt-round-trip");
    let dir = scratch.root();
    let summary = store
        .checkpoint_server(&dir.to_string_lossy())
        .expect("server-side checkpoint");
    assert!(summary.files > 0);
    assert!(summary.total_bytes > 0);
    // Diverge, then restore to the cut — all server-side.
    for i in 0..100u64 {
        store.put(&i.to_be_bytes(), b"diverged").unwrap();
    }
    store.restore_server(&dir.to_string_lossy()).unwrap();
    for i in 0..100u64 {
        assert_eq!(
            store.get(&i.to_be_bytes()).unwrap().as_deref(),
            Some(&i.to_le_bytes()[..]),
            "key {i}"
        );
    }
    // A bad directory surfaces as a typed error, not a dead conn.
    let err = store.restore_server("/nonexistent/ckpt").unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
    assert!(store.get(&1u64.to_be_bytes()).unwrap().is_some());
    server.stop().unwrap();
}

//! A frame header is not a promise the server pays for up front: peers
//! that each declare a `MAX_PAYLOAD` frame and then send nothing must
//! cost the server the bytes they sent, not 32 MiB apiece. This file
//! holds one test on purpose — it reads the process's resident set, so
//! it cannot share a test binary with anything else that allocates.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gadget_kv::{MemStore, StateStore};
use gadget_server::wire::{Frame, HEADER_LEN, MAX_PAYLOAD};
use gadget_server::{NetStore, Server, ServerConfig};

/// This process's resident set size, KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line in kB")
}

#[test]
fn header_only_connections_do_not_reserve_their_declared_payload() {
    const CONNECTIONS: i64 = 32;
    let server = Server::start(
        "127.0.0.1:0",
        Arc::new(MemStore::new()),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    // One clean exchange first, so state built on first use is in the
    // baseline.
    let clean = NetStore::connect(&addr).unwrap();
    clean.put(b"k", b"v").unwrap();
    let before = rss_kib();

    let mut header = Frame::Request {
        id: 1,
        ops: Vec::new(),
        trace: None,
    }
    .encode();
    header.truncate(HEADER_LEN);
    header[12..HEADER_LEN].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
    let flood: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let mut conn = TcpStream::connect(&addr).unwrap();
            conn.write_all(&header).unwrap();
            conn
        })
        .collect();

    // Once every connection has a thread, give the threads time to read
    // their header and block on the payload, watching RSS meanwhile: a
    // server that reserves the declared length grows by 32 MiB per
    // connection within milliseconds.
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.metrics().gauge("net_active_connections") != Some(CONNECTIONS + 1) {
        assert!(Instant::now() < deadline, "connections never all started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut peak = before;
    let watch_until = Instant::now() + Duration::from_millis(500);
    while Instant::now() < watch_until {
        peak = peak.max(rss_kib());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        peak - before < 64 * 1024,
        "{CONNECTIONS} header-only connections grew RSS by {} MiB",
        (peak - before) / 1024
    );

    // Their frames end truncated; the server keeps serving.
    drop(flood);
    assert_eq!(clean.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    server.stop().unwrap();
}

//! Session churn must not accumulate anything on the server: not
//! connections, not thread handles, not threads. This file holds one
//! test on purpose — it counts the process's threads, so it cannot
//! share a test binary with anything that starts some.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gadget_kv::{MemStore, StateStore};
use gadget_server::{NetStore, Server, ServerConfig};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Polls `probe` until it returns `want` or two seconds pass; closing
/// a socket and exiting a thread are asynchronous to the client.
fn settles_to<T: PartialEq + std::fmt::Debug>(what: &str, want: T, probe: impl Fn() -> T) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let got = probe();
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: still {got:?}, expected {want:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn churn_leaves_no_connections_handles_or_threads_behind() {
    let server = Server::start(
        "127.0.0.1:0",
        Arc::new(MemStore::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let threads_before = thread_count();
    let mut tracked_max = 0;
    for i in 0..300u32 {
        let conn = NetStore::connect(&addr).unwrap();
        conn.put(&i.to_be_bytes(), b"v").unwrap();
        drop(conn);
        tracked_max = tracked_max.max(
            server
                .metrics()
                .gauge("net_tracked_connections")
                .expect("the server exports the gauge"),
        );
    }
    settles_to("net_active_connections", Some(0), || {
        server.metrics().gauge("net_active_connections")
    });
    assert_eq!(server.metrics().counter("net_connections"), Some(300));
    // Finished connections are reaped on the next accept, so holding
    // one connection at a time never tracks more than a few.
    assert!(
        tracked_max <= 8,
        "{tracked_max} handles tracked at once for connections held one at a time"
    );
    settles_to("threads", threads_before, thread_count);
    server.stop().unwrap();
}

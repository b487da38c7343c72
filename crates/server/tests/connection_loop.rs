//! The per-connection serve loop, driven from a raw socket: a client
//! that pipelines far past any queue the server ever had, a drain in
//! mid-stream, and garbage after valid requests. What must hold is
//! ordering (replies come back in request order), completeness (an
//! accepted request is always answered) and the malformed-peer
//! contract (valid requests answered, one `Error` frame, then close).

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use gadget_kv::{BatchResult, MemStore, StateStore, StoreError};
use gadget_server::wire::{self, Frame};
use gadget_server::{Server, ServerConfig};
use gadget_types::Op;

fn serve(store: Arc<dyn StateStore>) -> Server {
    Server::start("127.0.0.1:0", store, ServerConfig::default()).expect("bind loopback")
}

/// `count` one-op requests, ids `0..count`, as one byte string: put
/// `i -> i` for even ids, get of the key just put for odd ones.
fn pipelined_requests(count: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for id in 0..count {
        let key = (id / 2).to_be_bytes().to_vec();
        let op = if id.is_multiple_of(2) {
            Op::put(key, id.to_le_bytes().to_vec())
        } else {
            Op::get(key)
        };
        wire::encode_request_into(&mut bytes, id, &[op], None);
    }
    bytes
}

/// The reply [`pipelined_requests`]' request `id` must get.
fn expected_reply(id: u64) -> Frame {
    let result = if id.is_multiple_of(2) {
        BatchResult::Applied
    } else {
        let put_by = id - 1;
        BatchResult::Value(Some(Bytes::copy_from_slice(&put_by.to_le_bytes())))
    };
    Frame::Response {
        id,
        results: vec![result],
        trace: None,
    }
}

/// Reads frames until EOF.
fn read_to_eof(conn: &mut TcpStream) -> Vec<Frame> {
    let mut scratch = Vec::new();
    let mut frames = Vec::new();
    while let Ok((frame, _)) = wire::read_frame(conn, &mut scratch) {
        frames.push(frame);
    }
    frames
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = serve(Arc::new(MemStore::new()));
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    // Everything is written before anything is read.
    conn.write_all(&pipelined_requests(500)).unwrap();
    let mut scratch = Vec::new();
    for id in 0..500 {
        let (reply, _) = wire::read_frame(&mut conn, &mut scratch).expect("a reply per request");
        assert_eq!(reply, expected_reply(id));
    }
    let snap = server.metrics();
    assert_eq!(snap.counter("net_requests"), Some(500));
    server.stop().unwrap();
}

/// A `MemStore` whose first batch reports that it has started and then
/// waits to be released, so a test can act while a request is inside
/// the store and more are queued behind it.
struct GatedStore {
    inner: MemStore,
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl StateStore for GatedStore {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, value)
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.inner.merge(key, operand)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.inner.delete(key)
    }
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        if let Some((entered, release)) = self.gate.lock().unwrap().take() {
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.apply_batch(batch)
    }
}

#[test]
fn shutdown_mid_stream_answers_every_request_already_sent() {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let server = serve(Arc::new(GatedStore {
        inner: MemStore::new(),
        gate: Mutex::new(Some((entered_tx, release_rx))),
    }));
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.write_all(&pipelined_requests(200)).unwrap();
    // The first request is inside the store and 199 are behind it when
    // the drain begins.
    entered.recv().unwrap();
    server.shutdown();
    release.send(()).unwrap();
    let replies = read_to_eof(&mut conn);
    assert_eq!(replies.len(), 200, "every sent request is answered");
    for (id, reply) in replies.into_iter().enumerate() {
        assert_eq!(reply, expected_reply(id as u64));
    }
    server.join().unwrap();
}

#[test]
fn garbage_after_valid_requests_gets_their_replies_then_one_error() {
    let server = serve(Arc::new(MemStore::new()));
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = pipelined_requests(20);
    bytes.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
    // Requests after the garbage are never looked at.
    bytes.extend_from_slice(&pipelined_requests(4));
    conn.write_all(&bytes).unwrap();
    let mut replies = read_to_eof(&mut conn);
    let last = replies.pop().expect("an error frame");
    assert!(
        matches!(&last, Frame::Error { id: 0, message, .. } if message.contains("malformed")),
        "got {last:?}"
    );
    assert_eq!(replies.len(), 20);
    for (id, reply) in replies.into_iter().enumerate() {
        assert_eq!(reply, expected_reply(id as u64));
    }
    // The server is still healthy for well-formed clients.
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.write_all(&pipelined_requests(2)).unwrap();
    let mut scratch = Vec::new();
    assert_eq!(
        wire::read_frame(&mut conn, &mut scratch).unwrap().0,
        expected_reply(0)
    );
    server.stop().unwrap();
}

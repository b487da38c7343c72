//! `gadget serve` and the commands that talk to a running server's
//! control plane: `reshard`, `checkpoint`, `restore`, `stop`.

use gadget_server::NetStore;

use crate::observing::ObservePlan;
use crate::stores::{backend_flag, describe_reshard, StorePlan};
use crate::Flags;

pub(crate) fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let store_plan = StorePlan::from_flags(flags, backend_flag(flags)?)?;
    let addr = flags.optional("addr").unwrap_or("127.0.0.1:4547");
    let opened = store_plan.open()?;
    let config = gadget_server::ServerConfig::default();
    // Server-side tracing: the session must be live *before* connection
    // threads spawn so their per-thread rings register with it. The
    // timeline is written once the server drains.
    let observe = ObservePlan {
        metrics_addr: flags.optional("metrics-addr").map(str::to_string),
        trace_out: flags.optional("trace-out").map(str::to_string),
        ..ObservePlan::default()
    };
    let trace_out = observe.trace_out.clone();
    let mut observing = observe.begin();
    // A sharded store is served through the reshard-aware front so wire
    // `reshard`/`topology` control frames reach it.
    let server = match &opened.sharded {
        Some(sharded) => gadget_server::Server::start_sharded(addr, sharded.clone(), config),
        None => gadget_server::Server::start(addr, opened.base.clone(), config),
    }
    .map_err(|e| e.to_string())?;
    // Exact line first so scripts can scrape the resolved port.
    println!("gadget-server listening on {}", server.local_addr());
    println!("serving {}", store_plan.label);
    if let Some(sharded) = &opened.sharded {
        println!(
            "sharded across {} shards (partition map {}); live `gadget reshard` enabled",
            sharded.shard_count(),
            sharded.partition_digest()
        );
    }
    observing.serve_metrics(server.snapshot_source())?;
    if let Some(out) = &trace_out {
        println!("server tracing on; will write spans to {out} on drain");
    }
    println!("send `gadget stop --addr <addr>` to drain and exit");
    // Blocks until a wire Shutdown frame triggers the drain.
    server.join().map_err(|e| e.to_string())?;
    observing.finish()?;
    println!("gadget-server drained and stopped");
    Ok(())
}

/// Dials the server a control command is addressed to.
fn connect(flags: &Flags) -> Result<(&str, NetStore), String> {
    let addr = flags.required("addr")?;
    let client =
        NetStore::connect(addr).map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    Ok((addr, client))
}

/// `gadget reshard`: fire one live shard split / slot migration on a
/// running server, over the wire. Blocks until the migration completes
/// and prints what it did — the manual (and CI) counterpart of `drive
/// --reshard-at`.
pub(crate) fn cmd_reshard(flags: &Flags) -> Result<(), String> {
    let from: u32 = flags
        .optional_parse("from")?
        .ok_or("missing required flag --from")?;
    let to: u32 = flags
        .optional_parse("to")?
        .ok_or("missing required flag --to")?;
    let at_op: u64 = flags.optional_parse("at-op")?.unwrap_or(0);
    let (addr, client) = connect(flags)?;
    let event = client
        .reshard(from, to, at_op)
        .map_err(|e| format!("reshard on {addr} failed: {e}"))?;
    println!("reshard done: {}", describe_reshard(&event));
    let topology = client
        .topology()
        .map_err(|e| format!("topology query on {addr} failed: {e}"))?;
    println!(
        "topology: {} shards, partition map {} (v{}), {} reshard event(s)",
        topology.shards,
        topology.digest_hex(),
        topology.map_version,
        topology.events.len()
    );
    Ok(())
}

pub(crate) fn cmd_stop(flags: &Flags) -> Result<(), String> {
    let (addr, client) = connect(flags)?;
    client
        .shutdown_server()
        .map_err(|e| format!("shutdown handshake with {addr} failed: {e}"))?;
    println!("server at {addr} acknowledged shutdown and is draining");
    Ok(())
}

/// `gadget checkpoint`: ask a running server to checkpoint its store.
/// The directory is server-local; only the manifest summary crosses the
/// wire, never the table bytes.
pub(crate) fn cmd_checkpoint(flags: &Flags) -> Result<(), String> {
    let dir = flags.required("out")?;
    let (addr, client) = connect(flags)?;
    let summary = client
        .checkpoint_server(dir)
        .map_err(|e| format!("checkpoint on {addr} failed: {e}"))?;
    println!(
        "server checkpointed into {dir}: {} file(s), {} bytes, {} reused from prior checkpoints",
        summary.files, summary.total_bytes, summary.reused
    );
    Ok(())
}

/// `gadget restore`: ask a running server to replace its store's state
/// with a server-local checkpoint taken earlier.
pub(crate) fn cmd_restore(flags: &Flags) -> Result<(), String> {
    let dir = flags.required("from")?;
    let (addr, client) = connect(flags)?;
    client
        .restore_server(dir)
        .map_err(|e| format!("restore on {addr} failed: {e}"))?;
    println!("server at {addr} restored from {dir}");
    Ok(())
}

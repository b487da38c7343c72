//! Mid-run reshard triggers: one op-count trigger for every mode.
//!
//! An [`OpTrigger`] counts the ops a run issues and, the moment the
//! count crosses the planned op index, fires the migration on a
//! *background thread* while the run keeps issuing ops through the open
//! transfer window, so the latency histogram records the migration's
//! interference from the foreground's perspective. What it fires is the
//! caller's: embedded, a [`ReshardingStore`] ticks it per op and fires
//! [`ShardedStore::reshard`]; `gadget-server`'s drive ticks it per
//! segment and fires the reshard over a control connection. It fires
//! at most once, stamps the count at which it crossed as
//! [`ReshardEvent::at_op`], and [`OpTrigger::finish`] joins it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;
use gadget_kv::{BatchResult, ReshardEvent, ShardedStore, StateStore, StoreError};
use gadget_types::Op;

use crate::replayer::panic_error;

/// A planned mid-run reshard: at absolute op index `at_op`, move slots
/// from shard `from` to shard `to` (the store's current shard count to
/// split a brand-new shard into existence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardPlan {
    /// Fire once this many ops have been issued.
    pub at_op: u64,
    /// Source shard.
    pub from: u32,
    /// Target shard.
    pub to: u32,
}

/// Parses the CLI form `frac:from:to` (e.g. `0.5:0:4`) of a run of
/// `total_ops` ops: fire at `frac` (in `0.0..=1.0`) of them, moving
/// slots from shard `from` to shard `to`.
pub fn parse_reshard_spec(spec: &str, total_ops: u64) -> Result<ReshardPlan, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [frac, from, to] = parts.as_slice() else {
        return Err(format!(
            "reshard spec '{spec}' is not of the form <op-frac>:<from>:<to>"
        ));
    };
    let frac: f64 = frac
        .parse()
        .map_err(|_| format!("reshard op fraction '{frac}' is not a number"))?;
    if !(0.0..=1.0).contains(&frac) {
        return Err(format!("reshard op fraction {frac} outside 0.0..=1.0"));
    }
    let from = from
        .parse()
        .map_err(|_| format!("reshard source shard '{from}' is not an index"))?;
    let to = to
        .parse()
        .map_err(|_| format!("reshard target shard '{to}' is not an index"))?;
    Ok(ReshardPlan {
        at_op: (frac * total_ops as f64) as u64,
        from,
        to,
    })
}

/// What a trigger fires: given the op count at which it crossed, run
/// the migration and report it.
type Fire = Box<dyn FnOnce(u64) -> Result<ReshardEvent, StoreError> + Send>;

/// A one-shot op-count trigger that fires a migration on a background
/// thread.
pub struct OpTrigger {
    at_op: u64,
    counted: AtomicU64,
    fire: Mutex<Option<Fire>>,
    migration: Mutex<Option<JoinHandle<Result<ReshardEvent, StoreError>>>>,
}

impl OpTrigger {
    /// Arms `fire` to run once the count reaches `at_op`.
    pub fn new(
        at_op: u64,
        fire: impl FnOnce(u64) -> Result<ReshardEvent, StoreError> + Send + 'static,
    ) -> OpTrigger {
        OpTrigger {
            at_op,
            counted: AtomicU64::new(0),
            fire: Mutex::new(Some(Box::new(fire))),
            migration: Mutex::new(None),
        }
    }

    /// Counts `n` ops and fires if they carried the count to the plan.
    /// The count only grows, so exactly one tick crosses `at_op` (the
    /// first tick, for a plan at op 0), whichever thread makes it. The
    /// fire itself is a thread spawn; the caller never waits for the
    /// migration.
    pub fn tick(&self, n: u64) {
        let before = self.counted.fetch_add(n, Ordering::Relaxed);
        let after = before + n;
        if before >= self.at_op.max(1) || after < self.at_op {
            return;
        }
        let Some(fire) = self.fire.lock().expect("no tick panics holding it").take() else {
            return;
        };
        let handle = std::thread::Builder::new()
            .name("gadget-reshard".to_string())
            .spawn(move || fire(after))
            .expect("spawn reshard thread");
        *self.migration.lock().expect("no tick panics holding it") = Some(handle);
    }

    /// Joins the migration (blocking until it completes if it is still
    /// copying) and returns what it did — `None` if the run ended before
    /// the op count ever reached the plan.
    pub fn finish(&self) -> Option<Result<ReshardEvent, StoreError>> {
        let handle = self
            .migration
            .lock()
            .expect("no tick panics holding it")
            .take()?;
        Some(handle.join().unwrap_or_else(|p| Err(panic_error(p))))
    }
}

/// A [`StateStore`] that ticks an [`OpTrigger`] per op through an
/// inner [`ShardedStore`], firing one planned live reshard of it.
pub struct ReshardingStore {
    inner: Arc<ShardedStore>,
    trigger: OpTrigger,
}

impl ReshardingStore {
    /// Wraps `inner`, arming the plan.
    pub fn new(inner: Arc<ShardedStore>, plan: ReshardPlan) -> ReshardingStore {
        let store = Arc::clone(&inner);
        ReshardingStore {
            inner,
            trigger: OpTrigger::new(plan.at_op, move |at_op| {
                store.reshard(plan.from as usize, plan.to as usize, at_op)
            }),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<ShardedStore> {
        &self.inner
    }

    /// Joins the migration; see [`OpTrigger::finish`].
    pub fn finish(&self) -> Option<Result<ReshardEvent, StoreError>> {
        self.trigger.finish()
    }
}

impl StateStore for ReshardingStore {
    fn inner(&self) -> Option<&dyn StateStore> {
        Some(&*self.inner)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.trigger.tick(1);
        self.inner.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.trigger.tick(1);
        self.inner.put(key, value)
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.trigger.tick(1);
        self.inner.merge(key, operand)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.trigger.tick(1);
        self.inner.delete(key)
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        self.trigger.tick(1);
        self.inner.scan(lo, hi)
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        self.trigger.tick(batch.len() as u64);
        self.inner.apply_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadget_kv::MemStore;

    fn sharded(n: usize) -> Arc<ShardedStore> {
        Arc::new(
            ShardedStore::from_factory(n, |_| Ok(Arc::new(MemStore::new()) as Arc<dyn StateStore>))
                .unwrap(),
        )
    }

    #[test]
    fn plan_parses_the_cli_form() {
        let plan = parse_reshard_spec("0.5:0:4", 1_000).unwrap();
        assert_eq!(
            plan,
            ReshardPlan {
                at_op: 500,
                from: 0,
                to: 4
            }
        );
        assert!(parse_reshard_spec("0.5:0", 10).is_err());
        assert!(parse_reshard_spec("1.5:0:1", 10).is_err());
        assert!(parse_reshard_spec("x:0:1", 10).is_err());
        assert!(parse_reshard_spec("0.1:a:1", 10).is_err());
    }

    #[test]
    fn trigger_fires_once_at_the_planned_op() {
        let inner = sharded(2);
        let store = ReshardingStore::new(
            inner.clone(),
            ReshardPlan {
                at_op: 100,
                from: 0,
                to: 2,
            },
        );
        for i in 0..400u64 {
            store.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let event = store.finish().expect("fired").expect("migration ok");
        assert_eq!(event.at_op, 100);
        assert_eq!(event.to, 2);
        assert_eq!(inner.shard_count(), 3, "split added a shard");
        assert!(store.finish().is_none(), "fires at most once");
        // Nothing lost.
        for i in 0..400u64 {
            assert!(store.get(&i.to_be_bytes()).unwrap().is_some(), "key {i}");
        }

        // Ticked from 4 threads at once, it still fires exactly once,
        // and stamps the count that crossed the plan: with ticks of 7
        // from zero, the first multiple of 7 at or past 100.
        let fired = Arc::new(AtomicU64::new(0));
        let trigger = {
            let fired = Arc::clone(&fired);
            OpTrigger::new(100, move |at_op| {
                fired.fetch_add(1, Ordering::Relaxed);
                Ok(ReshardEvent {
                    at_op,
                    from: 0,
                    to: 1,
                    slots: 0,
                    keys: 0,
                    pause_us: 0,
                    copy_us: 0,
                    map_version: 1,
                })
            })
        };
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..100 {
                        trigger.tick(7);
                    }
                });
            }
        });
        let event = trigger.finish().expect("fired").expect("fire ok");
        assert_eq!(event.at_op, 105);
        assert_eq!(fired.load(Ordering::Relaxed), 1, "fires exactly once");
        assert!(trigger.finish().is_none());
    }

    #[test]
    fn unreached_plan_never_fires() {
        let store = ReshardingStore::new(
            sharded(2),
            ReshardPlan {
                at_op: 1_000,
                from: 0,
                to: 1,
            },
        );
        for i in 0..10u64 {
            store.put(&i.to_be_bytes(), b"v").unwrap();
        }
        assert!(store.finish().is_none());
    }
}

//! Mid-replay reshard triggers for embedded (in-process) runs.
//!
//! The network driver fires its reshard over a control connection; an
//! embedded replay has no wire to send a control frame down, so the
//! trigger rides the data path instead: [`ReshardingStore`] wraps the
//! [`ShardedStore`] being replayed, counts every operation that passes
//! through, and — the moment the count crosses the planned op index —
//! fires the migration on a *background thread* while the replay keeps
//! issuing ops through the open transfer window. That is the point:
//! the replay's latency histogram records the migration's interference
//! from the foreground's perspective, exactly like the paper-style
//! elasticity measurement.
//!
//! The trigger fires at most once. [`ReshardingStore::finish`] joins
//! the migration thread and hands back what it did, so the caller can
//! stamp the [`ReshardEvent`] into the run report.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;
use gadget_kv::{BatchResult, ReshardEvent, ShardedStore, StateStore, StoreError};
use gadget_types::Op;

/// A planned mid-run reshard: at absolute op index `at_op`, move slots
/// from shard `from` to shard `to` (the store's current shard count to
/// split a brand-new shard into existence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardPlan {
    /// Fire after this many ops have passed through the store.
    pub at_op: u64,
    /// Source shard.
    pub from: usize,
    /// Target shard.
    pub to: usize,
}

impl ReshardPlan {
    /// Parses the CLI form `frac:from:to` (e.g. `0.5:0:4`): fire at
    /// `frac` of `total_ops`, moving slots from shard `from` to shard
    /// `to`.
    pub fn parse(spec: &str, total_ops: u64) -> Result<ReshardPlan, String> {
        let (frac, from, to) = parse_reshard_spec(spec)?;
        Ok(ReshardPlan {
            at_op: (frac * total_ops as f64) as u64,
            from: from as usize,
            to: to as usize,
        })
    }
}

/// Splits the CLI form `frac:from:to` into its checked parts: an op
/// fraction in `0.0..=1.0`, a source shard and a target shard.
pub fn parse_reshard_spec(spec: &str) -> Result<(f64, u32, u32), String> {
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
    Ok((frac, from, to))
}

/// A [`StateStore`] that counts ops through an inner [`ShardedStore`]
/// and fires one planned live reshard when the count crosses the plan.
pub struct ReshardingStore {
    inner: Arc<ShardedStore>,
    plan: ReshardPlan,
    counted: AtomicU64,
    fired: AtomicBool,
    migration: Mutex<Option<JoinHandle<Result<ReshardEvent, StoreError>>>>,
}

impl ReshardingStore {
    /// Wraps `inner`, arming the plan.
    pub fn new(inner: Arc<ShardedStore>, plan: ReshardPlan) -> ReshardingStore {
        ReshardingStore {
            inner,
            plan,
            counted: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            migration: Mutex::new(None),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<ShardedStore> {
        &self.inner
    }

    /// Counts `n` ops and fires the migration if the plan's op index
    /// was just crossed. The fire itself is a thread spawn; the data
    /// path never waits for the migration.
    fn tick(&self, n: u64) {
        let after = self.counted.fetch_add(n, Ordering::Relaxed) + n;
        if after < self.plan.at_op || self.fired.swap(true, Ordering::Relaxed) {
            return;
        }
        let store = Arc::clone(&self.inner);
        let plan = self.plan;
        let handle = std::thread::Builder::new()
            .name("gadget-reshard".to_string())
            .spawn(move || store.reshard(plan.from, plan.to, plan.at_op))
            .expect("spawn reshard thread");
        *self.migration.lock().unwrap() = Some(handle);
    }

    /// Joins the migration (blocking until it completes if it is still
    /// copying) and returns what it did — `None` if the replay ended
    /// before the op count ever reached the plan.
    pub fn finish(&self) -> Option<Result<ReshardEvent, StoreError>> {
        let handle = self.migration.lock().unwrap().take()?;
        Some(handle.join().unwrap_or_else(|_| {
            Err(StoreError::Corruption(
                "reshard thread panicked".to_string(),
            ))
        }))
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
        self.tick(1);
        self.inner.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.tick(1);
        self.inner.put(key, value)
    }

    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.tick(1);
        self.inner.merge(key, operand)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.tick(1);
        self.inner.delete(key)
    }

    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        self.tick(1);
        self.inner.scan(lo, hi)
    }

    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        self.tick(batch.len() as u64);
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
        let plan = ReshardPlan::parse("0.5:0:4", 1_000).unwrap();
        assert_eq!(
            plan,
            ReshardPlan {
                at_op: 500,
                from: 0,
                to: 4
            }
        );
        assert!(ReshardPlan::parse("0.5:0", 10).is_err());
        assert!(ReshardPlan::parse("1.5:0:1", 10).is_err());
        assert!(ReshardPlan::parse("x:0:1", 10).is_err());
        assert!(ReshardPlan::parse("0.1:a:1", 10).is_err());
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

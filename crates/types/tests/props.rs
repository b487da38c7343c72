//! Property-based tests for the core types.

use gadget_kv::testutil::TestDir;
use proptest::prelude::*;

use gadget_types::{OpType, StateAccess, StateKey, Trace};

proptest! {
    /// Encoding round-trips for every possible key.
    #[test]
    fn statekey_encode_decode_roundtrip(group in any::<u64>(), ns in any::<u64>()) {
        let key = StateKey::windowed(group, ns);
        prop_assert_eq!(StateKey::decode(&key.encode()), Some(key));
    }

    /// Byte-wise key order equals numeric (group, ns) order — the property
    /// ordered stores rely on for locality.
    #[test]
    fn statekey_encoding_preserves_order(
        a_group in any::<u64>(), a_ns in any::<u64>(),
        b_group in any::<u64>(), b_ns in any::<u64>(),
    ) {
        let a = StateKey::windowed(a_group, a_ns);
        let b = StateKey::windowed(b_group, b_ns);
        let numeric = (a.group, a.ns).cmp(&(b.group, b.ns));
        let bytes = a.encode().cmp(&b.encode());
        prop_assert_eq!(numeric, bytes);
    }

    /// `as_u128` is injective.
    #[test]
    fn statekey_as_u128_injective(
        a_group in any::<u64>(), a_ns in any::<u64>(),
        b_group in any::<u64>(), b_ns in any::<u64>(),
    ) {
        let a = StateKey::windowed(a_group, a_ns);
        let b = StateKey::windowed(b_group, b_ns);
        prop_assert_eq!(a.as_u128() == b.as_u128(), a == b);
    }

    /// Traces survive the binary format for arbitrary contents.
    #[test]
    fn trace_save_load_roundtrip(
        ops in proptest::collection::vec(
            (0u8..4, any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
            0..200,
        ),
        input_events in any::<u64>(),
        input_keys in any::<u64>(),
    ) {
        let mut trace = Trace::new();
        for (tag, group, ns, size, ts) in ops {
            let key = StateKey::windowed(group, ns);
            trace.push(match tag {
                0 => StateAccess::get(key, ts),
                1 => StateAccess::put(key, size, ts),
                2 => StateAccess::merge(key, size, ts),
                _ => StateAccess::delete(key, ts),
            });
        }
        trace.input_events = input_events;
        trace.input_distinct_keys = input_keys;

        let dir = TestDir::new("types-trace-roundtrip");
        let path = dir.path("trace.gdt");
        trace.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        prop_assert_eq!(trace, loaded);
    }

    /// Stats ratios always sum to 1 for non-empty traces and every ratio
    /// is a probability.
    #[test]
    fn stats_ratios_are_probabilities(
        tags in proptest::collection::vec(0u8..4, 1..500),
    ) {
        let mut trace = Trace::new();
        for (i, tag) in tags.iter().enumerate() {
            let key = StateKey::plain(i as u64 % 17);
            trace.push(match tag {
                0 => StateAccess::get(key, i as u64),
                1 => StateAccess::put(key, 8, i as u64),
                2 => StateAccess::merge(key, 8, i as u64),
                _ => StateAccess::delete(key, i as u64),
            });
        }
        let stats = trace.stats();
        let sum: f64 = OpType::ALL.iter().map(|&op| stats.ratio(op)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for op in OpType::ALL {
            prop_assert!((0.0..=1.0).contains(&stats.ratio(op)));
        }
        prop_assert!(stats.distinct_keys <= stats.total);
    }
}

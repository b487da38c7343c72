//! The trace file format, pinned: `fixtures/disordered.gdt` and
//! `fixtures/borg.gdt` were written by `gadget generate` from the configs
//! beside them while it still built the whole trace in memory and saved
//! it afterwards (commit dcf7dc3). Both of today's writers — `Trace::save`
//! over an in-memory trace and `GadgetConfig::write_trace`, which writes
//! while it drives — must produce the same bytes, and `Trace::load` must
//! read them back.

use gadget_core::GadgetConfig;
use gadget_kv::testutil::TestDir;
use gadget_types::Trace;

/// `(name, config, trace file)`: a disordered synthetic session window,
/// and the `borg` dataset through a holistic tumbling window.
const FIXTURES: [(&str, &str, &[u8]); 2] = [
    (
        "disordered",
        include_str!("fixtures/disordered.json"),
        include_bytes!("fixtures/disordered.gdt"),
    ),
    (
        "borg",
        include_str!("fixtures/borg.json"),
        include_bytes!("fixtures/borg.gdt"),
    ),
];

fn config(json: &str) -> GadgetConfig {
    serde_json::from_str(json).expect("fixture config parses")
}

#[test]
fn saving_an_in_memory_trace_writes_the_fixture_bytes() {
    let dir = TestDir::new("core-golden-trace-save");
    for (name, json, golden) in FIXTURES {
        let path = dir.path(name);
        config(json).run().save(&path).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == golden,
            "{name}: saved bytes differ from the fixture"
        );
    }
}

#[test]
fn writing_while_driving_writes_the_fixture_bytes() {
    let dir = TestDir::new("core-golden-trace-write");
    for (name, json, golden) in FIXTURES {
        let path = dir.path(name);
        let stats = config(json).write_trace(&path).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == golden,
            "{name}: streamed bytes differ from the fixture"
        );
        assert_eq!(stats, Trace::load(&path).unwrap().stats(), "{name}");
    }
}

#[test]
fn the_fixtures_read_back_as_the_traces_they_were_made_from() {
    let dir = TestDir::new("core-golden-trace-load");
    for (name, json, golden) in FIXTURES {
        let path = dir.path(name);
        std::fs::write(&path, golden).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert!(!loaded.is_empty(), "{name}");
        assert_eq!(loaded, config(json).run(), "{name}");
    }
}

//! Acceptance: two same-seed full-stack simulated runs produce
//! byte-identical telemetry exports.

use xfm_bench::replay::replay;

#[test]
fn same_seed_full_stack_exports_are_byte_identical() {
    let first = replay(0xDEAD_BEEF, true);
    let second = replay(0xDEAD_BEEF, true);
    assert_eq!(first, second, "same-seed exports diverged");
    // Sanity: the export actually carries data from every layer.
    for key in ["\"fallback\"", "\"mem\"", "\"nma\"", "\"telemetry\""] {
        assert!(first.contains(key), "export missing {key} section");
    }
    // The byte-diff covers the simulator's event stream: the trail's
    // sim-timestamped events are exported, not an empty array.
    let events = first
        .split("\"events\": [")
        .nth(1)
        .expect("export missing the events array");
    let exported = events
        .split("\n  ]")
        .next()
        .unwrap_or_default()
        .matches("{\"seq\": ")
        .count();
    assert!(exported > 0, "export carries no lifecycle events");
}

#[test]
fn different_seeds_change_the_export() {
    let a = replay(1, true);
    let b = replay(2, true);
    assert_ne!(a, b, "seed does not influence the export");
}

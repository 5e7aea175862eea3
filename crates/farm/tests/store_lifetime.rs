// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! A default farm's memo lives and dies with the farm. Kept in its own
//! test binary: another test's job on the same executor thread would
//! replace that thread's graph and free the store before the check, so
//! the check could not fail.

use ape_farm::{Farm, FarmConfig, SweepPlan};
use ape_netlist::Technology;
use std::sync::Arc;

/// A default farm owns its memo: a sweep's designs are inserted into the
/// farm's store, and dropping the farm frees them, although the executor
/// threads that ran the sweep still hold the store through their graphs.
#[test]
fn default_farm_memoizes_only_in_its_store() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::default());
    let store = Arc::downgrade(farm.shared_memo().expect("a default farm owns a store"));
    let report = SweepPlan::example().run(&farm);
    assert_eq!(report.successes().count(), report.records.len());
    let stats = store.upgrade().expect("the farm holds its store").stats();
    assert!(stats.inserts > 0, "{stats:?}");

    drop(farm);
    let left = store.upgrade().map_or(0, |s| s.len());
    assert_eq!(left, 0, "the sweep's entries outlived the farm");
}

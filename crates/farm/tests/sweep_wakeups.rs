// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! A sweep's calling thread sleeps about once per plan, not once per
//! point. Kept in its own test binary so no other test shares the process
//! while the calling thread's context switches are counted.

#[cfg(target_os = "linux")]
#[test]
fn a_sweep_sleeps_about_once_per_plan() {
    use ape_farm::{Farm, FarmConfig, SweepPlan};
    use ape_netlist::Technology;

    /// Times the calling thread has blocked so far.
    fn voluntary_switches() -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").expect("thread status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches line")
    }

    /// The example grid with every gain scaled by `1 + k/100`, so no two
    /// plans share a point.
    fn plan(k: u32) -> SweepPlan {
        let mut plan = SweepPlan::example();
        for g in &mut plan.gains {
            *g *= 1.0 + f64::from(k) / 100.0;
        }
        plan
    }

    let tech = Technology::default_1p2um();
    let sweep = |k: u32| {
        let farm = Farm::new(tech.clone(), FarmConfig::default());
        let report = plan(k).run(&farm);
        assert_eq!(report.successes().count(), report.records.len(), "plan {k}");
    };
    // Start the executor and fault in the code paths outside the count.
    sweep(0);

    const PLANS: u32 = 20;
    let before = voluntary_switches();
    for k in 1..=PLANS {
        sweep(k);
    }
    let per_plan = (voluntary_switches() - before) as f64 / f64::from(PLANS);
    // Waiting on the last point first sleeps 1-4 times per 144-point plan;
    // waiting point by point sleeps for most of the points.
    assert!(
        per_plan <= 24.0,
        "the sweeping thread blocked {per_plan:.1} times per plan"
    );
}

//! Farm fault injection: jobs that fail, time out, or panic on purpose.
//! The farm must keep all three guarantees under fire: it stays alive, a
//! failure is never served to a later submission of the same key, and
//! every waiter (owner or deduplicated) is woken with a result.

use ape_farm::{Farm, FarmConfig, FarmError, Request, Response};
use ape_netlist::Technology;
use std::time::Duration;

fn erroring_job(_tech: &Technology) -> Result<Response, FarmError> {
    Err(FarmError::Ape(ape_core::ApeError::Infeasible {
        component: "fault-injection",
        message: "deliberate failure".to_string(),
    }))
}

fn panicking_job(_tech: &Technology) -> Result<Response, FarmError> {
    panic!("deliberate fault-injection panic");
}

fn slow_job(_tech: &Technology) -> Result<Response, FarmError> {
    std::thread::sleep(Duration::from_millis(30));
    Ok(Response::Text("slow ok".into()))
}

fn honest_job(_tech: &Technology) -> Result<Response, FarmError> {
    Ok(Response::Text("ok".into()))
}

/// Runs the whole fault-injection suite. Returns the failures it found
/// (empty = all guarantees held).
pub fn run() -> Vec<String> {
    let mut failures = Vec::new();
    let tech = Technology::default_1p2um();

    // 1. Erroring jobs: every waiter sees the error; the key is then
    //    free again and the farm still serves honest work.
    {
        let farm = Farm::new(tech.clone(), FarmConfig::default());
        let handles: Vec<_> = (0..6)
            .map(|_| {
                farm.submit(Request::Custom {
                    label: "inject-error",
                    nonce: 1,
                    run: erroring_job,
                })
            })
            .collect();
        for h in handles {
            match h.wait() {
                Err(FarmError::Ape(_)) => {}
                other => failures.push(format!(
                    "erroring job returned {other:?}, expected Ape error"
                )),
            }
        }
        let again = farm.submit(Request::Custom {
            label: "inject-error",
            nonce: 1,
            run: honest_job,
        });
        if again.wait().is_err() {
            failures.push("error poisoned the key".to_string());
        }
    }

    // 2. Panicking jobs: waiters get `Panicked`, executor threads survive,
    //    and the farm keeps executing afterwards.
    {
        let farm = Farm::new(tech.clone(), FarmConfig::default());
        let handles: Vec<_> = (0..6)
            .map(|_| {
                farm.submit(Request::Custom {
                    label: "inject-panic",
                    nonce: 2,
                    run: panicking_job,
                })
            })
            .collect();
        for h in handles {
            match h.wait() {
                Err(FarmError::Panicked(m)) if !m.trim().is_empty() => {}
                other => failures.push(format!(
                    "panicking job returned {other:?}, expected Panicked"
                )),
            }
        }
        if farm.stats().panicked == 0 {
            failures.push("panic not counted in stats".to_string());
        }
        let after = farm.submit(Request::Custom {
            label: "inject-panic-recovery",
            nonce: 3,
            run: honest_job,
        });
        if after.wait().is_err() {
            failures.push("farm dead after panics".to_string());
        }
    }

    // 3. Timed-out jobs: an already-expired deadline cancels cleanly.
    {
        let cfg = FarmConfig {
            job_timeout: Some(Duration::from_millis(0)),
            ..FarmConfig::default()
        };
        let farm = Farm::new(tech.clone(), cfg);
        let h = farm.submit(Request::Custom {
            label: "inject-timeout",
            nonce: 4,
            run: slow_job,
        });
        match h.wait() {
            Err(FarmError::Cancelled) | Ok(_) => {}
            other => failures.push(format!(
                "timed-out job returned {other:?}, expected Cancelled"
            )),
        }
    }

    // 4. Mixed storm: interleave honest, erroring, panicking, and slow jobs
    //    under distinct keys; every single waiter must be woken.
    {
        let farm = Farm::new(tech, FarmConfig::default());
        let mut handles = Vec::new();
        for k in 0..24u64 {
            let run = match k % 4 {
                0 => honest_job,
                1 => erroring_job,
                2 => panicking_job,
                _ => slow_job,
            };
            handles.push(farm.submit(Request::Custom {
                label: "storm",
                nonce: 100 + k,
                run,
            }));
        }
        for (k, h) in handles.into_iter().enumerate() {
            let r = h.wait();
            let ok = match k % 4 {
                0 | 3 => r.is_ok(),
                1 => matches!(r, Err(FarmError::Ape(_))),
                _ => matches!(r, Err(FarmError::Panicked(_))),
            };
            if !ok {
                failures.push(format!("storm job {k} got {r:?}"));
            }
        }
        let stats = farm.stats();
        if stats.executed != 24 {
            failures.push(format!("storm executed {} of 24 jobs", stats.executed));
        }
    }

    failures
}

//! Single-flight deduplication of jobs in flight.
//!
//! A request's [`canonical_key`](crate::job::canonical_key) identifies the
//! computation. The first submitter of a key becomes its *owner* and runs
//! the job; every submitter of the same key while that job is still in
//! flight joins the owner's [`Flight`] instead of running it again. The
//! map entry is removed when the owner publishes, so the map holds only
//! unfinished jobs and a later submission of the key runs afresh — finished
//! results live on only in the estimation graph's bounded memos.

use crate::job::{FarmError, Response};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

type Outcome = Result<Response, FarmError>;

/// One computation's result slot and the condvar its waiters sleep on, so
/// a publish wakes only the waiters of that flight, and only when there
/// are any.
#[derive(Debug, Default)]
pub(crate) struct Flight {
    slot: Mutex<Slot>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct Slot {
    outcome: Option<Outcome>,
    /// Threads waiting on `done`. A waiter counts itself under the slot
    /// lock before it sleeps, so a publish that reads 0 has no one to
    /// wake and skips the notify.
    sleepers: usize,
}

impl Flight {
    /// A flight born finished, for submissions rejected before they run.
    pub(crate) fn resolved(outcome: Outcome) -> Arc<Flight> {
        Arc::new(Flight {
            slot: Mutex::new(Slot {
                outcome: Some(outcome),
                sleepers: 0,
            }),
            done: Condvar::new(),
        })
    }

    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set(&self, outcome: Outcome) {
        let sleepers = {
            let mut slot = self.slot();
            slot.outcome = Some(outcome);
            slot.sleepers
        };
        if sleepers > 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until the flight has a result and returns a clone of it.
    pub(crate) fn wait(&self) -> Outcome {
        let mut slot = self.slot();
        loop {
            if let Some(outcome) = &slot.outcome {
                return outcome.clone();
            }
            slot.sleepers += 1;
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
            slot.sleepers -= 1;
        }
    }

    /// Non-blocking peek at the result.
    pub(crate) fn peek(&self) -> Option<Outcome> {
        self.slot().outcome.clone()
    }
}

/// The jobs in flight, by key.
#[derive(Debug, Default)]
pub(crate) struct Flights {
    map: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl Flights {
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<Flight>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Joins the flight for `key`, or starts one. The flag is `true` when
    /// the caller owns the new flight and must [`publish`](Self::publish)
    /// it on every path, or its waiters sleep forever.
    pub(crate) fn claim(&self, key: u64) -> (Arc<Flight>, bool) {
        match self.lock().entry(key) {
            Entry::Occupied(e) => {
                ape_probe::counter("ape.farm.flight.dedup", 1);
                (e.get().clone(), false)
            }
            Entry::Vacant(e) => (e.insert(Arc::default()).clone(), true),
        }
    }

    /// Retires the owner's flight and wakes its waiters.
    pub(crate) fn publish(&self, key: u64, flight: &Flight, outcome: Outcome) {
        self.lock().remove(&key);
        flight.set(outcome);
    }

    /// Number of jobs in flight.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn duplicates_join_until_publish_then_the_key_is_free() {
        let flights = Flights::default();
        let (owner, owns) = flights.claim(7);
        assert!(owns);
        let (joined, owns) = flights.claim(7);
        assert!(!owns, "in-flight duplicate joins");
        assert!(Arc::ptr_eq(&owner, &joined));
        flights.publish(7, &owner, Ok(Response::Text("done".into())));
        assert!(matches!(joined.wait(), Ok(Response::Text(s)) if s == "done"));
        assert_eq!(flights.len(), 0);
        assert!(flights.claim(7).1, "a finished key is claimed afresh");
    }

    /// A publish notifies only when a waiter sleeps, so a waiter arriving
    /// just as the result lands must still return: 10 000 publishes race a
    /// waiter's arrival, and every wait returns.
    #[test]
    fn a_publish_racing_a_waiter_never_strands_it() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (to_waiter, arrivals) = mpsc::channel::<Arc<Flight>>();
        let (returned, waits) = mpsc::channel::<usize>();
        let waiter = thread::spawn(move || {
            for (k, flight) in arrivals.iter().enumerate() {
                assert!(flight.wait().is_ok());
                returned.send(k).unwrap();
            }
        });
        let flights = Flights::default();
        for k in 0..10_000u64 {
            let (flight, _) = flights.claim(k);
            to_waiter.send(flight.clone()).unwrap();
            // Vary which side usually wins the race.
            for _ in 0..k % 4 {
                thread::yield_now();
            }
            flights.publish(k, &flight, Ok(Response::Text(String::new())));
            assert_eq!(
                waits.recv_timeout(Duration::from_secs(10)),
                Ok(k as usize),
                "the waiter on flight {k} never returned"
            );
        }
        drop(to_waiter);
        waiter.join().unwrap();
    }

    #[test]
    fn waiters_block_until_publish() {
        let flights = Arc::new(Flights::default());
        let (flight, _) = flights.claim(3);
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let flight = flight.clone();
                thread::spawn(move || flight.wait())
            })
            .collect();
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(flight.peek().is_none());
        flights.publish(3, &flight, Err(FarmError::QueueFull));
        for w in waiters {
            assert_eq!(w.join().unwrap().unwrap_err(), FarmError::QueueFull);
        }
    }
}

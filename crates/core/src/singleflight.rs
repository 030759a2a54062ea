//! Single-flight request coalescing.
//!
//! A [`SingleFlight`] group guarantees that, for any key, at most one
//! caller at a time executes the expensive computation while every
//! concurrent caller for the same key blocks and receives a clone of
//! the leader's result. This is the serving-layer complement to the
//! executor's content-addressed cell cache: the cache deduplicates
//! *completed* work, single-flight deduplicates work that is still *in
//! flight*, so a burst of identical queries costs one computation
//! instead of N.
//!
//! The group is deliberately memoryless: once the leader finishes and
//! the followers are released, the key is forgotten. Callers that want
//! repeated queries served without recomputation put a cache in front
//! (as `regend`'s artifact cache does) — conflating the two concerns
//! would make cache-eviction policy a correctness hazard here.
//!
//! Panic safety: if the leader's closure panics, the slot is cleaned up
//! and one waiting follower is promoted to leader (the unwinding is
//! propagated to the original leader's caller). Followers therefore
//! never deadlock on a dead flight.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// How a [`SingleFlight::run`] call obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// This caller executed the computation.
    Led,
    /// This caller waited for a concurrent leader and shares its value.
    Coalesced,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlightState {
    /// A leader is running the computation.
    Running,
    /// The leader panicked; a follower must take over.
    Abandoned,
}

/// A group of in-flight computations, keyed by string.
///
/// `V` is the (cloneable) result type. The closure runs *outside* the
/// group lock, so computations for different keys proceed in parallel.
#[derive(Debug, Default)]
pub struct SingleFlight<V: Clone> {
    flights: Mutex<HashMap<String, FlightState>>,
    done: Mutex<HashMap<String, V>>,
    cv: Condvar,
}

fn relock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<V: Clone> SingleFlight<V> {
    /// An empty group.
    pub fn new() -> SingleFlight<V> {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
            done: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Runs `f` for `key`, coalescing with any concurrent call for the
    /// same key: exactly one caller (the leader) executes `f`; the rest
    /// block and receive a clone of the leader's value.
    pub fn run(&self, key: &str, f: impl FnOnce() -> V) -> (V, FlightOutcome) {
        let mut flights = relock(&self.flights);
        loop {
            match flights.get(key) {
                None | Some(FlightState::Abandoned) => {
                    // Become (or take over as) the leader. Any value a
                    // *previous* flight posted is dropped now, so this
                    // flight's followers wait for the fresh one.
                    flights.insert(key.to_string(), FlightState::Running);
                    relock(&self.done).remove(key);
                    drop(flights);
                    let value = {
                        // If `f` panics, mark the flight abandoned so a
                        // follower is promoted instead of waiting forever.
                        let guard = AbandonOnDrop { group: self, key, armed: true };
                        let value = f();
                        let mut g = guard;
                        g.armed = false;
                        value
                    };
                    relock(&self.done).insert(key.to_string(), value.clone());
                    relock(&self.flights).remove(key);
                    self.cv.notify_all();
                    return (value, FlightOutcome::Led);
                }
                Some(FlightState::Running) => {
                    flights = self.cv.wait(flights).unwrap_or_else(|e| e.into_inner());
                    // The leader finished (value posted) or died
                    // (Abandoned: loop back and take over). A *later*
                    // flight for the same key clears the posted value
                    // when it starts, so a stale read is impossible and
                    // we simply loop like everyone else.
                    if let Some(v) = relock(&self.done).get(key).cloned() {
                        return (v, FlightOutcome::Coalesced);
                    }
                }
            }
        }
    }
}

struct AbandonOnDrop<'a, V: Clone> {
    group: &'a SingleFlight<V>,
    key: &'a str,
    armed: bool,
}

impl<V: Clone> Drop for AbandonOnDrop<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            relock(&self.group.flights).insert(self.key.to_string(), FlightState::Abandoned);
            self.group.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn concurrent_callers_coalesce_onto_one_computation() {
        let group = Arc::new(SingleFlight::<u64>::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let group = Arc::clone(&group);
            let calls = Arc::clone(&calls);
            handles.push(std::thread::spawn(move || {
                group.run("k", || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    42
                })
            }));
        }
        let results: Vec<(u64, FlightOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|(v, _)| *v == 42));
        let leaders = results.iter().filter(|(_, o)| *o == FlightOutcome::Led).count();
        // Threads that arrive after the flight lands lead a fresh one,
        // so more than one leader is possible — but every caller that
        // overlapped the first flight must have coalesced.
        assert_eq!(leaders, calls.load(Ordering::SeqCst));
        assert!(leaders < 8, "at least one caller coalesced");
    }

    #[test]
    fn distinct_keys_run_independently() {
        let group = SingleFlight::<&'static str>::new();
        assert_eq!(group.run("a", || "va").0, "va");
        assert_eq!(group.run("b", || "vb").0, "vb");
    }

    #[test]
    fn a_panicking_leader_promotes_a_follower() {
        let group = Arc::new(SingleFlight::<u64>::new());
        let g2 = Arc::clone(&group);
        let doomed = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g2.run("k", || panic!("leader dies"))
            }));
            assert!(r.is_err());
        });
        // Give the doomed leader a head start, then follow.
        std::thread::sleep(Duration::from_millis(20));
        let (v, _) = group.run("k", || 7);
        assert_eq!(v, 7);
        doomed.join().unwrap();
    }
}

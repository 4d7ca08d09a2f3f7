//! The server's job queue: the fleet's cost-aware `CostScheduler`
//! (DESIGN.md §16), sized from [`ServerConfig`].
//!
//! The tests below check the contracts the accept loop, the workers and
//! the graceful drain rely on, on a queue built exactly as the server
//! builds it: a full queue hands the job back for a `rejected` reply,
//! close lets accepted jobs drain and then releases every worker, and a
//! close racing concurrent pushes loses no job.

use gpumc_fleet::sched::CostScheduler;

use crate::server::ServerConfig;

/// Builds the server's job queue: `config.max_queue` slots shared by
/// the fast lane and one heavy lane per worker.
pub(crate) fn job_queue<T>(config: &ServerConfig, workers: usize) -> CostScheduler<T> {
    CostScheduler::new(config.max_queue, workers, config.fast_lane_max_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::DEFAULT_FAST_LANE_MAX_COST;
    use gpumc_fleet::sched::PushError;
    use std::sync::{Arc, Mutex};

    /// A predicted cost that takes the fast lane under the default config.
    const CHEAP: u64 = 1;
    /// A predicted cost that takes a heavy lane under the default config.
    const HEAVY: u64 = DEFAULT_FAST_LANE_MAX_COST + 1;

    fn queue<T>(max_queue: usize, workers: usize) -> CostScheduler<T> {
        job_queue(&ServerConfig { max_queue, ..ServerConfig::default() }, workers)
    }

    #[test]
    fn full_queue_refuses_and_returns_the_job() {
        let q = queue(2, 2);
        q.try_push("a", CHEAP).unwrap();
        q.try_push("b", HEAVY).unwrap();
        assert_eq!(q.capacity(), 2);
        match q.try_push("c", CHEAP) {
            Err(PushError::Full(job)) => assert_eq!(job, "c"),
            other => panic!("expected Full, got {other:?}"),
        }
        // Popping frees a slot.
        assert_eq!(q.pop(0), Some("a"));
        q.try_push("c", CHEAP).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = queue(4, 2);
        q.try_push(1, CHEAP).unwrap();
        q.try_push(2, HEAVY).unwrap();
        q.close();
        assert!(matches!(q.try_push(3, CHEAP), Err(PushError::Closed(3))));
        let mut drained = vec![q.pop(0).unwrap(), q.pop(1).unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2], "accepted jobs drain after close");
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(queue::<u32>(4, 4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop(w))
            })
            .collect();
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn shutdown_race_loses_no_job() {
        // A close racing concurrent pushes must leave every job
        // accounted for — either accepted (and drainable) or handed back
        // to its producer for a `rejected` reply. A job that is neither
        // is a silently dropped request.
        for round in 0..50 {
            let q = Arc::new(queue(4, 2));
            let accepted = Arc::new(Mutex::new(Vec::new()));
            let bounced = Arc::new(Mutex::new(Vec::new()));
            std::thread::scope(|s| {
                for p in 0..3u32 {
                    let q = Arc::clone(&q);
                    let accepted = Arc::clone(&accepted);
                    let bounced = Arc::clone(&bounced);
                    s.spawn(move || {
                        for i in 0..20u32 {
                            let job = p * 100 + i;
                            let cost = if i % 2 == 0 { CHEAP } else { HEAVY };
                            match q.try_push(job, cost) {
                                Ok(()) => accepted.lock().unwrap().push(job),
                                Err(PushError::Full(j) | PushError::Closed(j)) => {
                                    bounced.lock().unwrap().push(j);
                                }
                            }
                        }
                    });
                }
                // Close at a pseudo-random moment mid-burst.
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for _ in 0..round % 7 {
                        std::thread::yield_now();
                    }
                    q.close();
                });
            });
            let mut drained = q.drain_now();
            assert!(q.is_closed());
            assert_eq!(q.pop(0), None, "drain_now leaves nothing poppable");
            let mut acc = accepted.lock().unwrap().clone();
            drained.sort_unstable();
            acc.sort_unstable();
            assert_eq!(drained, acc, "every accepted job is drainable");
            assert_eq!(
                drained.len() + bounced.lock().unwrap().len(),
                60,
                "every job is either accepted or handed back"
            );
        }
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let workers = 4;
        let q = Arc::new(queue(8, workers));
        let total = 400u32;
        let consumed = Arc::new(Mutex::new(Vec::new()));
        // Consumers run unscoped so they can outlive the producer scope;
        // they exit when pop() observes close + empty.
        let consumers: Vec<_> = (0..workers)
            .map(|w| {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    while let Some(v) = q.pop(w) {
                        consumed.lock().unwrap().push(v);
                    }
                })
            })
            .collect();
        std::thread::scope(|s| {
            for p in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..total / 4 {
                        // Spin on backpressure: producers in this test
                        // must deliver everything.
                        let mut job = p * 1000 + i;
                        let cost = if i % 3 == 0 { HEAVY } else { CHEAP };
                        loop {
                            match q.try_push(job, cost) {
                                Ok(()) => break,
                                Err(PushError::Full(j)) => {
                                    job = j;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                });
            }
        });
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        let mut want: Vec<u32> = (0..4)
            .flat_map(|p| (0..total / 4).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

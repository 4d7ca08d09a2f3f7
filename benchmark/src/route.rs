//! The `route-zipf` workload: a seeded Zipf stream of validation-tier
//! requests, routed one request per `fleet::router::route` call by two
//! closed-loop callers over a two-shard in-process `serve` fleet.
//!
//! Every pass starts fresh shards, so their caches are cold for every
//! timed key. Requests for one key never overlap in flight (a caller
//! waits for an in-flight duplicate to finish first), so the first
//! request of each key misses and every later one hits, whatever the
//! thread timing: hit and miss counts depend on the seed alone.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

use gpumc::fleet::router::{route, routing_digest, RoutePolicy, RouteRequest};
use gpumc::gpumc_catalog::Property;
use gpumc_serve::json::Json;
use gpumc_serve::{Client, Server, ServerConfig, ShutdownHandle};

use crate::inputs;
use crate::refs::{wire_verdict, References};
use crate::rng::zipf_stream;
use crate::trace::Tracer;

pub const SHARDS: usize = 2;
pub const CALLERS: usize = 2;
/// Requests per pass.
pub const STREAM_LEN: usize = 3000;
pub const ZIPF_S: f64 = 1.1;
/// Requests routed through a throwaway fleet by each set-up repetition.
const WARM_UP: usize = 96;

pub struct Key {
    pub request: RouteRequest,
    pub property: Property,
    pub reference: Option<bool>,
}

/// Every validation-tier test as a routed request.
pub fn keys(refs: &References) -> Vec<Key> {
    inputs::route_tests()
        .into_iter()
        .map(|t| Key {
            reference: refs.verdict(inputs::LITMUS_SET, &t.name, t.property, t.bound),
            property: t.property,
            request: RouteRequest {
                name: t.name,
                source: t.source,
                model: None,
                bound: t.bound,
                engine: "sat".to_string(),
                timeout_ms: None,
                faults: None,
            },
        })
        .collect()
}

/// The request stream of pass `pass`: indices into [`keys`].
pub fn stream(seed: u64, pass: u64, n_keys: usize) -> Vec<usize> {
    zipf_stream(seed, (1 << 32) + pass, n_keys, ZIPF_S, STREAM_LEN)
}

/// In-process `serve` shards, one worker each, in-memory caches.
pub struct Fleet {
    pub addrs: Vec<String>,
    servers: Vec<(ShutdownHandle, JoinHandle<std::io::Result<()>>)>,
}

impl Fleet {
    pub fn start() -> std::io::Result<Fleet> {
        let mut fleet = Fleet {
            addrs: Vec::new(),
            servers: Vec::new(),
        };
        for _ in 0..SHARDS {
            let server = Server::bind(&ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                jobs: 1,
                ..ServerConfig::default()
            })?;
            fleet.addrs.push(server.local_addr()?.to_string());
            let stop = server.shutdown_handle();
            fleet
                .servers
                .push((stop, std::thread::spawn(move || server.run())));
        }
        Ok(fleet)
    }

    /// Sums of the shards' `metrics` snapshots.
    pub fn metrics(&self) -> std::io::Result<ServeMetrics> {
        let mut m = ServeMetrics::default();
        for addr in &self.addrs {
            let resp = Client::connect(addr)?.metrics()?;
            let snap = resp.get("metrics").unwrap_or(&resp);
            let counter = |k: &str| {
                snap.get("counters")
                    .and_then(|c| c.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            let sum_us = |k: &str| {
                snap.get("histograms")
                    .and_then(|h| h.get(k))
                    .and_then(|h| h.get("sum_us"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            m.cache_hits += counter("cache_hits");
            m.cache_misses += counter("cache_misses");
            m.rejected += counter("queue_rejected_total");
            m.shed += counter("jobs_shed_total");
            m.verify_us += sum_us("verify_latency_us");
            m.encode_us += sum_us("encode_us");
            m.solve_us += sum_us("solve_us");
            m.simplify_us += sum_us("simplify_us");
        }
        Ok(m)
    }

    /// Shuts every shard down and waits for it to drain.
    pub fn stop(self) {
        for (stop, _) in &self.servers {
            stop.shutdown();
        }
        for (_, handle) in self.servers {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("shard ended with an error: {e}"),
                Err(_) => eprintln!("shard thread panicked"),
            }
        }
    }
}

/// Service-side totals read through the `metrics` verb.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeMetrics {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
    pub shed: u64,
    pub verify_us: u64,
    pub encode_us: u64,
    pub solve_us: u64,
    pub simplify_us: u64,
}

impl ServeMetrics {
    pub fn add(&mut self, o: &ServeMetrics) {
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.verify_us += o.verify_us;
        self.encode_us += o.encode_us;
        self.solve_us += o.solve_us;
        self.simplify_us += o.simplify_us;
    }
}

/// Routes one request; `Ok(verdict)` reduced to the key's property,
/// `Err` naming what came back instead, plus the attempts used.
pub fn route_one(key: &Key, fleet: &Fleet) -> (Result<bool, String>, u32) {
    let report = route(
        std::slice::from_ref(&key.request),
        &fleet.addrs,
        &RoutePolicy::default(),
    );
    let Some(out) = report.results.into_iter().next() else {
        return (Err("no outcome".to_string()), 0);
    };
    let verdict = if out.status == "done" {
        Json::parse(&out.line)
            .ok()
            .and_then(|v| wire_verdict(&v, key.property))
            .ok_or_else(|| format!("unreadable verdict {}", out.line))
    } else {
        Err(format!("{}: {}", out.status, out.line))
    };
    (verdict, out.attempts)
}

/// Routes one request inside spans: the routing digest the router will
/// compute, then the whole `route` call.
pub fn route_traced(key: &Key, fleet: &Fleet, t: &mut Tracer) -> Result<bool, String> {
    t.span("fleet.digest", |_| {
        std::hint::black_box(routing_digest(&key.request, RoutePolicy::default().proto))
    });
    let (verdict, attempts) = t.span("fleet.route", |_| route_one(key, fleet));
    t.count("attempts", u64::from(attempts));
    verdict
}

/// Hands out the stream's positions in order to the callers, never
/// letting two requests for one key be in flight together.
pub struct Dispatcher<'a> {
    stream: &'a [usize],
    state: Mutex<(usize, HashSet<usize>)>,
    freed: Condvar,
}

impl<'a> Dispatcher<'a> {
    pub fn new(stream: &'a [usize]) -> Dispatcher<'a> {
        Dispatcher {
            stream,
            state: Mutex::new((0, HashSet::new())),
            freed: Condvar::new(),
        }
    }

    /// The next stream position's key, once no request for it is in
    /// flight; `None` when the stream is exhausted.
    pub fn next(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("dispatcher lock");
        let pos = st.0;
        let key = *self.stream.get(pos)?;
        st.0 += 1;
        while st.1.contains(&key) {
            st = self.freed.wait(st).expect("dispatcher lock");
        }
        st.1.insert(key);
        Some(key)
    }

    pub fn done(&self, key: usize) {
        self.state.lock().expect("dispatcher lock").1.remove(&key);
        self.freed.notify_all();
    }
}

/// Runs each set-up repetition's warm-up through a throwaway fleet.
pub fn warm_up(keys: &[Key]) -> std::io::Result<()> {
    let fleet = Fleet::start()?;
    for key in keys.iter().take(WARM_UP) {
        let _ = std::hint::black_box(route_one(key, &fleet));
    }
    fleet.stop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatcher_serialises_one_key_and_keeps_stream_order() {
        let stream = [3, 1, 3, 2];
        let d = Dispatcher::new(&stream);
        assert_eq!(d.next(), Some(3));
        assert_eq!(d.next(), Some(1));
        // Key 3 is still in flight: the next caller waits until it is done.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| d.next());
            d.done(3);
            assert_eq!(waiter.join().unwrap(), Some(3));
        });
        assert_eq!(d.next(), Some(2));
        assert_eq!(d.next(), None);
    }
}

//! Host-speed calibration. On a shared host the same work takes up to
//! twice as long from one minute to the next, so every timing the
//! benchmark reports is scaled to a reference host speed.
//!
//! A probe is a fixed piece of reference work that does not call into
//! gpumc: a change to the program never changes its time, only the host
//! does. The probe is run between short windows of the workload, and the
//! times measured in a window are multiplied by [`REFERENCE_S`] over the
//! mean probe time at the window's two ends. Of the probes tried
//! (integer mixing, dependent loads over 256 KiB and over 4 MiB, ordered
//! map inserts and lookups, small allocations), the map and allocation
//! work tracked the checker's speed closest.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// Seconds one probe takes at the reference host speed. Scaled times
/// read as what the reference host would have measured.
pub const REFERENCE_S: f64 = 0.8e-3;

/// Seconds of workload time between two probes.
const WINDOW_S: f64 = 0.025;

const MAP_KEYS: u64 = 2_000;
const ALLOCATIONS: u64 = 12_000;

/// Runs the reference work once and returns its wall time, seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::derive(0xCA11B, 0);
    let mut map = BTreeMap::new();
    for i in 0..MAP_KEYS {
        map.insert(rng.next_u64() >> 44, i);
    }
    let mut hits = 0u64;
    for _ in 0..MAP_KEYS {
        hits += u64::from(map.contains_key(&(rng.next_u64() >> 44)));
    }
    black_box((hits, map));
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(64);
    for i in 0..ALLOCATIONS {
        let mut v = Vec::with_capacity((i % 17) as usize + 1);
        v.push(i);
        live.push(v);
        if live.len() == 64 {
            live.swap_remove((i as usize * 7) % 64);
        }
    }
    black_box(live);
    t0.elapsed().as_secs_f64()
}

/// Scales the times of one thread's measurements to the reference host
/// speed, one window at a time.
pub struct Scaler {
    /// Probe time at the start of the open window.
    last: f64,
    /// Raw seconds measured in the open window.
    open: Vec<f64>,
    open_s: f64,
    /// Scaled seconds of every closed window, in measurement order.
    pub scaled: Vec<f64>,
    /// Every probe time, seconds.
    pub probes: Vec<f64>,
}

impl Default for Scaler {
    fn default() -> Scaler {
        let last = probe();
        Scaler {
            last,
            open: Vec::new(),
            open_s: 0.0,
            scaled: Vec::new(),
            probes: vec![last],
        }
    }
}

impl Scaler {
    /// Adds one measured time, closing the window once it holds
    /// [`WINDOW_S`] of work.
    pub fn record(&mut self, raw_s: f64) {
        self.open.push(raw_s);
        self.open_s += raw_s;
        if self.open_s >= WINDOW_S {
            self.close();
        }
    }

    /// Probes and scales the open window's times.
    pub fn close(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let now = probe();
        self.probes.push(now);
        let factor = scale_factor(self.last, now);
        self.scaled.extend(self.open.drain(..).map(|s| s * factor));
        self.open_s = 0.0;
        self.last = now;
    }
}

/// The factor that turns a time measured between probes taking
/// `before` and `after` seconds into reference-host seconds.
pub fn scale_factor(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}

/// Times `f` between two probes; returns its result, raw seconds and
/// scaled seconds.
pub fn time_scaled<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = probe();
    let t0 = Instant::now();
    let out = f();
    let raw = t0.elapsed().as_secs_f64();
    (out, raw, raw * scale_factor(before, probe()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_is_scaled_by_the_mean_of_its_two_probes() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(scale_factor(REFERENCE_S, REFERENCE_S), 1.0));
        // Probes twice as slow as the reference halve the times.
        assert!(close(
            scale_factor(2.0 * REFERENCE_S, 2.0 * REFERENCE_S),
            0.5
        ));
        assert!(close(scale_factor(REFERENCE_S, 3.0 * REFERENCE_S), 0.5));
    }

    #[test]
    fn the_scaler_keeps_order_and_closes_windows_by_work() {
        let mut s = Scaler::default();
        s.record(WINDOW_S / 2.0);
        assert_eq!((s.scaled.len(), s.probes.len()), (0, 1));
        // Two halves fill one window: it closed after the second.
        s.record(WINDOW_S / 2.0);
        assert_eq!((s.scaled.len(), s.probes.len()), (2, 2));
        s.record(0.001);
        s.close();
        assert_eq!((s.scaled.len(), s.probes.len()), (3, 3));
        // Closing an empty window runs no probe.
        s.close();
        assert_eq!(s.probes.len(), 3);
        assert!(s.scaled[2] < s.scaled[1]);
        assert!(s.scaled.iter().all(|&x| x > 0.0));
    }
}

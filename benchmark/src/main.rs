//! The gpumc benchmark: four closed-loop workloads, end-to-end metrics
//! with tracing off, and a separate traced run for per-layer metrics.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload litmus-scale --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --regen-references
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run record. See `NOTES.md` for why each workload
//! exists and which layer metric should move which end-to-end metric.

mod calib;
mod checker;
mod inputs;
mod refs;
mod rng;
mod route;
mod stats;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpumc::gpumc_models::{load_shared, ModelKind};

use calib::Scaler;
use checker::{Checker, Kind};
use refs::References;
use route::{Dispatcher, Fleet, Key, ServeMetrics};
use trace::{Totals, Tracer};

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming later claims.
const HELD_OUT_SEED: u64 = 7919;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const WORKLOADS: [&str; 4] = ["litmus-scale", "kernels-sat", "kernels-dpor", "route-zipf"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 33] = [
    ("litmus.parse_ms", "ms"),
    ("spirv.lower_ms", "ms"),
    ("ir.compile_ms", "ms"),
    ("ir.events", "count"),
    ("encode.bounds_ms", "ms"),
    ("encode.build_ms", "ms"),
    ("encode.simplify_ms", "ms"),
    ("encode.clauses_pre", "count"),
    ("encode.clauses", "count"),
    ("encode.vars", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("exec.dpor_ms", "ms"),
    ("exec.explored", "count"),
    ("exec.consistent", "count"),
    ("exec.pruned", "count"),
    ("exec.consistent_ratio", "ratio"),
    ("fleet.route_ms", "ms"),
    ("fleet.hop_ms", "ms"),
    ("fleet.digest_us", "us"),
    ("fleet.attempts_per_request", "ratio"),
    ("fleet.cache_hits", "count"),
    ("fleet.cache_misses", "count"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("serve.verify_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.simplify_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("trace.overhead_share", "ratio"),
    ("core.unaccounted_share", "ratio"),
];

/// Per-layer counts that differ between runs of the same seed: the
/// encoder iterates `HashMap`s with randomly seeded hashers, so clause
/// order, simplification and SAT search vary (see `NOTES.md`). The run
/// record lists them so that no one reads a change in them as real.
const NON_REPEATING_COUNTS: [&str; 4] = [
    "encode.clauses_pre",
    "encode.clauses",
    "sat.conflicts",
    "sat.propagations",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--regen-references" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Some(args))
}

/// How the verdicts of a run compared with their references.
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    /// Verdicts returned for inputs without an independent reference:
    /// neither passed nor failed, and listed by name.
    unchecked: u64,
    unchecked_names: BTreeSet<String>,
    /// Input name → what went wrong (first occurrence).
    misses: BTreeMap<String, String>,
}

impl Tally {
    fn record(&mut self, name: &str, reference: Option<bool>, got: &Result<bool, String>) {
        self.attempted += 1;
        let why = match (reference, got) {
            (_, Err(e)) => format!("no verdict: {e}"),
            (None, Ok(_)) => {
                self.unchecked += 1;
                self.unchecked_names.insert(name.to_string());
                return;
            }
            (Some(r), Ok(v)) if r == *v => {
                self.ok += 1;
                return;
            }
            (Some(r), Ok(v)) => format!("verdict {v}, reference {r}"),
        };
        self.misses.entry(name.to_string()).or_insert(why);
    }

    fn failed(&self) -> u64 {
        self.attempted - self.ok - self.unchecked
    }

    /// Verdicts equal to their reference over the verdicts that have one.
    fn ok_share(&self) -> f64 {
        self.ok as f64 / (self.attempted - self.unchecked).max(1) as f64
    }

    fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.unchecked += o.unchecked;
        self.unchecked_names.extend(o.unchecked_names);
        for (k, v) in o.misses {
            self.misses.entry(k).or_insert(v);
        }
    }
}

/// What the timed (untraced) phase measured, scaled to the reference
/// host speed.
#[derive(Default)]
struct Timed {
    latencies_ms: Vec<f64>,
    /// Unscaled time of every verdict, summed.
    raw_s: f64,
    /// Every probe time of the phase.
    probes: Vec<f64>,
    /// Closed-loop callers making the verdicts.
    callers: usize,
}

impl Timed {
    fn absorb(&mut self, s: Scaler, raw_s: f64) {
        self.latencies_ms.extend(s.scaled.iter().map(|x| x * 1e3));
        self.raw_s += raw_s;
        self.probes.extend(s.probes);
    }

    /// Verdicts per second, given the callers' summed time per verdict:
    /// the callers over the mean time per verdict.
    fn throughput(&self, busy_s: f64) -> f64 {
        self.callers as f64 * self.latencies_ms.len() as f64 / busy_s
    }
}

/// What the traced run measured.
#[derive(Default)]
struct Traced {
    /// Spans of every traced verdict, summed by name.
    totals: Totals,
    /// Counters of the first pass only: exact, whatever the pass count.
    first_pass: BTreeMap<&'static str, u64>,
    verdicts: u64,
    /// Summed wall time of the interleaved untraced verdicts.
    plain_ns: u64,
    /// Probe times taken between the untraced verdicts.
    probes: Vec<f64>,
    serve: ServeMetrics,
    serve_first: ServeMetrics,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nominal seconds of one untraced pass over every input, probes
/// included. They only fix how many whole passes a run makes: a run is
/// a whole number of passes sized from `--seconds`, so each run of a
/// workload does the same work and pools the same number of samples,
/// and the tail percentile it reports never switches between runs. They
/// are pass times measured on a 2-core x86-64 host in a fast spell; the
/// real pass time follows the host's speed, which drifts by a third and
/// more, so the record's `timed_phase_s` and `NOTES.md` give measured
/// ones. The values are kept so that the pass counts stay fixed.
fn nominal_pass_s(workload: &str) -> f64 {
    match workload {
        "litmus-scale" => 2.0,
        "kernels-sat" => 1.6,
        "kernels-dpor" => 4.8,
        _ => 2.7,
    }
}

/// Passes in a run; a traced pass does every input twice.
fn passes_for(workload: &str, seconds: u64, trace: bool) -> u64 {
    let pass_s = nominal_pass_s(workload) * if trace { 2.0 } else { 1.0 };
    ((seconds as f64 / pass_s).round() as u64).max(1)
}

/// The untraced closed loop over a checker workload: `passes` whole
/// passes, each in its own seeded order.
fn checker_timed(c: &Checker, seed: u64, passes: u64, tally: &mut Tally) -> Timed {
    let mut scaler = Scaler::default();
    let mut raw_s = 0.0;
    for pass in 0..passes {
        for i in rng::pass_order(seed, pass, c.items.len()) {
            let t0 = Instant::now();
            let got = c.plain(i);
            let took = t0.elapsed().as_secs_f64();
            raw_s += took;
            scaler.record(took);
            let item = &c.items[i];
            tally.record(&item.name, item.reference, &got);
        }
    }
    scaler.close();
    let mut timed = Timed {
        callers: 1,
        ..Timed::default()
    };
    timed.absorb(scaler, raw_s);
    timed
}

/// The traced run over a checker workload: every input is verified
/// untraced and traced back to back, alternating which goes first, so
/// drift in host speed cancels out of the overhead.
fn checker_traced(c: &Checker, seed: u64, passes: u64, tally: &mut Tally) -> Traced {
    let mut out = Traced::default();
    let mut scaler = Scaler::default();
    for pass in 0..passes {
        let mut tracer = Tracer::default();
        for (n, i) in rng::pass_order(seed, pass, c.items.len())
            .into_iter()
            .enumerate()
        {
            let item = &c.items[i];
            let plain_first = n.is_multiple_of(2);
            for traced in [!plain_first, plain_first] {
                let got = if traced {
                    tracer.set_request(n as u64);
                    out.verdicts += 1;
                    tracer.span("verdict", |t| c.traced(i, t))
                } else {
                    let t0 = Instant::now();
                    let got = c.plain(i);
                    let took = t0.elapsed();
                    out.plain_ns += ns(took);
                    scaler.record(took.as_secs_f64());
                    got
                };
                tally.record(&item.name, item.reference, &got);
            }
        }
        let totals = Totals::of(&tracer.spans);
        if pass == 0 {
            out.first_pass = totals.counters.clone();
        }
        out.totals.merge(&totals);
    }
    scaler.close();
    out.probes = scaler.probes;
    out
}

/// Samples gathered by one route caller.
#[derive(Default)]
struct CallerLog {
    scaler: Option<Scaler>,
    raw_s: f64,
    tally: Tally,
    plain_ns: u64,
    verdicts: u64,
    spans: Option<Totals>,
}

/// Drives one pass of the route stream with [`route::CALLERS`] callers.
/// With `traced` set, each request also goes to the second fleet inside
/// spans, alternating which fleet is asked first.
fn route_pass(
    keys: &[Key],
    stream: &[usize],
    fleet: &Fleet,
    traced: Option<&Fleet>,
) -> Vec<CallerLog> {
    let dispatcher = Dispatcher::new(stream);
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..route::CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut log = CallerLog::default();
                    let mut scaler = Scaler::default();
                    let mut tracer = Tracer::default();
                    let mut n = 0u64;
                    while let Some(k) = dispatcher.next() {
                        let key = &keys[k];
                        let name = &key.request.name;
                        let steps: &[Option<&Fleet>] = match traced {
                            None => &[None],
                            Some(tf) if n.is_multiple_of(2) => &[None, Some(tf)],
                            Some(tf) => &[Some(tf), None],
                        };
                        for step in steps {
                            match step {
                                Some(tf) => {
                                    tracer.set_request(n);
                                    log.verdicts += 1;
                                    let got =
                                        tracer.span("verdict", |t| route::route_traced(key, tf, t));
                                    log.tally.record(name, key.reference, &got);
                                }
                                None => {
                                    let t0 = Instant::now();
                                    let (got, _) = route::route_one(key, fleet);
                                    let took = t0.elapsed();
                                    log.plain_ns += ns(took);
                                    log.raw_s += took.as_secs_f64();
                                    scaler.record(took.as_secs_f64());
                                    log.tally.record(name, key.reference, &got);
                                }
                            }
                        }
                        dispatcher.done(k);
                        n += 1;
                    }
                    if traced.is_some() {
                        log.spans = Some(Totals::of(&tracer.spans));
                    }
                    scaler.close();
                    log.scaler = Some(scaler);
                    log
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| h.join().expect("route caller panicked"))
            .collect()
    })
}

fn route_timed(keys: &[Key], seed: u64, passes: u64, tally: &mut Tally) -> Result<Timed, String> {
    let mut timed = Timed {
        callers: route::CALLERS,
        ..Timed::default()
    };
    for pass in 0..passes {
        let fleet = Fleet::start().map_err(|e| format!("fleet start: {e}"))?;
        let stream = route::stream(seed, pass, keys.len());
        let logs = route_pass(keys, &stream, &fleet, None);
        fleet.stop();
        for log in logs {
            timed.absorb(log.scaler.unwrap_or_default(), log.raw_s);
            tally.absorb(log.tally);
        }
    }
    Ok(timed)
}

fn route_traced(keys: &[Key], seed: u64, passes: u64, tally: &mut Tally) -> Result<Traced, String> {
    let mut out = Traced::default();
    for pass in 0..passes {
        let plain = Fleet::start().map_err(|e| format!("fleet start: {e}"))?;
        let traced = Fleet::start().map_err(|e| format!("fleet start: {e}"))?;
        let stream = route::stream(seed, pass, keys.len());
        let logs = route_pass(keys, &stream, &plain, Some(&traced));
        let serve = traced.metrics().map_err(|e| format!("metrics: {e}"))?;
        plain.stop();
        traced.stop();
        let mut totals = Totals::default();
        for log in logs {
            out.plain_ns += log.plain_ns;
            out.verdicts += log.verdicts;
            out.probes
                .extend(log.scaler.map(|s| s.probes).unwrap_or_default());
            tally.absorb(log.tally);
            totals.merge(&log.spans.unwrap_or_default());
        }
        if pass == 0 {
            out.first_pass = totals.counters.clone();
            out.serve_first = serve;
        }
        out.serve.add(&serve);
        out.totals.merge(&totals);
    }
    Ok(out)
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order. Times
/// are scaled to the reference host speed by the run's median probe.
fn layer_metrics(r: &Traced) -> Vec<f64> {
    let n = r.verdicts.max(1) as f64;
    let t = &r.totals;
    let first = |k: &str| r.first_pass.get(k).copied().unwrap_or(0) as f64;
    let factor = calib::REFERENCE_S / stats::median(&r.probes);
    let ms = |ns: u64| ns as f64 / 1e6 / n * factor;
    let bounds = ms(t.counter("bounds_us") * 1000);
    let simplify = ms(t.counter("simplify_us") * 1000);
    let encode = ms(t.self_ns("encode"));
    let route_ms = ms(t.total_ns("fleet.route"));
    let verify_ms = ms(r.serve.verify_us * 1000);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, misses) = (
        r.serve_first.cache_hits as f64,
        r.serve_first.cache_misses as f64,
    );
    let root = t.total_ns("verdict") as f64;
    let stages = root - t.self_ns("verdict") as f64;
    let plain = r.plain_ns as f64;
    vec![
        ms(t.self_ns("litmus.parse")),
        ms(t.self_ns("spirv.parse") + t.self_ns("spirv.lower")),
        ms(t.self_ns("ir.compile")),
        first("events"),
        bounds,
        (encode - bounds - simplify).max(0.0),
        simplify,
        first("clauses_pre"),
        first("clauses"),
        first("vars"),
        ms(t.self_ns("sat.solve")),
        first("conflicts"),
        first("propagations"),
        ms(t.self_ns("exec.dpor")),
        first("explored"),
        first("consistent"),
        first("pruned"),
        ratio(first("consistent"), first("explored")),
        route_ms,
        if route_ms > 0.0 {
            route_ms - verify_ms
        } else {
            0.0
        },
        t.self_ns("fleet.digest") as f64 / 1e3 / n * factor,
        t.counter("attempts") as f64 / n,
        hits,
        misses,
        ratio(hits, hits + misses),
        verify_ms,
        ms(r.serve.encode_us * 1000),
        ms(r.serve.solve_us * 1000),
        ms(r.serve.simplify_us * 1000),
        r.serve_first.rejected as f64,
        r.serve_first.shed as f64,
        ratio(root, plain) - 1.0,
        ratio(plain - stages, plain),
    ]
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit; `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    gpumc_serve::json::Json::str(s).to_string()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A checker or route workload after set-up.
enum Prepared {
    Checker(Checker),
    Route(Vec<Key>),
}

/// One set-up repetition: corpus generation, model compilation,
/// reference matching and a fixed warm-up (through a throwaway fleet
/// for `route-zipf`).
fn set_up(workload: &str) -> Result<Prepared, String> {
    let refs = References::parse(refs::COMMITTED)?;
    let models: &[ModelKind] = match workload {
        "kernels-sat" | "kernels-dpor" => &[ModelKind::Vulkan],
        _ => &[ModelKind::Ptx75, ModelKind::Vulkan],
    };
    for &m in models {
        let compiled = gpumc::gpumc_cat::parse(m.source()).map_err(|e| e.to_string())?;
        std::hint::black_box(compiled);
        load_shared(m);
    }
    let kind = match workload {
        "litmus-scale" => Kind::Litmus,
        "kernels-sat" => Kind::KernelsSat,
        "kernels-dpor" => Kind::KernelsDpor,
        _ => {
            let keys = route::keys(&refs);
            route::warm_up(&keys).map_err(|e| format!("warm-up fleet: {e}"))?;
            return Ok(Prepared::Route(keys));
        }
    };
    let c = Checker::new(kind, &refs);
    c.warm_up();
    Ok(Prepared::Checker(c))
}

fn run(args: &Args) -> Result<String, String> {
    let process_start = Instant::now();
    // Scaled seconds of each set-up; the traced run never reports
    // `setup_s`, so it sets up once.
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let (p, raw, scaled) = calib::time_scaled(|| set_up(&args.workload));
        prepared = Some(p?);
        setup_raw_s.push(raw);
        setup_s.push(scaled);
    }
    let prepared = prepared.expect("at least one set-up repetition");
    let first_request_s = process_start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let planned = passes_for(&args.workload, args.seconds, args.trace);

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut samples = String::new();
    let mut unscaled = String::new();
    if args.trace {
        let traced = match &prepared {
            Prepared::Checker(c) => checker_traced(c, args.seed, planned, &mut tally),
            Prepared::Route(keys) => route_traced(keys, args.seed, planned, &mut tally)?,
        };
        let values = layer_metrics(&traced);
        for (&(name, unit), v) in PER_LAYER.iter().zip(values) {
            metrics.push((name, unit, v));
        }
        let _ = write!(
            samples,
            r#""traced_verdicts":{},"untraced_verdicts":{},"probes":{}"#,
            traced.verdicts,
            tally.attempted - traced.verdicts,
            traced.probes.len(),
        );
        let _ = write!(
            unscaled,
            r#""host_speed":{}"#,
            json_num(calib::REFERENCE_S / stats::median(&traced.probes)),
        );
    } else {
        let timed = match &prepared {
            Prepared::Checker(c) => checker_timed(c, args.seed, planned, &mut tally),
            Prepared::Route(keys) => route_timed(keys, args.seed, planned, &mut tally)?,
        };
        let mut lat = timed.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let throughput = timed.throughput(lat.iter().sum::<f64>() / 1e3);
        let tail = stats::tail(&lat);
        let values = [
            stats::median(&setup_s),
            throughput,
            stats::hd_median(&lat),
            tail.value,
            tally.ok_share(),
            peak_rss_mb(),
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
        let _ = write!(
            samples,
            r#""setup_s":{},"throughput_per_s":{},"latency_p50_ms":{},"latency_tail_ms":{},"tail_percentile":{},"tail_samples_beyond":{},"probes":{}"#,
            setup_s.len(),
            lat.len(),
            lat.len(),
            lat.len(),
            json_str(tail.label),
            tail.beyond,
            timed.probes.len(),
        );
        let _ = write!(
            unscaled,
            r#""throughput_per_s":{},"setup_s":{},"host_speed":{}"#,
            json_num(timed.throughput(timed.raw_s)),
            json_num(stats::median(&setup_raw_s)),
            json_num(calib::REFERENCE_S / stats::median(&timed.probes)),
        );
    }

    for (name, why) in &tally.misses {
        eprintln!("MISS {name}: {why}");
    }
    for name in &tally.unchecked_names {
        eprintln!("UNCHECKED {name}: no independent reference verdict");
    }
    let failed = tally.failed();
    let unchecked: Vec<String> = tally.unchecked_names.iter().map(|n| json_str(n)).collect();
    let misses: Vec<String> = tally
        .misses
        .iter()
        .map(|(n, w)| json_str(&format!("{n}: {w}")))
        .collect();
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = format!(
        r#"{{"record":{{"workload":{},"seed":{},"default_seed":{DEFAULT_SEED},"held_out_seed":{HELD_OUT_SEED},"trace":{},"seconds":{},"passes":{planned},"host_parallelism":{host_parallelism},"commit":{},"reference_probe_s":{},"setup_reps_s":[{}],"first_request_s":{},"timed_phase_s":{},"samples":{{{samples}}},"unscaled":{{{unscaled}}},"non_repeating_counts":[{}],"misses":[{}],"unchecked_verdicts":{},"unchecked":[{}]}}}}"#,
        json_str(&args.workload),
        args.seed,
        args.trace,
        args.seconds,
        json_str(&commit()),
        json_num(calib::REFERENCE_S),
        setup_s
            .iter()
            .map(|&s| json_num(s))
            .collect::<Vec<_>>()
            .join(","),
        json_num(first_request_s),
        json_num(process_start.elapsed().as_secs_f64() - first_request_s),
        NON_REPEATING_COUNTS
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(","),
        misses.join(","),
        tally.unchecked,
        unchecked.join(","),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        r#"{{"correct":{},"attempted":{},"failed":{failed},"metrics":{{{}}}}}"#,
        failed == 0,
        tally.attempted,
        body.join(",")
    );
    Ok(format!("{record}\n{result}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/references.tsv");
            return match std::fs::write(path, refs::regenerate()) {
                Ok(()) => {
                    eprintln!("wrote {path}; rebuild to compile it in");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("writing {path}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumc_serve::json::Json;

    /// The metric names this program prints are exactly those the
    /// benchmark description declares, with the same units.
    #[test]
    fn printed_metrics_match_the_benchmark_description() {
        let desc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(declared)) = desc.get(key) else {
                panic!("{key} is missing");
            };
            let declared: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| {
                    let f = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (f("name"), f("unit"))
                })
                .collect();
            assert_eq!(declared, table.to_vec(), "{key}");
        }
        let Some(Json::Arr(workloads)) = desc.get("workloads") else {
            panic!("workloads are missing");
        };
        let names: BTreeSet<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS.into_iter().collect());
    }

    #[test]
    fn tally_counts_misses_and_lists_unchecked_inputs() {
        let mut t = Tally::default();
        t.record("a", Some(true), &Ok(true));
        t.record("b", Some(true), &Ok(false));
        t.record("c", None, &Ok(true));
        t.record("d", Some(false), &Err("unknown: budget".into()));
        t.record("e", None, &Err("too complex".into()));
        assert_eq!((t.attempted, t.ok, t.unchecked, t.failed()), (5, 1, 1, 3));
        assert_eq!(t.misses.keys().collect::<Vec<_>>(), ["b", "d", "e"]);
        assert_eq!(t.unchecked_names.iter().collect::<Vec<_>>(), ["c"]);
        // The unchecked verdict is neither a pass nor a miss.
        assert_eq!(t.ok_share(), 0.25);
    }

    #[test]
    fn args_default_the_seed_and_reject_unknown_workloads() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload kernels-sat --seconds 3")
            .unwrap()
            .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 3, false));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload litmus-scale --seed").is_err());
        assert!(parse("--regen-references").unwrap().is_none());
    }
}

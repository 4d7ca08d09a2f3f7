//! The three checker workloads: one verdict at a time, in a closed loop.
//!
//! The untraced path calls what a user of the library calls
//! (`SuiteRunner::run_test`, or SPIR-V parse + lower +
//! `Verifier::check_data_races`). The traced path makes the same check
//! through each layer's public entry point in turn, so every layer gets
//! its own span.

use gpumc::gpumc_catalog::{Property, Test};
use gpumc::gpumc_encode::{self as encode, EncodeOptions};
use gpumc::gpumc_exec::{self as exec, DporOptions};
use gpumc::gpumc_ir::{Arch, EventGraph};
use gpumc::gpumc_models::{load_shared, ModelKind};
use gpumc::gpumc_spirv as spirv;
use gpumc::{EngineKind, SuiteRunner, Verifier};

use crate::inputs::{self, Kernel};
use crate::refs::References;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The scale tier, each test's catalogued property, SAT engine.
    Litmus,
    /// Table 6 kernels, data-race freedom, SAT engine at bound 2.
    KernelsSat,
    /// Table 6 kernels, data-race freedom, sequential DPOR at bound 1.
    KernelsDpor,
}

impl Kind {
    /// Inputs (a prefix in corpus order) verified by each set-up
    /// repetition before timing starts: roughly 0.15–0.3 s of work, so
    /// `setup_s` measures work rather than timer jitter.
    fn warm_up(self) -> usize {
        match self {
            Kind::Litmus => 160,
            Kind::KernelsSat => 48,
            Kind::KernelsDpor => 37,
        }
    }
}

enum Payload {
    Litmus(Test),
    Kernel(Kernel),
}

pub struct Item {
    pub name: String,
    pub property: Property,
    pub reference: Option<bool>,
    payload: Payload,
}

pub struct Checker {
    kind: Kind,
    runner: SuiteRunner,
    pub items: Vec<Item>,
}

fn model_for(arch: Arch) -> ModelKind {
    match arch {
        Arch::Ptx => ModelKind::Ptx75,
        Arch::Vulkan => ModelKind::Vulkan,
    }
}

impl Checker {
    /// Generates the corpus and pairs each input with its reference.
    pub fn new(kind: Kind, refs: &References) -> Checker {
        let items = match kind {
            Kind::Litmus => inputs::litmus_tests()
                .into_iter()
                .map(|t| Item {
                    name: t.name.clone(),
                    property: t.property,
                    reference: refs.verdict(inputs::LITMUS_SET, &t.name, t.property, t.bound),
                    payload: Payload::Litmus(t),
                })
                .collect(),
            Kind::KernelsSat | Kind::KernelsDpor => {
                let (set, bound) = if kind == Kind::KernelsSat {
                    (inputs::KERNELS_SAT_SET, inputs::KERNELS_SAT_BOUND)
                } else {
                    (inputs::KERNELS_DPOR_SET, inputs::KERNELS_DPOR_BOUND)
                };
                inputs::kernels()
                    .into_iter()
                    .map(|k| Item {
                        name: k.name.clone(),
                        property: Property::DataRaceFreedom,
                        reference: refs.verdict(set, &k.name, Property::DataRaceFreedom, bound),
                        payload: Payload::Kernel(k),
                    })
                    .collect()
            }
        };
        Checker {
            kind,
            runner: SuiteRunner::default(),
            items,
        }
    }

    /// Verifies a fixed prefix of the corpus (set-up work, untimed).
    pub fn warm_up(&self) {
        for i in 0..self.kind.warm_up().min(self.items.len()) {
            let _ = std::hint::black_box(self.plain(i));
        }
    }

    fn kernel_verifier(&self) -> Verifier {
        let v = Verifier::new(load_shared(ModelKind::Vulkan));
        match self.kind {
            Kind::KernelsDpor => v
                .with_bound(inputs::KERNELS_DPOR_BOUND)
                .with_engine(EngineKind::Dpor),
            _ => v.with_bound(inputs::KERNELS_SAT_BOUND),
        }
    }

    /// One verdict, untraced.
    pub fn plain(&self, i: usize) -> Result<bool, String> {
        match &self.items[i].payload {
            Payload::Litmus(t) => self.runner.run_test(t).verdict.map_err(|e| e.to_string()),
            Payload::Kernel(k) => {
                let program = k.lower()?;
                self.kernel_verifier()
                    .check_data_races(&program)
                    .map(|o| o.violated)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// One verdict, with a span around each layer's entry point.
    pub fn traced(&self, i: usize, t: &mut Tracer) -> Result<bool, String> {
        let item = &self.items[i];
        let (program, verifier) = match &item.payload {
            Payload::Litmus(test) => {
                let program = t.span("litmus.parse", |_| gpumc::parse_litmus(&test.source));
                let program = program.map_err(|e| e.to_string())?;
                let model = load_shared(model_for(program.arch));
                (program, Verifier::new(model).with_bound(test.bound))
            }
            Payload::Kernel(k) => {
                let module = t.span("spirv.parse", |_| spirv::parse_spirv(&k.spirv));
                let module = module.map_err(|e| e.to_string())?;
                let program = t.span("spirv.lower", |_| spirv::lower(&module, k.grid));
                (program.map_err(|e| e.to_string())?, self.kernel_verifier())
            }
        };
        let graph = t.span("ir.compile", |_| verifier.compile(&program));
        let graph = graph.map_err(|e| e.to_string())?;
        t.count("events", graph.n_events() as u64);
        match self.kind {
            Kind::KernelsDpor => dpor_drf(&graph, &verifier, t),
            _ => sat_check(&graph, &verifier, item.property, t),
        }
    }
}

fn sat_check(
    graph: &EventGraph,
    verifier: &Verifier,
    property: Property,
    t: &mut Tracer,
) -> Result<bool, String> {
    // The verifier's own options at its defaults.
    let opts = EncodeOptions::default();
    let enc = t.span("encode", |_| encode::encode(graph, verifier.model(), &opts));
    let mut enc = enc.map_err(|e| e.to_string())?;
    let simplify = enc.simplify_stats().unwrap_or_default();
    t.count("bounds_us", enc.bounds_time_us());
    t.count("simplify_us", simplify.time_us);
    t.count("clauses_pre", simplify.clauses_before as u64);
    t.count("clauses", enc.num_clauses() as u64);
    t.count("vars", enc.num_vars() as u64);
    let found = t.span("sat.solve", |_| match property {
        Property::Safety => enc.find_assertion_witness(),
        Property::Liveness => enc.find_liveness_violation(),
        Property::DataRaceFreedom => enc.find_flag("dr"),
    });
    let solver = enc.solver_stats();
    t.count("conflicts", solver.conflicts);
    t.count("propagations", solver.propagations);
    found.map(|r| r.found).map_err(|e| e.to_string())
}

/// The sequential DPOR data-race check `Verifier::check_data_races`
/// makes, on the already compiled graph.
fn dpor_drf(graph: &EventGraph, verifier: &Verifier, t: &mut Tracer) -> Result<bool, String> {
    let mut racy = false;
    let stats = t.span("exec.dpor", |_| {
        exec::dpor_explore(graph, verifier.model(), &DporOptions::default(), |b| {
            racy |= b.execution.all_completed() && b.verdict.has_flag("dr");
        })
    });
    let stats = stats.map_err(|e| e.to_string())?;
    t.count("explored", stats.explored);
    t.count("consistent", stats.consistent);
    t.count("pruned", stats.pruned_total());
    Ok(racy)
}

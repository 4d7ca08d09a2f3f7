//! The SAT encoding is a function of its input: encoding the same graph
//! twice in one process must give the same number of variables and
//! clauses, and the solver must take the same search path on the first
//! query (same conflicts, same propagations).
//!
//! Clause order steers CDCL search, so any map iterated with a per-process
//! (or per-map) random hasher makes conflict counts drift from run to run
//! even when verdicts agree. This gate covers the dev tier and two Table 6
//! CAS-lock kernels, the inputs where SAT search does the most work.

use gpumc::Verifier;
use gpumc_catalog::{Property, Test, Tier};
use gpumc_encode::{encode, EncodeOptions};
use gpumc_ir::{Arch, EventGraph};
use gpumc_models::{load_shared, ModelKind};
use gpumc_spirv::{emit_spirv, gpuverify_corpus, lower, parse_spirv, Bucket};

/// What one encoding and its first query report.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    vars: usize,
    clauses: usize,
    found: bool,
    conflicts: u64,
    propagations: u64,
}

fn footprint(graph: &EventGraph, v: &Verifier, property: Property) -> Footprint {
    let mut enc = encode(graph, v.model(), &EncodeOptions::default()).expect("encodes");
    let (vars, clauses) = (enc.num_vars(), enc.num_clauses());
    let found = match property {
        Property::Safety => enc.find_assertion_witness(),
        Property::Liveness => enc.find_liveness_violation(),
        Property::DataRaceFreedom => enc.find_flag("dr"),
    }
    .expect("query answers")
    .found;
    let stats = enc.solver_stats();
    Footprint {
        vars,
        clauses,
        found,
        conflicts: stats.conflicts,
        propagations: stats.propagations,
    }
}

fn assert_repeats(name: &str, graph: &EventGraph, v: &Verifier, property: Property) {
    let first = footprint(graph, v, property);
    let second = footprint(graph, v, property);
    assert_eq!(first, second, "encoding `{name}` twice differs");
}

#[test]
fn dev_tier_encodings_repeat_exactly() {
    let tests: Vec<Test> = gpumc_catalog::tier_tests(Tier::Dev);
    assert!(!tests.is_empty());
    for t in &tests {
        let program = gpumc::parse_litmus(&t.source).expect("catalog test parses");
        let model = match program.arch {
            Arch::Ptx => ModelKind::Ptx75,
            Arch::Vulkan => ModelKind::Vulkan,
        };
        let v = Verifier::new(load_shared(model)).with_bound(t.bound);
        let graph = v.compile(&program).expect("compiles");
        assert_repeats(&t.name, &graph, &v, t.property);
    }
}

#[test]
fn cas_lock_kernel_encodings_repeat_exactly() {
    let kernels: Vec<_> = gpuverify_corpus()
        .into_iter()
        .filter(|c| c.bucket == Bucket::Verifiable && c.name.starts_with("caslock"))
        .take(2)
        .collect();
    assert_eq!(kernels.len(), 2, "two CAS-lock kernels in the corpus");
    let v = Verifier::new(load_shared(ModelKind::Vulkan)).with_bound(2);
    for k in &kernels {
        let kernel = k.kernel.as_ref().expect("verifiable kernels carry code");
        let module = parse_spirv(&emit_spirv(kernel)).expect("emitted SPIR-V parses");
        let program = lower(&module, k.grid).expect("lowers");
        let graph = v.compile(&program).expect("compiles");
        assert_repeats(&k.name, &graph, &v, Property::DataRaceFreedom);
    }
}

//! Reference verdicts: the answer every benchmark input must get.
//!
//! A reference is the literature's expected verdict where the catalog
//! or the kernel corpus fixes one, and otherwise the verdict of a
//! second engine: DPOR for inputs the workloads check with SAT (with
//! enumeration where DPOR exhausts its step cap), SAT for inputs they
//! check with DPOR. An input no engine could answer is recorded as
//! `unchecked`: its verdict is neither passed nor failed, it is named
//! in every run, and `ok_share` leaves it out. `references.tsv` is
//! regenerated with `--regen-references`.

use std::collections::HashMap;

use gpumc::gpumc_catalog::{Property, Test};
use gpumc::{EngineKind, SuiteConfig, SuiteRunner, Verifier};
use gpumc_serve::json::Json;

use crate::inputs::{self, Kernel};

/// The committed reference file, compiled in.
pub const COMMITTED: &str = include_str!("../references.tsv");

/// Step (DPOR) and candidate (enumeration) cap of the reference engines.
const REFERENCE_CAP: u64 = 2_000_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub property: String,
    pub bound: u32,
    /// `None` when no independent engine answered (unchecked).
    pub verdict: Option<bool>,
    /// `catalog`, `corpus`, `dpor`, `enumerate`, `sat` or `none`.
    pub source: String,
}

/// Reference verdicts keyed by (input set, input name).
#[derive(Debug, Default)]
pub struct References {
    map: HashMap<(String, String), Reference>,
}

impl References {
    /// Parses the tab-separated file: `set name property bound verdict
    /// source`, `#` starting a comment line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [set, name, property, bound, verdict, source] = f[..] else {
                return Err(format!(
                    "line {}: expected 6 fields, got {}",
                    n + 1,
                    f.len()
                ));
            };
            let verdict = match verdict {
                "true" => Some(true),
                "false" => Some(false),
                "unchecked" => None,
                v => return Err(format!("line {}: bad verdict `{v}`", n + 1)),
            };
            let bound = bound
                .parse()
                .map_err(|e| format!("line {}: bad bound: {e}", n + 1))?;
            let r = Reference {
                property: property.to_string(),
                bound,
                verdict,
                source: source.to_string(),
            };
            if map.insert((set.to_string(), name.to_string()), r).is_some() {
                return Err(format!("line {}: duplicate entry {set}/{name}", n + 1));
            }
        }
        Ok(References { map })
    }

    pub fn get(&self, set: &str, name: &str) -> Option<&Reference> {
        self.map.get(&(set.to_string(), name.to_string()))
    }

    /// The checked verdict for an input: `None` when the input is
    /// missing, unchecked, or recorded for another property or bound
    /// (a stale file must not pass anything).
    pub fn verdict(&self, set: &str, name: &str, property: Property, bound: u32) -> Option<bool> {
        self.get(set, name)
            .filter(|r| r.property == property_name(property) && r.bound == bound)
            .and_then(|r| r.verdict)
    }
}

pub fn property_name(p: Property) -> &'static str {
    match p {
        Property::Safety => "safety",
        Property::Liveness => "liveness",
        Property::DataRaceFreedom => "drf",
    }
}

/// A verdict in the service's wire vocabulary, reduced to the test's
/// property: the `verdict` object of a `done` response.
pub fn wire_verdict(verdict: &Json, property: Property) -> Option<bool> {
    match property {
        Property::Safety => verdict.get("reachable").and_then(Json::as_bool),
        Property::Liveness => match verdict.get("liveness").and_then(Json::as_str)? {
            "violation" => Some(true),
            "ok" => Some(false),
            _ => None,
        },
        Property::DataRaceFreedom => match verdict.get("datarace").and_then(Json::as_str)? {
            "found" => Some(true),
            "none" => Some(false),
            _ => None,
        },
    }
}

fn row(set: &str, name: &str, property: &str, bound: u32, v: Option<bool>, source: &str) -> String {
    let verdict = v.map_or("unchecked".to_string(), |b| b.to_string());
    format!("{set}\t{name}\t{property}\t{bound}\t{verdict}\t{source}\n")
}

/// Second-engine verdicts for catalog tests without an expectation:
/// DPOR, and enumeration for the tests where DPOR exhausts its cap.
fn litmus_engine_verdicts(tests: &[Test]) -> Vec<(Option<bool>, &'static str)> {
    let run = |engine, tests: &[Test]| {
        SuiteRunner::new(SuiteConfig {
            jobs: 0,
            engine,
            enum_cap: Some(REFERENCE_CAP),
            ..SuiteConfig::default()
        })
        .run(tests)
        .results
    };
    let dpor = run(EngineKind::Dpor, tests);
    let capped: Vec<Test> = tests
        .iter()
        .zip(&dpor)
        .filter(|(_, r)| r.verdict.is_err())
        .map(|(t, _)| t.clone())
        .collect();
    let enumerate = EngineKind::Enumerate {
        straight_line_only: false,
    };
    let mut enumerated = run(enumerate, &capped).into_iter();
    dpor.iter()
        .map(|r| match &r.verdict {
            Ok(v) => (Some(*v), "dpor"),
            Err(_) => match enumerated.next().map(|e| e.verdict) {
                Some(Ok(v)) => (Some(v), "enumerate"),
                _ => (None, "none"),
            },
        })
        .collect()
}

fn kernel_verdict(k: &Kernel, bound: u32, engine: EngineKind) -> Option<bool> {
    let program = k.lower().ok()?;
    Verifier::new(gpumc::gpumc_models::load_shared(
        gpumc::gpumc_models::ModelKind::Vulkan,
    ))
    .with_bound(bound)
    .with_engine(engine)
    .with_enumeration_cap(REFERENCE_CAP)
    .check_data_races(&program)
    .ok()
    .map(|o| o.violated)
}

/// Recomputes the whole reference file.
pub fn regenerate() -> String {
    let mut out = String::from(
        "# Reference verdicts of the benchmark inputs; regenerate with\n\
         # cargo run --release --manifest-path benchmark/Cargo.toml -- --regen-references\n\
         # set\tname\tproperty\tbound\tverdict\tsource\n",
    );
    let tests = inputs::litmus_tests();
    let open: Vec<Test> = tests
        .iter()
        .filter(|t| t.expected.is_none())
        .cloned()
        .collect();
    let mut engine = litmus_engine_verdicts(&open).into_iter();
    for t in &tests {
        let (v, source) = match t.expected {
            Some(e) => (Some(e), "catalog"),
            None => engine.next().expect("one engine verdict per open test"),
        };
        let p = property_name(t.property);
        out.push_str(&row(inputs::LITMUS_SET, &t.name, p, t.bound, v, source));
    }
    let kernels = inputs::kernels();
    for (set, bound, engines) in [
        (
            inputs::KERNELS_SAT_SET,
            inputs::KERNELS_SAT_BOUND,
            &[
                EngineKind::Dpor,
                EngineKind::Enumerate {
                    straight_line_only: false,
                },
            ][..],
        ),
        (
            inputs::KERNELS_DPOR_SET,
            inputs::KERNELS_DPOR_BOUND,
            &[EngineKind::Sat][..],
        ),
    ] {
        let verdicts = gpumc::parallel_map_ordered(&kernels, 0, |_, k| match k.expected_racy {
            Some(e) => (Some(e), "corpus"),
            None => engines
                .iter()
                .find_map(|&e| kernel_verdict(k, bound, e).map(|v| (Some(v), engine_name(e))))
                .unwrap_or((None, "none")),
        });
        for (k, (v, source)) in kernels.iter().zip(verdicts) {
            out.push_str(&row(set, &k.name, "drf", bound, v, source));
        }
    }
    out
}

fn engine_name(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Sat => "sat",
        EngineKind::Dpor => "dpor",
        EngineKind::Enumerate { .. } => "enumerate",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "# comment\n\
        scale\tMP\tsafety\t2\ttrue\tcatalog\n\
        scale\tLB-rand\tliveness\t1\tunchecked\tnone\n\
        kernels-b1\tk0\tdrf\t1\tfalse\tsat\n";

    #[test]
    fn lookup_checks_property_and_bound() {
        let r = References::parse(SAMPLE).unwrap();
        assert_eq!(r.verdict("scale", "MP", Property::Safety, 2), Some(true));
        assert_eq!(
            r.verdict("kernels-b1", "k0", Property::DataRaceFreedom, 1),
            Some(false)
        );
        // Wrong bound, wrong property, wrong set, unknown name: no reference.
        assert_eq!(r.verdict("scale", "MP", Property::Safety, 1), None);
        assert_eq!(r.verdict("scale", "MP", Property::Liveness, 2), None);
        assert_eq!(
            r.verdict("kernels-b2", "k0", Property::DataRaceFreedom, 1),
            None
        );
        assert_eq!(r.verdict("scale", "SB", Property::Safety, 2), None);
        // Unchecked inputs are known but have no verdict.
        assert_eq!(r.get("scale", "LB-rand").unwrap().source, "none");
        assert_eq!(r.verdict("scale", "LB-rand", Property::Liveness, 1), None);
    }

    #[test]
    fn malformed_files_are_refused() {
        assert!(References::parse("scale\tMP\tsafety\t2\ttrue\n").is_err());
        assert!(References::parse("scale\tMP\tsafety\t2\tmaybe\tcatalog\n").is_err());
        assert!(References::parse("scale\tMP\tsafety\tx\ttrue\tcatalog\n").is_err());
        let dup = "scale\tMP\tsafety\t2\ttrue\tcatalog\nscale\tMP\tsafety\t2\ttrue\tcatalog\n";
        assert!(References::parse(dup).is_err());
    }

    #[test]
    fn committed_file_covers_every_input() {
        let r = References::parse(COMMITTED).unwrap();
        for t in inputs::litmus_tests() {
            assert!(r.get(inputs::LITMUS_SET, &t.name).is_some(), "{}", t.name);
        }
        for k in inputs::kernels() {
            assert!(
                r.get(inputs::KERNELS_SAT_SET, &k.name).is_some(),
                "{}",
                k.name
            );
            assert!(
                r.get(inputs::KERNELS_DPOR_SET, &k.name).is_some(),
                "{}",
                k.name
            );
        }
    }

    #[test]
    fn wire_verdicts_reduce_to_the_property() {
        let v = Json::parse(
            r#"{"test":"MP","reachable":true,"expectation":"holds","liveness":"ok","datarace":"n/a"}"#,
        )
        .unwrap();
        assert_eq!(wire_verdict(&v, Property::Safety), Some(true));
        assert_eq!(wire_verdict(&v, Property::Liveness), Some(false));
        assert_eq!(wire_verdict(&v, Property::DataRaceFreedom), None);
    }
}

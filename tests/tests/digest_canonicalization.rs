//! The content digest is the cache's notion of request identity, so it
//! must be a function of the request's *meaning*, not its wire bytes:
//!
//! * invariant under JSON key order, inter-token whitespace, and
//!   elision of default-valued fields (`bound:2`, `engine:"sat"`,
//!   `proto:1`, `cache:true`, `simplify:false`),
//! * and injective over distinct (test, model, bound, property,
//!   engine) tuples across the whole catalog — a collision would serve
//!   one test's verdict for another.

use std::collections::HashMap;

use gpumc_fleet::digest::{digest_hex, resolve_model, source_digest};
use gpumc_serve::json::Json;
use gpumc_serve::protocol::{engine_name, parse_request, Request, PROTOCOL_VERSION};
use proptest::prelude::*;

/// Every catalog test, across the suites the CLI exposes.
fn catalog() -> Vec<gpumc_catalog::Test> {
    let mut all = gpumc_catalog::ptx_safety_suite();
    all.extend(gpumc_catalog::ptx_proxy_suite());
    all.extend(gpumc_catalog::vulkan_safety_suite());
    all.extend(gpumc_catalog::vulkan_drf_suite());
    all.extend(gpumc_catalog::liveness_suite());
    all.extend(gpumc_catalog::figure_tests());
    all
}

/// The digest the server computes for a parsed verify request — the
/// same call chain `dispatch_line` uses.
fn request_digest_of(line: &str) -> u128 {
    let envelope = parse_request(line).expect("request parses");
    let Request::Verify(req) = envelope.request else {
        panic!("not a verify request");
    };
    source_digest(
        &req.source,
        req.model.as_deref(),
        req.bound,
        "all",
        engine_name(req.engine),
        PROTOCOL_VERSION,
    )
    .expect("digestible request")
}

/// Renders a verify request with a chosen field order and whitespace
/// palette. `fields` are pre-rendered `"key":value` fragments.
fn render(fields: &[String], order: &[usize], pad: &str) -> String {
    let body: Vec<&str> = order.iter().map(|&i| fields[i].as_str()).collect();
    format!("{{{pad}{}{pad}}}", body.join(&format!(",{pad}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Key order, whitespace, and default-field elision never change
    /// the digest; explicit non-defaults always do the same as their
    /// canonical spelling.
    #[test]
    fn digest_is_invariant_under_wire_noise(
        test_idx in 0usize..64,
        bound in 1u32..4,
        engine_idx in 0usize..4,
        elide_flag in 0usize..2,
        shuffle_seed in any::<u32>(),
        pad_idx in 0usize..4,
    ) {
        let elide_defaults = elide_flag == 1;
        let tests = catalog();
        let t = &tests[test_idx % tests.len()];
        let engine = ["sat", "enumerate", "alloy", "dpor"][engine_idx];
        let pad = ["", " ", "\t", "  \t "][pad_idx];

        // The canonical spelling: every field explicit, fixed order,
        // no whitespace.
        let source = Json::str(&t.source).to_string();
        let canonical = format!(
            r#"{{"verb":"verify","source":{source},"bound":{bound},"engine":"{engine}","proto":1,"cache":true,"simplify":false}}"#
        );
        let want = request_digest_of(&canonical);

        // The noisy spelling: shuffled key order, padded separators,
        // defaults optionally elided.
        let mut fields = vec![
            format!(r#""verb":{pad}"verify""#),
            format!(r#""source":{pad}{source}"#),
        ];
        if !(elide_defaults && bound == 2) {
            fields.push(format!(r#""bound":{pad}{bound}"#));
        }
        if !(elide_defaults && engine == "sat") {
            fields.push(format!(r#""engine":{pad}"{engine}""#));
        }
        if !elide_defaults {
            fields.push(r#""proto":1"#.into());
            fields.push(r#""cache":true"#.into());
            fields.push(r#""simplify":false"#.into());
            fields.push(r#""id":7"#.into());
        }
        // Fisher–Yates with a splitmix-style step — deterministic per seed.
        let mut order: Vec<usize> = (0..fields.len()).collect();
        let mut state = u64::from(shuffle_seed) | 1;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            order.swap(i, (state as usize) % (i + 1));
        }
        let noisy = render(&fields, &order, pad);

        prop_assert_eq!(
            digest_hex(request_digest_of(&noisy)),
            digest_hex(want),
            "digest changed under wire noise\ncanonical: {}\nnoisy:     {}",
            canonical,
            noisy
        );
    }
}

/// Distinct (test, model, bound, property, engine) tuples never share a
/// digest anywhere on the catalog. Model identity is the *resolved*
/// model (an explicit `ptx-v7.5` and an inferred PTX default are the
/// same model on purpose), so the key canonicalizes the same way the
/// digest does.
#[test]
fn distinct_tuples_never_collide_on_the_catalog() {
    let mut seen: HashMap<u128, (String, String, u32, &str, &str)> = HashMap::new();
    let mut digests = 0usize;
    for t in catalog() {
        let program = gpumc::parse_litmus(&t.source).expect("catalog test parses");
        let model = resolve_model(None, program.arch).expect("default model");
        for bound in 1u32..=2 {
            for property in ["assertion", "liveness", "datarace", "all"] {
                for engine in ["sat", "enumerate", "alloy", "dpor"] {
                    let d = source_digest(&t.source, None, bound, property, engine, 1)
                        .expect("catalog test digests");
                    let key = (
                        t.source.clone(),
                        format!("{model:?}"),
                        bound,
                        property,
                        engine,
                    );
                    digests += 1;
                    if let Some(prev) = seen.insert(d, key.clone()) {
                        assert_eq!(
                            prev,
                            key,
                            "digest collision on {} between distinct tuples",
                            digest_hex(d)
                        );
                    }
                }
            }
        }
    }
    // Sanity: the sweep actually exercised a large corpus.
    assert!(digests > 1000, "only {digests} digests swept");
}

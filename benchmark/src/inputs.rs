//! The benchmark's inputs: the paper's corpora, exactly as the program
//! receives them.

use gpumc::gpumc_catalog::{tier_tests, Test, Tier};
use gpumc::gpumc_ir::Program;
use gpumc::gpumc_spirv::{self as spirv, Bucket, Grid};

/// Reference set of the catalog tests (the scale tier contains the
/// validation tier, so `route-zipf` shares it).
pub const LITMUS_SET: &str = "scale";
pub const KERNELS_SAT_SET: &str = "kernels-b2";
pub const KERNELS_SAT_BOUND: u32 = 2;
pub const KERNELS_DPOR_SET: &str = "kernels-b1";
pub const KERNELS_DPOR_BOUND: u32 = 1;

/// The scale tier: the Table 5 suites, the cranked Figure 15 sweep and
/// the seeded random shapes.
pub fn litmus_tests() -> Vec<Test> {
    tier_tests(Tier::Scale)
}

/// The validation tier: the Table 5 suites.
pub fn route_tests() -> Vec<Test> {
    tier_tests(Tier::Validation)
}

/// A Table 6 kernel as the checker receives it: SPIR-V text.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub spirv: String,
    pub grid: Grid,
    pub expected_racy: Option<bool>,
}

impl Kernel {
    /// Parses and lowers the SPIR-V text to a program.
    pub fn lower(&self) -> Result<Program, String> {
        let module = spirv::parse_spirv(&self.spirv).map_err(|e| e.to_string())?;
        spirv::lower(&module, self.grid).map_err(|e| e.to_string())
    }
}

/// The verifiable Table 6 kernels, emitted as SPIR-V text.
pub fn kernels() -> Vec<Kernel> {
    spirv::gpuverify_corpus()
        .into_iter()
        .filter(|c| c.bucket == Bucket::Verifiable)
        .map(|c| Kernel {
            spirv: spirv::emit_spirv(c.kernel.as_ref().expect("verifiable kernels carry code")),
            name: c.name,
            grid: c.grid,
            expected_racy: c.expected_racy,
        })
        .collect()
}

//! `suite`: the AutoIndy-6 kernels on the three Table 1 presets.
//!
//! One operation is one `Machine::run` of one kernel on a fresh machine
//! (modelled caches start empty), checked against the `tir`
//! interpreter's checksum. Guest execution through the three tiers does
//! nearly all the work; there is no scheduler, wire or fork.

use std::sync::Arc;

use alia_codegen::{CodegenOptions, CompiledProgram};
use alia_core::{machine_for, RunCache};
use alia_isa::IsaMode;
use alia_sim::{MachineConfig, StopReason};
use alia_workloads::{autoindy, Kernel};

use crate::spans::Recorder;
use crate::{add_tier, Fingerprint, Op, Workload};

/// Elements per kernel run: large enough that guest execution, not
/// machine build, dominates an operation.
const ELEMS: u32 = 1024;
/// Cycle budget of one run; a kernel that reaches it fails its check.
const CYCLE_LIMIT: u64 = 2_000_000_000;

fn presets() -> [(&'static str, MachineConfig); 3] {
    [
        ("A32", MachineConfig::arm7_like(IsaMode::A32)),
        ("T16", MachineConfig::arm7_like(IsaMode::T16)),
        ("T2", MachineConfig::m3_like()),
    ]
}

/// One (preset, kernel) pairing with its compiled program and oracle.
struct Case {
    preset: &'static str,
    config: MachineConfig,
    /// Index into [`Suite::kernels`].
    kernel: usize,
    prog: Arc<CompiledProgram>,
    checksum: u32,
    /// `(cycles, instructions)` of the first run: every repeat must
    /// retire exactly the same.
    first: Option<(u64, u64)>,
}

pub struct Suite {
    kernels: Vec<Kernel>,
    cases: Vec<Case>,
    seed: u64,
}

/// Compiles every kernel for every preset (cold) and computes each
/// kernel's checksum with the interpreter for the inputs of `seed`.
pub fn setup(seed: u64, rec: &mut Recorder) -> Result<Suite, String> {
    let mut cache = RunCache::new();
    let opts = CodegenOptions::default();
    let kernels = autoindy();
    let checksums: Vec<u32> = kernels
        .iter()
        .map(|k| rec.span("tir.interp", |_| k.run_interp(seed, ELEMS)))
        .collect();
    let mut cases = Vec::new();
    for (preset, config) in presets() {
        for (i, (kernel, &checksum)) in kernels.iter().zip(&checksums).enumerate() {
            let prog = rec
                .span("codegen.compile", |_| {
                    cache.compiled(kernel, config.mode, &opts)
                })
                .map_err(|e| format!("{} on {preset}: {e}", kernel.name))?;
            cases.push(Case {
                preset,
                config: config.clone(),
                kernel: i,
                prog,
                checksum,
                first: None,
            });
        }
    }
    Ok(Suite {
        kernels,
        cases,
        seed,
    })
}

/// What one kernel run retired, and its first failed check.
struct Run {
    error: Option<String>,
    cycles: u64,
    instructions: u64,
    stats: alia_sim::PredecodeStats,
    irqs: u64,
}

impl Suite {
    /// Runs case `j` on the inputs of `seed`; the result must stop at
    /// the return trampoline with `checksum` in `r0`.
    fn run_case(&self, j: usize, seed: u64, checksum: u32, rec: &mut Recorder) -> Run {
        let c = &self.cases[j];
        let kernel = &self.kernels[c.kernel];
        let mut m = rec.span("sim.build", |_| {
            machine_for(c.config.clone(), &c.prog, kernel, seed, ELEMS)
        });
        let r = rec.span("sim.machine.run", |_| m.run(CYCLE_LIMIT));
        let stats = rec.span("sim.stats", |_| m.predecode_stats());
        let error = rec.span("bench.check", |_| {
            if r.reason != StopReason::Bkpt(0) {
                Some(format!(
                    "{} on {}: stopped with {:?}",
                    kernel.name, c.preset, r.reason
                ))
            } else if m.cpu.regs[0] != checksum {
                Some(format!(
                    "{} on {}: checksum {:#x} != interpreter {checksum:#x}",
                    kernel.name, c.preset, m.cpu.regs[0]
                ))
            } else {
                None
            }
        });
        let irqs = m.latencies().len() as u64;
        rec.span("sim.drop", |_| drop(m));
        Run {
            error,
            cycles: r.cycles,
            instructions: r.instructions,
            stats,
            irqs,
        }
    }
}

impl Workload for Suite {
    fn round(&self) -> usize {
        self.cases.len()
    }

    fn op(&mut self, j: usize, rec: &mut Recorder) -> Op {
        let run = self.run_case(j, self.seed, self.cases[j].checksum, rec);
        let mut op = Op {
            instructions: run.instructions,
            error: run.error,
            ..Op::default()
        };
        add_tier(&mut op.counts, &run.stats, run.instructions, run.irqs);
        let name = self.kernels[self.cases[j].kernel].name;
        let c = &mut self.cases[j];
        let now = (run.cycles, run.instructions);
        let first = *c.first.get_or_insert(now);
        if op.error.is_none() && first != now {
            op.error = Some(format!(
                "{} on {}: ran (cycles, instructions) {now:?}, first run {first:?}",
                name, c.preset
            ));
        }
        op
    }

    fn fingerprint(&mut self, seed: u64, rec: &mut Recorder) -> Result<Fingerprint, String> {
        let mut fp = Fingerprint::new();
        for j in 0..self.cases.len() {
            let kernel = &self.kernels[self.cases[j].kernel];
            let checksum = rec.span("tir.interp", |_| kernel.run_interp(seed, ELEMS));
            let run = self.run_case(j, seed, checksum, rec);
            if let Some(e) = run.error {
                return Err(e);
            }
            let c = &self.cases[j];
            let key = format!("{}.{}", c.preset, self.kernels[c.kernel].name);
            fp.push((format!("{key}.checksum"), format!("{checksum:#x}")));
            fp.push((format!("{key}.cycles"), run.cycles.to_string()));
            fp.push((format!("{key}.code_size"), c.prog.code_size().to_string()));
        }
        Ok(fp)
    }
}

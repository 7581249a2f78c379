//! `farm_flip` and `farm_sweep`: the E12 campaigns over `run_campaign`,
//! one worker per available CPU.
//!
//! Both fork a prepared gateway base per run, but use the fork layer in
//! opposite ways, so a fork change that favours one use shows on the
//! other:
//!
//! * **flip** forks a warm mid-mission base, writes one flash bit (which
//!   invalidates lowered code), runs the mission out and classifies it
//!   as masked, corrupted or hung;
//! * **sweep** forks an unrun base with cold caches, installs a seeded
//!   error burst on the sensor wire (retransmissions, bus-off), runs the
//!   mission out, then publishes and merges the run's metrics.
//!
//! One operation is one batch of runs, chosen so that its cost hardly
//! depends on the seed. A flip batch flips, one run each, every bit of
//! every fourth word in the flip window of every node, and the seed
//! picks the sensor CAN ids: the few flips that hang a mission dominate
//! a batch's guest instructions, so a batch of seeded bits would cost
//! what the seed happened to pick. A sweep batch runs every burst
//! intensity once, the seed choosing only where each burst's errors
//! land. Every batch of a run is the same, so every batch must fold to
//! the same digest. The fingerprint pass runs E12's own campaign keys,
//! so it must reproduce `farm_experiment`'s digest.

use std::time::Instant;

use alia_can::{ErrorState, FaultPlan};
use alia_core::campaign::run_campaign;
use alia_core::experiments::farm_experiment;
use alia_obs::metrics::{Registry, Snapshot};
use alia_sim::{StopReason, System, SystemStop};

use crate::gateway::{self, system_counts};
use crate::net::{self, Traffic, EDGE_CPB, HORIZON, PERIOD_CYCLES};
use crate::report::workers;
use crate::spans::{Recorder, Span};
use crate::{mix, Counts, Fingerprint, Op, Workload};

/// Mission frames per sensor in every campaign run.
const FRAMES: u32 = 4;
/// Cycle at which the flip base is snapshotted: mid-mission.
const FORK_POINT_CYCLES: u64 = 3_000;
/// Grace horizon of one flip run; a run still live here hung.
const FLIP_HORIZON_CYCLES: u64 = 200_000;
/// Flash window the bit flips land in: every guest's main program and
/// handlers, plus never-executed pad.
const FLIP_WINDOW: (u32, u32) = (0x100, 0x340);
/// Error injections of a sweep run: `2 + h % 280`.
const SWEEP_BURST_BASE: u64 = 2;
const SWEEP_BURST_SPAN: u64 = 280;
/// Burst window length, bit times: the mission's whole traffic region.
const SWEEP_WINDOW_BITS: u64 = 6_000;
/// Runs of the reference campaign in the fingerprint pass.
const REF_FLIPS: u32 = 96;
const REF_SWEEPS: u32 = 24;

/// Which campaign a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Flip,
    Sweep,
}

/// The fault one campaign run injects.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Flip `bit` of the flash word at `off` in node `node`.
    Flip { node: usize, off: u32, bit: u32 },
    /// Land `count` bit errors, placed by `seed`, on the sensor wire.
    Burst { count: u64, seed: u64 },
}

/// Words in the flip window.
const FLIP_WORDS: u32 = (FLIP_WINDOW.1 - FLIP_WINDOW.0) / 4;
/// A flip batch flips every bit of one word in this many.
const FLIP_STRIDE: usize = 4;

/// E12's fault for campaign key `key`.
fn e12_fault(kind: Kind, key: u64) -> Fault {
    match kind {
        Kind::Flip => {
            let h = mix(0xE12_0000_0000 ^ key);
            Fault::Flip {
                node: (h % 5) as usize,
                off: FLIP_WINDOW.0 + 4 * ((h >> 8) % u64::from(FLIP_WORDS)) as u32,
                bit: ((h >> 24) % 32) as u32,
            }
        }
        Kind::Sweep => {
            let h = mix(0x5EED_0000_0000 ^ key);
            Fault::Burst {
                count: SWEEP_BURST_BASE + h % SWEEP_BURST_SPAN,
                seed: mix(h),
            }
        }
    }
}

/// The batch of `seed` (see the module docs).
fn batch(kind: Kind, seed: u64) -> Vec<Fault> {
    match kind {
        Kind::Flip => (0..5)
            .flat_map(|node| {
                (0..FLIP_WORDS)
                    .step_by(FLIP_STRIDE)
                    .flat_map(move |w| (0..32).map(move |bit| (node, w, bit)))
            })
            .map(|(node, w, bit)| Fault::Flip {
                node,
                off: FLIP_WINDOW.0 + 4 * w,
                bit,
            })
            .collect(),
        Kind::Sweep => (SWEEP_BURST_BASE..SWEEP_BURST_BASE + SWEEP_BURST_SPAN)
            .map(|count| Fault::Burst {
                count,
                seed: mix(seed ^ 0x5EE9_0000 ^ count),
            })
            .collect(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flip {
    Masked,
    Corrupted,
    Hung,
}

/// The result of one campaign run.
struct Run {
    /// Digest contribution (E12's fold).
    fold: u64,
    /// Flip outcome, or the sweep's confinement band and mission verdict.
    flip: Option<Flip>,
    band: usize,
    mission_ok: bool,
    /// A failed per-run check.
    error: Option<String>,
    metrics: Option<Snapshot>,
    counts: Counts,
    instructions: u64,
    ns: u64,
    spans: Vec<Span>,
}

/// E12's traffic: the sensor ids of `farm_experiment`.
fn e12_traffic() -> Traffic {
    Traffic {
        frames: FRAMES,
        ids: [0x100, 0x140],
        extra: 0,
    }
}

/// The traffic of a timed batch: the flip batch takes seeded sensor
/// ids, drawn as on `gateway`; the sweep batch keeps E12's.
fn traffic(kind: Kind, seed: u64) -> Traffic {
    match kind {
        Kind::Flip => Traffic {
            frames: FRAMES,
            ..gateway::traffic(seed, 0)
        },
        Kind::Sweep => e12_traffic(),
    }
}

fn severity(state: ErrorState) -> usize {
    match state {
        ErrorState::Active => 0,
        ErrorState::Passive => 1,
        ErrorState::BusOff => 2,
    }
}

/// A prepared base: the system every run forks, and its own counters
/// (subtracted from each run's).
struct Base {
    traffic: Traffic,
    system: System,
    counts: Counts,
    instructions: u64,
}

fn base(kind: Kind, traffic: Traffic, rec: &mut Recorder) -> Result<Base, String> {
    let images = net::assemble_images(traffic, rec)?;
    let mut n = net::build(&images, None, rec);
    if kind == Kind::Flip {
        let r = rec.span("sim.system.run", |_| n.system.run(FORK_POINT_CYCLES));
        if r.reason != SystemStop::Horizon {
            return Err(format!(
                "flip base died before its fork point: {:?}",
                r.reason
            ));
        }
    }
    let mut counts = Counts::new();
    let instructions = system_counts(&n.system, &mut counts);
    Ok(Base {
        traffic,
        system: n.system,
        counts,
        instructions,
    })
}

fn run_one(base: &Base, fault: Fault, op: u64, rec: &mut Recorder) -> Run {
    rec.set_op(op);
    let t0 = Instant::now();
    let mut run = rec.span("core.campaign.run", |rec| match fault {
        Fault::Flip { node, off, bit } => flip_run(base, node, off, bit, rec),
        Fault::Burst { count, seed } => sweep_run(base, count, seed, rec),
    });
    run.ns = t0.elapsed().as_nanos() as u64;
    run
}

fn finish(sys: &System, base: &Base, rec: &mut Recorder) -> (Counts, u64) {
    rec.span("sim.stats", |_| {
        let mut counts = Counts::new();
        let instructions = system_counts(sys, &mut counts) - base.instructions;
        for (k, v) in &base.counts {
            *counts.entry(k).or_default() -= v;
        }
        (counts, instructions)
    })
}

/// One soft-error run: fork the warm base, flip one flash bit in one
/// node, run the mission out, classify.
fn flip_run(base: &Base, node: usize, off: u32, bit: u32, rec: &mut Recorder) -> Run {
    let mut sys = rec.span("sim.fork", |_| base.system.fork());
    rec.span("sim.inject", |_| {
        let m = sys.node_mut(node).machine_mut();
        let word = m.flash.peek(off, 4);
        m.load_flash(off, &(word ^ (1 << bit)).to_le_bytes());
    });
    let r = rec.span("sim.system.run", |_| sys.run(FLIP_HORIZON_CYCLES));
    let flip = rec.span("bench.check", |_| {
        if r.reason != SystemStop::AllHalted {
            return Flip::Hung;
        }
        let sink = sys.nodes().len() - 1;
        match sys.node(sink).halted() {
            Some(StopReason::MmioExit(c)) if c == base.traffic.sensor_checksum() => Flip::Masked,
            _ => Flip::Corrupted,
        }
    });
    let (counts, instructions) = finish(&sys, base, rec);
    rec.span("sim.drop", |_| drop(sys));
    Run {
        fold: flip as u64,
        flip: Some(flip),
        band: 0,
        mission_ok: flip == Flip::Masked,
        error: None,
        metrics: None,
        counts,
        instructions,
        ns: 0,
        spans: Vec::new(),
    }
}

/// One fault-seed run: fork the unrun base, land a seeded error burst
/// on the sensor wire, run the mission out, publish its metrics.
fn sweep_run(base: &Base, count: u64, burst_seed: u64, rec: &mut Recorder) -> Run {
    let mut sys = rec.span("sim.fork", |_| base.system.fork());
    let wire = sys
        .wire_named("sensor")
        .expect("the base has a sensor wire")
        .clone();
    rec.span("sim.inject", |_| {
        let lo = PERIOD_CYCLES / EDGE_CPB + 100;
        let mut plan = FaultPlan::new();
        plan.add_error_burst(burst_seed, lo, lo + SWEEP_WINDOW_BITS, count as usize);
        wire.set_fault_plan(plan);
    });
    let r = rec.span("sim.system.run", |_| sys.run(HORIZON));
    let (band, mission_ok, error) = rec.span("bench.check", |_| {
        let sink = sys.nodes().len() - 1;
        let ok = r.reason == SystemStop::AllHalted
            && sys.node(sink).halted()
                == Some(StopReason::MmioExit(base.traffic.sensor_checksum()));
        let band = severity(wire.error_state(0)).max(severity(wire.error_state(1)));
        // Errors only delay frames; confinement is the one way a
        // mission loses them, so a failed mission must be a bus-off.
        let error = (!ok && band != 2)
            .then(|| format!("burst of {count}: mission lost frames short of bus-off"));
        (band, ok, error)
    });
    let metrics = rec.span("obs.metrics.publish", |_| {
        let mut reg = Registry::default();
        sys.publish_metrics(&mut reg);
        reg.snapshot()
    });
    let (counts, instructions) = finish(&sys, base, rec);
    rec.span("sim.drop", |_| drop(sys));
    Run {
        fold: (count << 8) ^ band as u64,
        flip: None,
        band,
        mission_ok,
        error,
        metrics: Some(metrics),
        counts,
        instructions,
        ns: 0,
        spans: Vec::new(),
    }
}

/// A campaign's key-ordered summary.
#[derive(Debug, Clone, PartialEq)]
struct Summary {
    digest: u64,
    flips: [u32; 3],
    bands: [u32; 3],
    missions_ok: u32,
    metrics: Snapshot,
}

/// Runs `faults` over `threads` workers and folds the results in
/// campaign order, continuing `digest`.
fn campaign(
    base: &Base,
    faults: &[Fault],
    threads: usize,
    digest: u64,
    rec: &mut Recorder,
) -> (Summary, Vec<Run>) {
    let (enabled, epoch, op) = (rec.enabled(), rec.epoch(), rec.op());
    let keys: Vec<(u64, Fault)> = (0..).zip(faults.iter().copied()).collect();
    let mut runs = rec.span("core.campaign", |_| {
        run_campaign(&keys, threads, |&(i, fault)| {
            let mut wrec = Recorder::new(enabled, epoch);
            let mut run = run_one(base, fault, (op << 20) | i, &mut wrec);
            run.spans = wrec.into_spans();
            run
        })
    });
    for r in &mut runs {
        rec.absorb(std::mem::take(&mut r.spans));
    }
    let mut s = Summary {
        digest,
        flips: [0; 3],
        bands: [0; 3],
        missions_ok: 0,
        metrics: Snapshot::default(),
    };
    rec.span("bench.check", |_| {
        for r in &runs {
            s.digest = mix(s.digest ^ r.fold);
            if let Some(f) = r.flip {
                s.flips[f as usize] += 1;
            } else {
                s.bands[r.band] += 1;
            }
            s.missions_ok += u32::from(r.mission_ok);
        }
    });
    if faults.iter().any(|f| matches!(f, Fault::Burst { .. })) {
        s.metrics = rec.span("obs.metrics.merge", |_| {
            Snapshot::merge_all(runs.iter().filter_map(|r| r.metrics.as_ref()))
        });
    }
    (s, runs)
}

/// E12's digest seed.
const DIGEST_SEED: u64 = 0xFA12_FA12_FA12_FA12;

pub struct Farm {
    base: Base,
    faults: Vec<Fault>,
    first: Option<Summary>,
}

/// Builds the base (and for `flip`, warms it to the fork point).
pub fn setup(kind: Kind, seed: u64, rec: &mut Recorder) -> Result<Farm, String> {
    let base = base(kind, traffic(kind, seed), rec)?;
    Ok(Farm {
        base,
        faults: batch(kind, seed),
        first: None,
    })
}

impl Workload for Farm {
    fn round(&self) -> usize {
        1
    }

    fn threads(&self) -> usize {
        workers()
    }

    fn op(&mut self, _: usize, rec: &mut Recorder) -> Op {
        let (summary, runs) = campaign(&self.base, &self.faults, workers(), DIGEST_SEED, rec);
        let mut op = Op::default();
        for r in runs {
            op.missions.push(r.ns);
            op.instructions += r.instructions;
            for (k, v) in r.counts {
                *op.counts.entry(k).or_default() += v;
            }
            if op.error.is_none() {
                op.error = r.error;
            }
        }
        let first = self.first.get_or_insert_with(|| summary.clone());
        if op.error.is_none() && *first != summary {
            op.error = Some(format!(
                "batch digest {:#x} != first batch {:#x}",
                summary.digest, first.digest
            ));
        }
        op
    }

    /// The reference campaign (E12's keys) at one worker and at one
    /// worker per CPU: the summaries must be identical, and the digest
    /// must equal `farm_experiment`'s.
    fn fingerprint(&mut self, _: u64, rec: &mut Recorder) -> Result<Fingerprint, String> {
        let flip_base = base(Kind::Flip, e12_traffic(), rec)?;
        let sweep_base = base(Kind::Sweep, e12_traffic(), rec)?;
        let flips: Vec<Fault> = (0..u64::from(REF_FLIPS))
            .map(|k| e12_fault(Kind::Flip, k))
            .collect();
        let sweeps: Vec<Fault> = (0..u64::from(REF_SWEEPS))
            .map(|k| e12_fault(Kind::Sweep, k))
            .collect();
        let mut summaries = Vec::new();
        for threads in [1, workers()] {
            let (f, _) = campaign(&flip_base, &flips, threads, DIGEST_SEED, rec);
            let (s, _) = campaign(&sweep_base, &sweeps, threads, f.digest, rec);
            summaries.push((f, s));
        }
        if summaries[0] != summaries[1] {
            return Err(format!(
                "campaign summary differs at 1 and {} workers",
                workers()
            ));
        }
        let (f, s) = &summaries[0];
        let e12 = farm_experiment(REF_FLIPS, REF_SWEEPS, 1).map_err(|e| e.to_string())?;
        if e12.digest != s.digest {
            return Err(format!(
                "digest {:#x} != farm_experiment's {:#x}",
                s.digest, e12.digest
            ));
        }
        let join = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        Ok(vec![
            ("digest".into(), format!("{:#018x}", s.digest)),
            ("flips_masked_corrupted_hung".into(), join(&f.flips)),
            ("sweep_active_passive_busoff".into(), join(&s.bands)),
            ("sweep_missions_completed".into(), s.missions_ok.to_string()),
        ])
    }
}

//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite|gateway|rtos|farm_flip|farm_sweep> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! Every workload is a closed loop driven from this process: one
//! operation at a time, except the farm workloads, which fan each batch
//! over one campaign worker per available CPU. `--trace 0` measures the
//! end-to-end metrics with span recording off; `--trace 1` alternates
//! untraced and traced rounds of the same operations and reports the
//! per-layer metrics. Before every operation the loop takes a host-speed
//! calibration sample (`calib`) that the end-to-end metrics are scaled
//! by. The last line of standard output is the JSON
//! result; the lines before it are a readable report.

mod calib;
mod farm;
mod gateway;
mod layers;
mod net;
mod report;
mod rtos;
mod spans;
mod suite;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use alia_sim::PredecodeStats;

use report::{median, quantile, ratio, Host, Metric};
use spans::{Recorder, Span};

/// A set-up sample is the best of a burst of at least `MIN_SETUPS`
/// set-ups lasting at least `SETUP_BURST_SECONDS`; the timed loop takes
/// one every `SETUP_EVERY_SECONDS`.
const MIN_SETUPS: usize = 3;
const SETUP_BURST_SECONDS: f64 = 0.02;
const SETUP_EVERY_SECONDS: f64 = 0.5;
/// Room reserved up front for the per-operation and per-mission
/// samples. Only the pages written count toward `peak_rss_mb`, so the
/// samples add to it in proportion to their number, never in the steps
/// of a growing vector.
const OPS_CAPACITY: usize = 1 << 20;
const MISSIONS_CAPACITY: usize = 1 << 22;
/// The quantile of an operation's or mission's scaled repeat times
/// that the end-to-end metrics report.
const LOW_QUANTILE: f64 = 0.05;
/// Pinned simulated-result fingerprints, seeds and model notes.
const PINNED: &str = include_str!("../fingerprints.json");

/// Per-operation counters, summed by name.
pub type Counts = BTreeMap<&'static str, f64>;

/// A simulated-result fingerprint: `(key, value)` pairs.
pub type Fingerprint = Vec<(String, String)>;

/// What one operation reports back.
#[derive(Debug, Default)]
pub struct Op {
    /// The first failed check, if any.
    pub error: Option<String>,
    /// Host nanoseconds of each mission the operation ran; empty when
    /// the operation is itself one mission.
    pub missions: Vec<u64>,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Simulated-side counters.
    pub counts: Counts,
}

/// One seeded workload, set up and ready to run operations.
pub trait Workload {
    /// Operations in one round: the fixed mix every measurement covers
    /// whole.
    fn round(&self) -> usize;
    /// Threads one operation keeps busy.
    fn threads(&self) -> usize {
        1
    }
    /// Runs operation `j` of the round and checks its outputs.
    fn op(&mut self, j: usize, rec: &mut Recorder) -> Op;
    /// Runs the reference inputs of `seed` untimed and returns their
    /// simulated-result fingerprint.
    fn fingerprint(&mut self, seed: u64, rec: &mut Recorder) -> Result<Fingerprint, String>;
}

/// Adds one machine's tier and predecode counters to `c`.
pub fn add_tier(c: &mut Counts, s: &PredecodeStats, instructions: u64, irqs: u64) {
    for (k, v) in [
        ("instr", instructions),
        ("t3_instr", s.threaded_instrs),
        ("t2_instr", s.block_instrs),
        ("pd_hits", s.hits),
        ("pd_misses", s.misses),
        ("promoted", s.blocks_promoted),
        ("demotions", s.demotions),
        ("budget_splits", s.budget_splits),
        ("plans_slow", s.plans_slow),
        ("plans", s.plans_free + s.plans_refill + s.plans_slow),
        ("irq_taken", irqs),
    ] {
        *c.entry(k).or_default() += v as f64;
    }
}

/// Adds `(name, value)` pairs to `c`.
pub fn add_counts(c: &mut Counts, pairs: &[(&'static str, u64)]) {
    for &(k, v) in pairs {
        *c.entry(k).or_default() += v as f64;
    }
}

/// Splitmix64: turns the seed argument into workload parameters.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const WORKLOADS: [&str; 5] = ["suite", "gateway", "rtos", "farm_flip", "farm_sweep"];

fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "suite" => Box::new(suite::setup(seed, rec)?),
        "gateway" => Box::new(gateway::setup(seed, rec)?),
        "rtos" => Box::new(rtos::setup(seed, rec)?),
        "farm_flip" => Box::new(farm::setup(farm::Kind::Flip, seed, rec)?),
        "farm_sweep" => Box::new(farm::setup(farm::Kind::Sweep, seed, rec)?),
        _ => unreachable!("parse_args admits only the names in WORKLOADS"),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => a.out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// The operations of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations in a round: operation `i` is operation `i % round` of
    /// its round.
    pub round: usize,
    /// Host nanoseconds of every operation.
    pub op_ns: Vec<u64>,
    /// Missions of each operation that time themselves: 0 when an
    /// operation is itself one mission.
    pub per_op: Option<usize>,
    /// Host nanoseconds of those missions, `per_op` per operation.
    pub mission_ns: Vec<u64>,
    /// The calibration sample taken before every operation, ns.
    pub cal_ns: Vec<f64>,
    /// Missions timed, repeats included.
    pub missions: usize,
    /// Guest instructions of the first round.
    pub round_instructions: u64,
    /// Counters of the first round.
    pub first_round: Counts,
    /// Counters of the whole phase.
    pub total: Counts,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Spans recorded (traced phase only).
    pub spans: Vec<Span>,
}

/// Runs whole rounds of `w` until `seconds` have passed, cycling
/// through `recs` round by round: with one disabled and one enabled
/// recorder, traced and untraced rounds interleave, so both see the
/// same host conditions. Before every operation it takes a calibration
/// sample (see `calib`). Every `SETUP_EVERY_SECONDS`, between rounds,
/// `setup_sample` takes one set-up sample. Returns one phase per
/// recorder and the set-up samples, each with the number of untraced
/// operations timed before it.
fn timed(
    w: &mut dyn Workload,
    seconds: f64,
    recs: &mut [Recorder],
    setup_sample: &mut dyn FnMut() -> f64,
) -> (Vec<Phase>, Vec<(f64, usize)>) {
    let mut phases: Vec<Phase> = recs
        .iter()
        .map(|_| Phase {
            round: w.round(),
            op_ns: Vec::with_capacity(OPS_CAPACITY),
            cal_ns: Vec::with_capacity(OPS_CAPACITY),
            mission_ns: Vec::with_capacity(MISSIONS_CAPACITY),
            ..Phase::default()
        })
        .collect();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut last_setup = start;
    let mut op_id = 0;
    let mut round = 0;
    while round < recs.len() || start.elapsed().as_secs_f64() < seconds {
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_SECONDS {
            setups.push((setup_sample(), phases[0].op_ns.len()));
            last_setup = Instant::now();
        }
        let k = round % recs.len();
        let (rec, p) = (&mut recs[k], &mut phases[k]);
        let first_round = p.op_ns.is_empty();
        for j in 0..w.round() {
            rec.set_op(op_id);
            op_id += 1;
            p.cal_ns.push(calib::measure(w.threads()));
            let t0 = Instant::now();
            let mut op = catch_unwind(AssertUnwindSafe(|| {
                rec.span("bench.op", |rec| w.op(j, rec))
            }))
            .unwrap_or_else(|_| Op {
                error: Some("operation panicked".into()),
                ..Op::default()
            });
            let ns = t0.elapsed().as_nanos() as u64;
            p.attempted += 1;
            let per_op = *p.per_op.get_or_insert(op.missions.len());
            if op.error.is_none() && op.missions.len() != per_op {
                op.error = Some(format!(
                    "{} missions timed, {per_op} in the first operation",
                    op.missions.len()
                ));
            }
            op.missions.resize(per_op, ns);
            if let Some(e) = &op.error {
                p.failed += 1;
                if p.failed <= 5 {
                    eprintln!("check failed: {e}");
                }
            }
            p.op_ns.push(ns);
            p.missions += per_op.max(1);
            p.mission_ns.extend_from_slice(&op.missions);
            for (k, v) in &op.counts {
                *p.total.entry(k).or_default() += v;
                if first_round {
                    *p.first_round.entry(k).or_default() += v;
                }
            }
            if first_round {
                p.round_instructions += op.instructions;
            }
        }
        round += 1;
    }
    (phases, setups)
}

impl Phase {
    /// The factor that scales the host time of each operation to the
    /// reference host speed: `calib::REFERENCE_NS` over the median of
    /// the calibration samples taken around the operation.
    fn scale(&self) -> Vec<f64> {
        let n = self.cal_ns.len();
        (0..n)
            .map(|i| {
                let near =
                    &self.cal_ns[i.saturating_sub(calib::SPAN)..(i + calib::SPAN + 1).min(n)];
                calib::REFERENCE_NS / median(near)
            })
            .collect()
    }

    /// Each distinct mission's time in ms, and the round's time in s:
    /// the `LOW_QUANTILE` over the repeats of each mission and of each
    /// operation of the round, of its host time times `scale`.
    fn summary(&self, scale: &[f64]) -> (Vec<f64>, f64) {
        let low = |v: &[f64]| quantile(v, LOW_QUANTILE);
        let mut round_s = 0.0;
        let mut missions = Vec::new();
        for j in 0..self.round {
            let repeats: Vec<usize> = (j..self.op_ns.len()).step_by(self.round).collect();
            let op: Vec<f64> = repeats
                .iter()
                .map(|&i| self.op_ns[i] as f64 * scale[i])
                .collect();
            round_s += low(&op) / 1e9;
            let per_op = self.per_op.unwrap_or(0);
            if per_op == 0 {
                missions.push(low(&op) / 1e6);
            }
            for m in 0..per_op {
                let t: Vec<f64> = repeats
                    .iter()
                    .map(|&i| self.mission_ns[i * per_op + m] as f64 * scale[i])
                    .collect();
                missions.push(low(&t) / 1e6);
            }
        }
        (missions, round_s)
    }
}

/// The end-to-end metrics. Every operation of a round, and every
/// mission inside it, does the same simulated work on each repeat (the
/// workloads check this). Each one's time is the `LOW_QUANTILE` over the
/// run's repeats of its host time scaled to the reference host speed
/// (see `calib`): scaling takes out most of a shared host's slowdowns
/// that last longer than an operation, and the low quantile drops the
/// repeats that a shorter one hit. A slower program slows every repeat,
/// so both still show it. The mission times are the median and 90th
/// percentile over the round's distinct missions: over the AutoIndy
/// kernel runs on `suite` and the batch's forked runs on the farm
/// workloads; a `gateway` or `rtos` round is a single mission, so both
/// are its time there. The rates are those of a round at those times.
/// `setup_s` is the median of the scaled set-up samples. The report
/// text also gives the unscaled figures.
fn end_to_end(setups: &[(f64, usize)], p: &Phase, rss: f64, text: &mut String) -> Vec<Metric> {
    let scale = p.scale();
    let setup_ns: Vec<f64> = setups
        .iter()
        .map(|&(ns, i)| ns * scale[i.min(scale.len() - 1)])
        .collect();
    let (missions, round_s) = p.summary(&scale);
    let (raw, raw_round_s) = p.summary(&vec![1.0; scale.len()]);
    text.push_str(&format!(
        "host speed {:.3} of reference (calibration median {:.1} us over {} samples); unscaled: \
         mission p50 {:.4} ms, p90 {:.4} ms, {:.2} missions/s, set-up {:.6} s\n",
        median(&scale),
        median(&p.cal_ns) / 1e3,
        p.cal_ns.len(),
        median(&raw),
        quantile(&raw, 0.9),
        ratio(raw.len() as f64, raw_round_s),
        median(&setups.iter().map(|&(ns, _)| ns).collect::<Vec<_>>()) / 1e9,
    ));
    vec![
        Metric {
            name: "setup_s",
            value: median(&setup_ns) / 1e9,
            unit: "s",
            n: setups.len(),
        },
        Metric {
            name: "mission_ms_p50",
            value: median(&missions),
            unit: "ms",
            n: p.missions,
        },
        Metric {
            name: "mission_ms_p90",
            value: quantile(&missions, 0.9),
            unit: "ms",
            n: p.missions,
        },
        Metric {
            name: "missions_per_s",
            value: ratio(missions.len() as f64, round_s),
            unit: "1/s",
            n: p.missions,
        },
        Metric {
            name: "guest_mips",
            value: ratio(p.round_instructions as f64, round_s * 1e6),
            unit: "instr/us",
            n: p.missions,
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MiB",
            n: 1,
        },
    ]
}

/// Compares `fp` against the pinned fingerprint of `workload`.
fn check_fingerprint(workload: &str, fp: &Fingerprint) -> Result<(), String> {
    let pinned = alia_obs::json::parse(PINNED).map_err(|e| format!("fingerprints.json: {e}"))?;
    let want = pinned
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(alia_obs::json::Value::as_obj)
        .ok_or_else(|| format!("no pinned fingerprint for {workload}"))?;
    if want.len() != fp.len() {
        return Err(format!("{} pinned keys, {} computed", want.len(), fp.len()));
    }
    for (k, v) in fp {
        match want.get(k).and_then(alia_obs::json::Value::as_str) {
            Some(w) if w == v => {}
            w => return Err(format!("{k}: computed {v}, pinned {w:?}")),
        }
    }
    Ok(())
}

fn reference_seed() -> u64 {
    alia_obs::json::parse(PINNED)
        .ok()
        .and_then(|v| {
            v.get("reference_seed")
                .and_then(alia_obs::json::Value::as_num)
        })
        .map_or(0, |s| s as u64)
}

/// Operation ids of the set-up and fingerprint spans.
const SETUP_OP: u64 = u64::MAX;
const FINGERPRINT_OP: u64 = u64::MAX - 1;

/// Sets the workload up in a burst (see `MIN_SETUPS`) and returns the
/// best set-up time in ns with the last workload built.
fn setup_burst(args: &Args, rec: &mut Recorder) -> Result<(f64, Box<dyn Workload>), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let w = catch_unwind(AssertUnwindSafe(|| {
            rec.span("bench.setup", |rec| setup(&args.workload, args.seed, rec))
        }))
        .map_err(|_| "set-up panicked".to_string())??;
        times.push(t0.elapsed().as_nanos() as f64);
        if times.len() >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_BURST_SECONDS {
            return Ok((times.iter().copied().fold(f64::INFINITY, f64::min), w));
        }
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>, String), String> {
    let host = Host::probe();
    let epoch = Instant::now();
    let mut rec = Recorder::new(args.trace, epoch);
    rec.set_op(SETUP_OP);
    let (first_setup_ns, mut w) = setup_burst(args, &mut rec)?;
    let setup_spans = std::mem::replace(&mut rec, Recorder::new(args.trace, epoch)).into_spans();

    let mut recs = vec![Recorder::new(false, epoch)];
    if args.trace {
        recs.push(Recorder::new(true, epoch));
    }
    let mut quiet = Recorder::new(false, epoch);
    let mut sample = || setup_burst(args, &mut quiet).map_or(f64::NAN, |(ns, _)| ns);
    let (mut phases, mut setups) = timed(w.as_mut(), args.seconds, &mut recs, &mut sample);
    setups.push((first_setup_ns, 0));
    setups.retain(|v| v.0.is_finite());
    let traced = (phases.len() > 1).then(|| {
        let mut t = phases.pop().expect("a traced phase");
        t.spans = recs.pop().expect("a traced recorder").into_spans();
        t
    });
    let plain = phases.pop().expect("an untraced phase");
    let rss = report::peak_rss_mb();

    rec.set_op(FINGERPRINT_OP);
    let ref_seed = reference_seed();
    let fp = catch_unwind(AssertUnwindSafe(|| {
        rec.span("bench.fingerprint", |rec| w.fingerprint(ref_seed, rec))
    }))
    .unwrap_or_else(|_| Err("fingerprint pass panicked".into()));
    let fp_spans = rec.into_spans();

    let mut text = format!(
        "workload {} seed {} seconds {} trace {}\nhost: nproc {}, cpu {:?}, {}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model,
        host.rustc
    );
    text.push_str(
        "model: unvalidated — no measurements from real hardware, so no accuracy figure\n",
    );
    let mut attempted = plain.attempted + 1;
    let mut failed = plain.failed;
    let mut trace_events = 0.0;
    let fp_result = fp.and_then(|fp| {
        text.push_str(&format!("fingerprint at reference seed {ref_seed}:\n"));
        for (k, v) in &fp {
            text.push_str(&format!("  {k} = {v}\n"));
            if k == "trace_events" {
                trace_events = v.parse().unwrap_or(0.0);
            }
        }
        check_fingerprint(&args.workload, &fp)
    });
    if let Err(e) = &fp_result {
        failed += 1;
        text.push_str(&format!("FINGERPRINT MISMATCH: {e}\n"));
    }
    let metrics = match &traced {
        None => end_to_end(&setups, &plain, rss, &mut text),
        Some(t) => {
            attempted += t.attempted + 1;
            failed += t.failed;
            let l = layers::per_layer(
                &plain,
                t,
                &setup_spans,
                &fp_spans,
                trace_events,
                report::workers(),
            );
            if let Err(e) = &l.self_check {
                failed += 1;
                text.push_str(&format!("SPAN SELF-CHECK FAILED: {e}\n"));
            }
            l.metrics
        }
    };
    text.push_str(&format!("checks: {attempted} attempted, {failed} failed\n"));
    for m in &metrics {
        text.push_str(&format!(
            "  {:<30} {:>14.4} {:<8} n={}\n",
            m.name, m.value, m.unit, m.n
        ));
    }
    if let Some(path) = &args.out {
        let spans = traced.as_ref().map_or(&[][..], |t| &t.spans[..]);
        let record = layers::record_json(args, &host, &metrics, spans);
        std::fs::write(path, record).map_err(|e| format!("--out {path}: {e}"))?;
    }
    Ok((failed == 0, attempted, failed, metrics, text))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics, text)) => {
            print!("{text}");
            println!(
                "{}",
                report::result_line(correct, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

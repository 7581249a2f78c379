//! Per-layer metrics, derived from the spans and counters of a traced
//! run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::{json_num, json_str, median, quantile, ratio, Host, Metric};
use crate::spans::{self_times, Span};
use crate::{Args, Phase};

/// Largest share of an operation's wall time its layer spans may leave
/// unattributed.
const MAX_GAP_PCT: f64 = 5.0;

/// Span names that are the root of one operation's tree.
const ROOTS: [&str; 2] = ["bench.op", "core.campaign.run"];

/// The per-layer report and the span self-check.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub self_check: Result<(), String>,
}

/// Self times of `spans` grouped by name.
struct Times {
    by_name: BTreeMap<&'static str, Vec<f64>>,
    per_op: BTreeMap<(&'static str, u64), f64>,
    dur: BTreeMap<&'static str, Vec<f64>>,
}

impl Times {
    fn new(spans: &[Span]) -> Times {
        let mut t = Times {
            by_name: BTreeMap::new(),
            per_op: BTreeMap::new(),
            dur: BTreeMap::new(),
        };
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let self_us = self_ns as f64 / 1e3;
            t.by_name.entry(s.name).or_default().push(self_us);
            *t.per_op.entry((s.name, s.op)).or_default() += self_us;
            t.dur
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e3);
        }
        t
    }

    /// Median self time of one call, µs.
    fn per_call(&self, name: &str) -> (f64, usize) {
        self.by_name
            .get(name)
            .map_or((0.0, 0), |v| (median(v), v.len()))
    }

    /// Median over operations of the self time spent in `name`, µs.
    fn per_op(&self, name: &str) -> (f64, usize) {
        let v: Vec<f64> = self
            .per_op
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, &us)| us)
            .collect();
        (median(&v), v.len())
    }

    /// Total self time in `name`, µs.
    fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn durations(&self, name: &str) -> &[f64] {
        self.dur.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Computes every per-layer metric. `plain` and `traced` ran the same
/// operations with span recording off and on; `setup` and `fingerprint`
/// hold the spans of the set-ups and the untimed fingerprint pass.
pub fn per_layer(
    plain: &Phase,
    traced: &Phase,
    setup: &[Span],
    fingerprint: &[Span],
    trace_events: f64,
    workers: usize,
) -> Layers {
    let s = Times::new(setup);
    let t = Times::new(&traced.spans);
    let f = Times::new(fingerprint);
    let c = |k: &str| traced.first_round.get(k).copied().unwrap_or(0.0);
    let total = |k: &str| traced.total.get(k).copied().unwrap_or(0.0);
    // Counts cover the first round only, so they repeat exactly.
    let n_round = 1;

    let mut m = Vec::new();
    let mut push = |name: &'static str, (value, n): (f64, usize), unit: &'static str| {
        m.push(Metric {
            name,
            value,
            unit,
            n,
        });
    };
    push("isa.assemble_us", s.per_call("isa.assemble"), "us");
    push("codegen.compile_us", s.per_call("codegen.compile"), "us");
    push("tir.interp_us", s.per_call("tir.interp"), "us");
    push("rtos.lower_us", s.per_call("rtos.lower"), "us");
    push("rtos.preemptions", (c("preemptions"), n_round), "count");
    push("sim.machine.run_us", t.per_op("sim.machine.run"), "us");
    let machine_us = t.total("sim.machine.run");
    let instr = if machine_us > 0.0 {
        total("instr")
    } else {
        0.0
    };
    push(
        "sim.machine.ns_per_instr",
        (ratio(machine_us * 1e3, instr), instr as usize),
        "ns",
    );
    let (i, t3, t2) = (c("instr"), c("t3_instr"), c("t2_instr"));
    push("sim.instructions", (i, n_round), "count");
    push(
        "sim.tier1.instr_pct",
        (100.0 * ratio(i - t3 - t2, i), n_round),
        "%",
    );
    push("sim.tier2.instr_pct", (100.0 * ratio(t2, i), n_round), "%");
    push("sim.tier3.instr_pct", (100.0 * ratio(t3, i), n_round), "%");
    push("sim.blocks.promoted", (c("promoted"), n_round), "count");
    push("sim.blocks.demotions", (c("demotions"), n_round), "count");
    push(
        "sim.blocks.demote_ratio",
        (ratio(c("demotions"), c("promoted")), n_round),
        "ratio",
    );
    push(
        "sim.blocks.budget_splits",
        (c("budget_splits"), n_round),
        "count",
    );
    push(
        "sim.predecode.hit_ratio",
        (ratio(c("pd_hits"), c("pd_hits") + c("pd_misses")), n_round),
        "ratio",
    );
    push(
        "sim.plans.slow_pct",
        (100.0 * ratio(c("plans_slow"), c("plans")), n_round),
        "%",
    );
    push("sim.irq.taken", (c("irq_taken"), n_round), "count");
    push("sim.build.us", t.per_op("sim.build"), "us");
    push("sim.system.run_us", t.per_op("sim.system.run"), "us");
    push("sim.system.quanta", (c("quanta"), n_round), "count");
    let system_us = t.total("sim.system.run");
    push(
        "sim.system.ns_per_quantum",
        (
            ratio(system_us * 1e3, total("quanta")),
            total("quanta") as usize,
        ),
        "ns",
    );
    push("sim.drop.us", t.per_op("sim.drop"), "us");
    push("sim.fork.us", t.per_call("sim.fork"), "us");
    let runs = t.durations("core.campaign.run");
    let run_us: f64 = runs.iter().sum();
    push(
        "sim.fork.run_share_pct",
        (100.0 * ratio(t.total("sim.fork"), run_us), runs.len()),
        "%",
    );
    push("sim.inject.us", t.per_call("sim.inject"), "us");
    push("sim.dma.forwarded", (c("dma_forwarded"), n_round), "count");
    push(
        "sim.dma.queue_overflows",
        (c("dma_overflows"), n_round),
        "count",
    );
    push("can.deliveries", (c("deliveries"), n_round), "count");
    push("can.error_frames", (c("error_frames"), n_round), "count");
    push(
        "can.error_ratio",
        (ratio(c("error_frames"), c("deliveries")), n_round),
        "ratio",
    );
    push("can.purged_tx", (c("purged_tx"), n_round), "count");
    push(
        "can.ns_per_delivery",
        (
            ratio(system_us * 1e3, total("deliveries")),
            total("deliveries") as usize,
        ),
        "ns",
    );
    let rta = if t.per_call("can.rta").1 > 0 {
        t.per_call("can.rta")
    } else {
        s.per_call("can.rta")
    };
    push("can.rta_us", rta, "us");
    push(
        "obs.metrics.publish_us",
        t.per_call("obs.metrics.publish"),
        "us",
    );
    push(
        "obs.metrics.merge_us",
        t.per_call("obs.metrics.merge"),
        "us",
    );
    push(
        "obs.trace.collect_us",
        f.per_call("obs.trace.collect"),
        "us",
    );
    push("obs.trace.hash_us", f.per_call("obs.trace.hash"), "us");
    push(
        "obs.trace.events",
        (trace_events, usize::from(trace_events > 0.0)),
        "count",
    );
    push("core.campaign.run_us_p50", (median(runs), runs.len()), "us");
    push(
        "core.campaign.run_us_p90",
        (quantile(runs, 0.9), runs.len()),
        "us",
    );
    let campaign_us: f64 = t.durations("core.campaign").iter().sum();
    push(
        "core.campaign.worker_busy_pct",
        (
            100.0 * ratio(run_us, workers as f64 * campaign_us),
            runs.len(),
        ),
        "%",
    );
    let op_ms = |p: &Phase| median(&p.op_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
    push(
        "bench.trace_overhead_pct",
        (
            100.0 * (ratio(op_ms(traced), op_ms(plain)) - 1.0),
            traced.op_ns.len(),
        ),
        "%",
    );
    // Self-check: the layer spans must account for the operations'
    // wall time; what is left is the roots' own self time.
    let (mut gap, mut wall) = (0.0, 0.0);
    for root in ROOTS {
        gap += t.total(root);
        wall += t.durations(root).iter().sum::<f64>();
    }
    let gap_pct = 100.0 * ratio(gap, wall);
    push("bench.span_gap_pct", (gap_pct, traced.op_ns.len()), "%");
    let self_check = if wall == 0.0 {
        Err("no operation spans recorded".into())
    } else if gap_pct > MAX_GAP_PCT {
        Err(format!(
            "layer spans leave {gap_pct:.2}% of operation wall time unattributed"
        ))
    } else {
        Ok(())
    };
    Layers {
        metrics: m,
        self_check,
    }
}

/// The full record of a run for `--out`: arguments, host fingerprint,
/// metrics with sample counts, and the traced phase's spans as
/// `[name, op, parent, start_ns, end_ns]`.
pub fn record_json(args: &Args, host: &Host, metrics: &[Metric], spans: &[Span]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace)
    );
    let _ = writeln!(
        out,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}}},",
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.rustc)
    );
    out.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"n\": {}}}{}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit),
            m.n,
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "    [{}, {}, {parent}, {}, {}]{}",
            json_str(s.name),
            s.op,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

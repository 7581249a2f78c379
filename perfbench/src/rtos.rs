//! `rtos`: the E13 executed preemptive RTOS ECU on the gateway
//! topology.
//!
//! The guest kernel multiplexes four workload-kernel tasks under
//! timer-driven fixed-priority preemption; one task ships a CAN frame
//! per completion through both gateways to the sink. Its blocks are
//! short and cut by interrupts, budget splits and demotions, so this
//! workload uses the execution tiers very differently from `suite`.
//! Each mission is checked against the analytic WCRT of every task and
//! the CAN bounds composed hop by hop from the TX task's CPU bound.

use alia_core::experiments::mission_tasks;
use alia_core::experiments::rtos_exec::{RTOS_TX_ID, TICK_CYCLES, TOTAL_TICKS};
use alia_obs::category;
use alia_rtos::exec::{
    build_guest_rtos, emit_obs_events, CanPort, ExecStats, GuestRtos, GuestRtosConfig,
    TaskSetLayout,
};
use alia_sim::{DeviceSpec, Machine, SharedCanBus, StopReason, SystemStop};

use crate::gateway::{same_as_first, signature, system_counts, traced_fingerprint, Signature};
use crate::net::{self, Images, Network, Traffic, HOP, PERIOD_CYCLES};
use crate::spans::Recorder;
use crate::{add_counts, mix, Fingerprint, Op, Workload};

/// Frames per plain sensor: both sensors keep sending for the whole
/// 40-tick RTOS mission.
const FRAMES: u32 = 40;
/// The RTOS ECU's node id on the sensor wire (the sensors are 0 and 1).
const RTOS_NODE: usize = 2;

fn rtos_config(wire: &SharedCanBus) -> GuestRtosConfig {
    GuestRtosConfig {
        tick_cycles: TICK_CYCLES,
        total_ticks: TOTAL_TICKS,
        // An unmatchable acceptance filter keeps the sensors' frames
        // away from the guest kernel.
        can: Some(CanPort {
            node: RTOS_NODE,
            wire: wire.clone(),
            filter: Some((0x7FF, 0x7FF)),
        }),
    }
}

/// The E13 task set with seeded task inputs.
fn tasks(seed: u64) -> Vec<alia_rtos::exec::GuestTask> {
    mission_tasks()
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.with_seed(mix(seed ^ (0x5EED << 8) ^ i as u64)))
        .collect()
}

fn lower(seed: u64, wire: &SharedCanBus, rec: &mut Recorder) -> Result<GuestRtos, String> {
    let tasks = tasks(seed);
    rec.span("rtos.lower", |_| {
        build_guest_rtos(&tasks, &rtos_config(wire))
    })
    .map_err(|e| e.to_string())
}

/// A fresh copy of the lowered RTOS machine, attached to `wire`: the
/// lowered flash, SRAM, CPU and interrupt priorities on a newly built
/// machine, so no state of an earlier mission carries over.
fn rebuild(template: &Machine, wire: &SharedCanBus) -> Machine {
    let mut config = template.config.clone();
    for d in &mut config.devices {
        if let DeviceSpec::SharedCan(_, w) = d {
            *w = wire.clone();
        }
    }
    let mut m = Machine::new(config);
    m.cpu = template.cpu.clone();
    m.flash = template.flash.clone();
    m.sram = template.sram.clone();
    m.irq = template.irq.clone();
    m
}

fn tx_frames(layout: &TaskSetLayout) -> Result<(usize, u32), String> {
    let i = layout
        .tasks
        .iter()
        .position(|t| t.tx_id.is_some())
        .ok_or("no TX task")?;
    Ok((i, layout.tasks[i].expected_activations))
}

pub struct Rtos {
    traffic: Traffic,
    images: Images,
    template: Machine,
    layout: TaskSetLayout,
    first: Option<Signature>,
}

/// Lowers the task set and assembles the other guests.
pub fn setup(seed: u64, rec: &mut Recorder) -> Result<Rtos, String> {
    let GuestRtos { machine, layout } =
        lower(seed, &SharedCanBus::named("sensor", net::EDGE_CPB), rec)?;
    let (_, tx) = tx_frames(&layout)?;
    let traffic = crate::gateway::traffic(seed, tx);
    let traffic = Traffic {
        frames: FRAMES,
        ..traffic
    };
    let images = net::assemble_images(traffic, rec)?;
    Ok(Rtos {
        traffic,
        images,
        template: machine,
        layout,
        first: None,
    })
}

/// Checks a finished mission at both analysis layers.
fn check(
    n: &mut Network,
    traffic: Traffic,
    layout: &TaskSetLayout,
    stop: SystemStop,
    rec: &mut Recorder,
) -> Result<ExecStats, String> {
    if stop != SystemStop::AllHalted {
        return Err("mission hit the horizon".into());
    }
    let rtos = n.rtos.ok_or("no RTOS node")?;
    let exit = n.system.node(rtos).halted();
    if exit != Some(StopReason::MmioExit(layout.expected_exit)) {
        return Err(format!(
            "RTOS ECU stopped with {exit:?}, want exit {:#x}",
            layout.expected_exit
        ));
    }
    let (tx_task, tx) = tx_frames(layout)?;
    let want = traffic
        .sensor_checksum()
        .wrapping_add(tx * (RTOS_TX_ID + 2 * HOP))
        .wrapping_add(tx * (tx + 1) / 2);
    if n.sink_exit() != Some(want) {
        return Err(format!(
            "sink exit {:?}, want {want:#x}",
            n.system.node(n.sink).halted()
        ));
    }
    n.system.settle_wires();
    // CPU level: executed worst responses against the analytic RTA.
    let (stats, bounds) = rec.span("rtos.validate", |_| {
        let stats = ExecStats::from_machine(n.system.node(rtos).machine(), layout)
            .map_err(|e| e.to_string())?;
        let bounds = stats.validate_bounds(layout).map_err(|e| e.to_string())?;
        Ok::<_, String>((stats, bounds))
    })?;
    for t in &stats.tasks {
        if t.completions != t.activations || t.overruns != 0 || t.acc != t.expected_acc {
            return Err(format!("task {}: {t:?}", t.name));
        }
    }
    if let Some(b) = bounds.iter().find(|b| b.margin < 0) {
        return Err(format!(
            "task {}: executed {} > bound {}",
            b.name, b.executed, b.bound
        ));
    }
    // Network level: the TX task's CPU bound is its stream's release
    // jitter on the sensor wire.
    let tx_period = u64::from(layout.tasks[tx_task].period_ticks) * u64::from(TICK_CYCLES);
    let mut sources: Vec<(u32, u64, u64)> = traffic
        .ids
        .iter()
        .map(|&id| (id, PERIOD_CYCLES, 0))
        .collect();
    sources.push((RTOS_TX_ID, tx_period, bounds[tx_task].bound));
    let wire_bounds = net::hop_bounds(&sources, rec);
    net::within_bounds(&n.wires, &wire_bounds)?;
    Ok(stats)
}

impl Workload for Rtos {
    fn round(&self) -> usize {
        1
    }

    fn op(&mut self, _: usize, rec: &mut Recorder) -> Op {
        let template = &self.template;
        let mut n = net::build(
            &self.images,
            Some(&mut |wire: &SharedCanBus| rebuild(template, wire)),
            rec,
        );
        let stop = n.run(rec);
        let mut op = Op::default();
        op.instructions = rec.span("sim.stats", |_| system_counts(&n.system, &mut op.counts));
        let (traffic, layout, first) = (self.traffic, &self.layout, &mut self.first);
        let checked = rec.span("bench.check", |rec| {
            let stats = check(&mut n, traffic, layout, stop, rec)?;
            same_as_first(first, &n)?;
            Ok::<_, String>(stats)
        });
        match checked {
            Ok(stats) => {
                let preemptions = stats.tasks.iter().map(|t| u64::from(t.preemptions)).sum();
                add_counts(&mut op.counts, &[("preemptions", preemptions)]);
            }
            Err(e) => op.error = Some(e),
        }
        rec.span("sim.drop", |_| drop(n));
        op
    }

    /// Runs the reference mission the way E13 builds it (the task set
    /// lowered against the mission's own sensor wire) with semantic
    /// tracing on, then checks that a mission on a rebuilt copy of the
    /// lowered machine, as the timed operations run it, is identical.
    fn fingerprint(&mut self, seed: u64, rec: &mut Recorder) -> Result<Fingerprint, String> {
        let reference = setup(seed, rec)?;
        let mut quiet = Recorder::new(false, rec.epoch());
        let mut lowered = Err("lowering never ran".to_string());
        let mut n = net::build(
            &reference.images,
            Some(
                &mut |wire: &SharedCanBus| match lower(seed, wire, &mut quiet) {
                    Ok(g) => {
                        lowered = Ok(g.layout);
                        g.machine
                    }
                    Err(e) => {
                        lowered = Err(e);
                        Machine::m3_like()
                    }
                },
            ),
            rec,
        );
        let layout = lowered?;
        n.system.set_trace_mask(category::SEMANTIC);
        let stop = n.run(rec);
        let stats = check(&mut n, reference.traffic, &layout, stop, rec)?;
        let rtos = n.rtos.ok_or("no RTOS node")?;
        let kernel_events = emit_obs_events(&n.system.node(rtos).machine().mmio().trace)
            .map_err(|e| e.to_string())?;
        let mut fp = traced_fingerprint(&n, Some(("rtos.kernel", kernel_events)), rec);
        let preemptions: u64 = stats.tasks.iter().map(|t| u64::from(t.preemptions)).sum();
        fp.push(("preemptions".into(), preemptions.to_string()));
        fp.push((
            "rtos_trace_hash".into(),
            format!("{:#018x}", stats.trace_hash),
        ));

        let mut copy = net::build(
            &reference.images,
            Some(&mut |wire: &SharedCanBus| rebuild(&reference.template, wire)),
            rec,
        );
        let stop = copy.run(rec);
        check(&mut copy, reference.traffic, &reference.layout, stop, rec)?;
        if signature(&copy) != signature(&n) {
            return Err("a rebuilt copy of the lowered RTOS machine diverges from it".into());
        }
        Ok(fp)
    }
}

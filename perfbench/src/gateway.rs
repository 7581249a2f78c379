//! `gateway`: the E10 3-wire, 5-node DMA gateway mission at its maximum
//! of 100 frames per sensor.
//!
//! One operation builds the machines from pre-assembled images, runs
//! `System::run` until every node halts, and checks the sink checksum
//! and the per-wire RTA bounds. A mission runs about 2,000 scheduler
//! quanta but retires only a few thousand guest instructions per node,
//! so host time goes to the scheduler, the wires, DMA and device
//! re-arm, and machine build, while the execution tiers sit idle.

use alia_obs::category;
use alia_sim::{Dma, SharedCanBus, System, SystemStop};

use crate::net::{self, Images, Network, Traffic, WireBounds, PERIOD_CYCLES};
use crate::spans::Recorder;
use crate::{add_counts, add_tier, mix, Counts, Fingerprint, Op, Workload};

/// Frames per sensor: the sink's 8-bit compare allows at most 100.
const FRAMES: u32 = 100;

/// The seeded traffic: sensor 0 takes an id from `0x100..=0x11F` and
/// sensor 1 from `0x140..=0x17F`, so sensor 0 always wins arbitration
/// and neither collides with the RTOS ECU's `0x120`.
pub fn traffic(seed: u64, extra: u32) -> Traffic {
    let h = mix(0x6A7E ^ seed);
    Traffic {
        frames: FRAMES,
        ids: [0x100 + (h % 0x20) as u32, 0x140 + ((h >> 8) % 0x40) as u32],
        extra,
    }
}

pub struct Gateway {
    traffic: Traffic,
    images: Images,
    bounds: WireBounds,
    /// Node clocks and delivery hash of the first mission: every
    /// repeat must reproduce them.
    first: Option<Signature>,
}

/// Assembles the guests and computes the analytic per-wire bounds.
pub fn setup(seed: u64, rec: &mut Recorder) -> Result<Gateway, String> {
    let traffic = traffic(seed, 0);
    let images = net::assemble_images(traffic, rec)?;
    let sources: Vec<(u32, u64, u64)> = traffic
        .ids
        .iter()
        .map(|&id| (id, PERIOD_CYCLES, 0))
        .collect();
    let bounds = net::hop_bounds(&sources, rec);
    Ok(Gateway {
        traffic,
        images,
        bounds,
        first: None,
    })
}

impl Gateway {
    /// Runs one mission and checks it: every node halted, the sink
    /// closed its checksum over every frame, and every wire stayed
    /// within its analytic bounds.
    fn mission(&self, trace_mask: u32, rec: &mut Recorder) -> (Network, Result<(), String>) {
        let mut n = net::build(&self.images, None, rec);
        n.system.set_trace_mask(trace_mask);
        let stop = n.run(rec);
        let check = rec.span("bench.check", |_| {
            if stop != SystemStop::AllHalted {
                return Err("mission hit the horizon".to_string());
            }
            let want = self.traffic.sensor_checksum();
            if n.sink_exit() != Some(want) {
                return Err(format!(
                    "sink exit {:?}, want {want:#x}",
                    n.system.node(n.sink).halted()
                ));
            }
            n.system.settle_wires();
            net::within_bounds(&n.wires, &self.bounds)
        });
        (n, check)
    }
}

/// Adds a system's simulated counters to `c`; returns the guest
/// instructions its nodes retired.
pub fn system_counts(system: &System, c: &mut Counts) -> u64 {
    let mut instructions = 0;
    let (mut forwarded, mut overflows) = (0, 0);
    for node in system.nodes() {
        let m = node.machine();
        instructions += m.instructions();
        add_tier(
            c,
            &m.predecode_stats(),
            m.instructions(),
            m.latencies().len() as u64,
        );
        if let Some(d) = m.bus.device::<Dma>() {
            forwarded += d.forwarded();
            overflows += d.queue_overflows();
        }
    }
    let wires = system.wires();
    add_counts(
        c,
        &[
            ("quanta", system.quanta()),
            ("dma_forwarded", forwarded),
            ("dma_overflows", overflows),
            (
                "deliveries",
                wires.iter().map(|w| w.deliveries_len() as u64).sum(),
            ),
            (
                "error_frames",
                wires.iter().map(SharedCanBus::error_frames).sum(),
            ),
            ("purged_tx", wires.iter().map(SharedCanBus::purged_tx).sum()),
        ],
    );
    instructions
}

/// A mission's determinism signature: node clocks and delivery hash.
pub type Signature = (Vec<u64>, u64);

/// The signature of a finished mission.
pub fn signature(n: &Network) -> Signature {
    (
        n.system
            .nodes()
            .iter()
            .map(alia_sim::Node::cycles)
            .collect(),
        n.delivery_hash(),
    )
}

/// Checks that `n` repeats the first mission of the run exactly.
pub fn same_as_first(first: &mut Option<Signature>, n: &Network) -> Result<(), String> {
    let sig = signature(n);
    let want = first.get_or_insert_with(|| sig.clone());
    if *want == sig {
        Ok(())
    } else {
        Err(format!(
            "mission diverged from the first: {sig:?} vs {want:?}"
        ))
    }
}

/// Fingerprint of a mission run with semantic tracing on; the trace is
/// collected and hashed inside `obs.trace.*` spans.
pub fn traced_fingerprint(
    n: &Network,
    extra: Option<(&str, Vec<alia_obs::TraceEvent>)>,
    rec: &mut Recorder,
) -> Fingerprint {
    let mut set = rec.span("obs.trace.collect", |_| n.system.trace_set());
    if let Some((label, events)) = extra {
        set.push_stream(label, events);
    }
    let hash = rec.span("obs.trace.hash", |_| set.fnv_hash(category::SEMANTIC));
    let (cycles, deliveries) = signature(n);
    vec![
        (
            "node_cycles".into(),
            cycles
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ),
        ("delivery_hash".into(), format!("{deliveries:#018x}")),
        ("semantic_trace_hash".into(), format!("{hash:#018x}")),
        ("trace_events".into(), set.total_events().to_string()),
    ]
}

impl Workload for Gateway {
    fn round(&self) -> usize {
        1
    }

    fn op(&mut self, _: usize, rec: &mut Recorder) -> Op {
        let (n, check) = self.mission(0, rec);
        let mut op = Op::default();
        op.instructions = rec.span("sim.stats", |_| system_counts(&n.system, &mut op.counts));
        let first = &mut self.first;
        op.error = rec
            .span("bench.check", |_| {
                check.and_then(|()| same_as_first(first, &n))
            })
            .err();
        rec.span("sim.drop", |_| drop(n));
        op
    }

    fn fingerprint(&mut self, seed: u64, rec: &mut Recorder) -> Result<Fingerprint, String> {
        let (n, check) = setup(seed, rec)?.mission(category::SEMANTIC, rec);
        check?;
        Ok(traced_fingerprint(&n, None, rec))
    }
}

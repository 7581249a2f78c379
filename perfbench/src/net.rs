//! The E10 gateway network, rebuilt from the simulator's public API.
//!
//! ```text
//! sensor0 ─┐
//!          ├─ sensor wire ── gw1 (DMA) ── backbone ── gw2 (DMA) ── actuator wire ── sink
//! sensor1 ─┘   (cpb 4)                    (cpb 2)                    (cpb 4)
//! ```
//!
//! Guest images are assembled once, in set-up; every mission builds
//! fresh machines from them. The `rtos` workload adds the executed-RTOS
//! ECU to the sensor wire as a third sender.

use alia_can::{response_bound, CanMessage};
use alia_isa::Assembler;
use alia_sim::{
    CanConfig, DeviceSpec, DmaConfig, Machine, MachineConfig, SharedCanBus, StopReason, System,
    SystemStop, TimerConfig, CAN_BASE, DMA_BASE, SRAM_BASE, TIMER_BASE,
};

use crate::report::Fnv;
use crate::spans::Recorder;

/// Cycles per CAN bit on the sensor and actuator wires.
pub const EDGE_CPB: u64 = 4;
/// Cycles per CAN bit on the backbone.
pub const BACKBONE_CPB: u64 = 2;
/// Timer period of each sensor ECU, cycles.
pub const PERIOD_CYCLES: u64 = 2_000;
/// Store-and-forward latency of each gateway engine, cycles.
pub const FWD_LATENCY: u64 = 200;
/// Id offset each gateway hop adds (`0x100..` → `0x300..` → `0x500..`).
pub const HOP: u32 = 0x200;
/// Mission horizon, cycles: far beyond any clean mission.
pub const HORIZON: u64 = 50_000_000;

/// Flash segments of one guest; execution starts at `0x100`.
#[derive(Debug, Clone)]
pub struct Image {
    segments: Vec<(u32, Vec<u8>)>,
}

/// The pre-assembled guests of one network.
#[derive(Debug, Clone)]
pub struct Images {
    sensors: [Image; 2],
    gw1: Image,
    gw2: Image,
    sink: Image,
}

/// What a network carries: `frames` per sensor with ids `ids`, plus
/// `extra` frames from the RTOS ECU, all counted by the sink.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Frames per plain sensor (at most 100: the sink compares an
    /// 8-bit immediate).
    pub frames: u32,
    /// Sensor-wire ids of the two sensor streams, inside gw1's
    /// `0x100..=0x17F` route window.
    pub ids: [u32; 2],
    /// Frames the sink receives from other senders.
    pub extra: u32,
}

impl Traffic {
    /// The sink's checksum for the plain sensor streams: for each
    /// stream, actuator-wire id plus payload word `k`, over every frame.
    pub fn sensor_checksum(&self) -> u32 {
        self.ids
            .iter()
            .map(|id| (0..self.frames).map(|k| id + 2 * HOP + k).sum::<u32>())
            .sum()
    }
}

fn assemble(src: &str, rec: &mut Recorder) -> Result<Vec<u8>, String> {
    rec.span("isa.assemble", |_| {
        Assembler::new(MachineConfig::m3_like().mode).assemble(src)
    })
    .map(|o| o.bytes)
    .map_err(|e| format!("asm: {e}"))
}

fn sensor_image(frames: u32, id: u32, rec: &mut Recorder) -> Result<Image, String> {
    let main = assemble(
        &format!(
            "movw r0, #0x1000
             movt r0, #0x4000
             movw r1, #{PERIOD_CYCLES}
             str r1, [r0, #4]
             mov r1, #3
             str r1, [r0, #0]
             sleep: wfi
             cmp r4, #{frames}
             blt sleep
             movw r0, #0
             movt r0, #0x4000
             str r4, [r0, #0]
             halt: b halt"
        ),
        rec,
    )?;
    let tick = assemble(
        &format!(
            "movw r0, #0x2000
             movt r0, #0x4000
             cmp r4, #{frames}
             bge done
             movw r1, #{id}
             str r1, [r0, #0]
             mov r1, #4
             str r1, [r0, #4]
             str r4, [r0, #8]
             mov r1, #0
             str r1, [r0, #12]
             str r1, [r0, #16]
             add r4, r4, #1
             done: bx lr"
        ),
        rec,
    )?;
    // The sensor wire is shared, so each sensor hears its peer: the RX
    // handler drains and discards those frames.
    let drop_rx = assemble(
        "movw r0, #0x2000
         movt r0, #0x4000
         drop: ldr r1, [r0, #20]
         cmp r1, #0
         beq done
         str r1, [r0, #40]
         b drop
         done: bx lr",
        rec,
    )?;
    Ok(Image {
        segments: vec![
            (0x200, tick),
            (0x300, drop_rx),
            (0, 0x200u32.to_le_bytes().to_vec()),
            (4, 0x300u32.to_le_bytes().to_vec()),
            (0x100, main),
        ],
    })
}

fn gateway_image(lo: u32, hi: u32, rewrite: u32, rec: &mut Recorder) -> Result<Image, String> {
    let main = assemble(
        &format!(
            "movw r0, #0x4000
             movt r0, #0x4000
             movw r1, #{FWD_LATENCY}
             str r1, [r0, #4]
             movw r1, #{lo}
             str r1, [r0, #0x44]
             movw r1, #{hi}
             str r1, [r0, #0x48]
             movw r1, #{rewrite}
             movt r1, #0x8000
             str r1, [r0, #0x4C]
             mov r1, #1
             str r1, [r0, #0x40]
             str r1, [r0, #0]
             sleep: wfi
             b sleep"
        ),
        rec,
    )?;
    Ok(Image {
        segments: vec![(0x100, main)],
    })
}

fn sink_image(total: u32, rec: &mut Recorder) -> Result<Image, String> {
    let main = assemble(
        &format!(
            "sleep: wfi
             cmp r7, #{total}
             blt sleep
             movw r0, #0
             movt r0, #0x4000
             str r6, [r0, #0]
             halt: b halt"
        ),
        rec,
    )?;
    let rx = assemble(
        "movw r0, #0x2000
         movt r0, #0x4000
         rxloop: ldr r1, [r0, #20]
         cmp r1, #0
         beq rxdone
         ldr r1, [r0, #24]
         add r6, r6, r1
         ldr r1, [r0, #32]
         add r6, r6, r1
         str r1, [r0, #40]
         add r7, r7, #1
         b rxloop
         rxdone: bx lr",
        rec,
    )?;
    Ok(Image {
        segments: vec![
            (0x200, rx),
            (4, 0x200u32.to_le_bytes().to_vec()),
            (0x100, main),
        ],
    })
}

/// Assembles every guest of the network carrying `traffic`.
///
/// # Errors
///
/// Fails when a guest does not assemble or the sink's total does not
/// fit its 8-bit compare immediate.
pub fn assemble_images(traffic: Traffic, rec: &mut Recorder) -> Result<Images, String> {
    let total = 2 * traffic.frames + traffic.extra;
    if traffic.frames == 0 || total > 255 {
        return Err(format!("sink total {total} must be in 1..=255"));
    }
    Ok(Images {
        sensors: [
            sensor_image(traffic.frames, traffic.ids[0], rec)?,
            sensor_image(traffic.frames, traffic.ids[1], rec)?,
        ],
        gw1: gateway_image(0x100, 0x17F, 0x300, rec)?,
        gw2: gateway_image(0x300, 0x37F, 0x500, rec)?,
        sink: sink_image(total, rec)?,
    })
}

/// A built, unrun network.
#[derive(Debug)]
pub struct Network {
    /// The scheduler holding every node.
    pub system: System,
    /// Sensor, backbone and actuator wires.
    pub wires: [SharedCanBus; 3],
    /// Node index of the sink (always the last node).
    pub sink: usize,
    /// Node index of the RTOS ECU, when one was added.
    pub rtos: Option<usize>,
}

fn boot(config: MachineConfig, image: &Image) -> Machine {
    let mut m = Machine::new(config);
    for (addr, bytes) in &image.segments {
        m.load_flash(*addr, bytes);
    }
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

fn shared_can(node: usize, wire: &SharedCanBus) -> DeviceSpec {
    DeviceSpec::SharedCan(
        CanConfig {
            base: CAN_BASE,
            irq: 1,
            node,
            ..CanConfig::default()
        },
        wire.clone(),
    )
}

fn dma(node: usize, a: &SharedCanBus, b: &SharedCanBus) -> DeviceSpec {
    DeviceSpec::Dma(
        DmaConfig {
            base: DMA_BASE,
            irq: 3,
            node_a: node,
            node_b: node,
            latency: 0,
        },
        a.clone(),
        b.clone(),
    )
}

/// Builds the network from `images`. `rtos`, when given, makes the
/// RTOS ECU's machine for the sensor wire; it joins as the third node.
pub fn build(
    images: &Images,
    rtos: Option<&mut dyn FnMut(&SharedCanBus) -> Machine>,
    rec: &mut Recorder,
) -> Network {
    rec.span("sim.build", |_| {
        let mut system = System::new();
        let sensor = system.add_wire("sensor", EDGE_CPB);
        let backbone = system.add_wire("backbone", BACKBONE_CPB);
        let actuator = system.add_wire("actuator", EDGE_CPB);
        for (node, image) in images.sensors.iter().enumerate() {
            let mut config = MachineConfig::m3_like();
            config.devices = vec![
                DeviceSpec::Timer(TimerConfig {
                    base: TIMER_BASE,
                    irq: 0,
                    compare: PERIOD_CYCLES as u32,
                }),
                shared_can(node, &sensor),
            ];
            system.add_node(format!("sensor{node}"), boot(config, image));
        }
        let rtos = rtos.map(|make| system.add_node("rtos", make(&sensor)));
        for (name, image, node, a, b) in [
            ("gw1", &images.gw1, 6, &sensor, &backbone),
            ("gw2", &images.gw2, 7, &backbone, &actuator),
        ] {
            let mut config = MachineConfig::m3_like();
            config.devices = vec![dma(node, a, b)];
            system.add_node(name, boot(config, image));
        }
        let mut config = MachineConfig::m3_like();
        config.devices = vec![shared_can(0, &actuator)];
        let sink = system.add_node("sink", boot(config, &images.sink));
        Network {
            system,
            wires: [sensor, backbone, actuator],
            sink,
            rtos,
        }
    })
}

impl Network {
    /// Runs the mission until every node halts.
    pub fn run(&mut self, rec: &mut Recorder) -> SystemStop {
        let system = &mut self.system;
        rec.span("sim.system.run", |_| system.run(HORIZON)).reason
    }

    /// The sink's exit code, when it exited through MMIO.
    pub fn sink_exit(&self) -> Option<u32> {
        match self.system.node(self.sink).halted() {
            Some(StopReason::MmioExit(c)) => Some(c),
            _ => None,
        }
    }

    /// FNV-1a hash of every wire's delivery log: the determinism
    /// signature of the traffic.
    pub fn delivery_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for w in &self.wires {
            for d in w.delivery_log() {
                h.u64(u64::from(d.frame.id.raw()));
                h.u64(d.node as u64);
                h.u64(d.enqueued_at);
                h.u64(d.completed_at);
                h.u64(u64::from(d.attempt));
            }
        }
        h.0
    }
}

/// One analytic CAN stream on a wire: `period` and release `jitter` in
/// cycles, converted to the wire's bit time.
fn stream(id: u32, cpb: u64, jitter_cycles: u64, period_cycles: u64) -> CanMessage {
    let period = period_cycles / cpb;
    let jitter = jitter_cycles.div_ceil(cpb);
    CanMessage {
        id,
        dlc: 4,
        extended: false,
        period,
        jitter,
        deadline: period + jitter,
    }
}

/// Per-wire `(wire id, response bound in bit times)` pairs, in
/// topology order.
pub type WireBounds = Vec<Vec<(u32, Option<u64>)>>;

/// Per-wire response bounds, composed hop by hop: a stream's bound on
/// one wire plus the forwarding latency is its release jitter on the
/// next. `sources` are `(sensor-wire id, period, initial jitter)` in
/// cycles.
pub fn hop_bounds(sources: &[(u32, u64, u64)], rec: &mut Recorder) -> WireBounds {
    let cpbs = [EDGE_CPB, BACKBONE_CPB, EDGE_CPB];
    let mut jitter: Vec<u64> = sources.iter().map(|s| s.2).collect();
    let mut out = Vec::new();
    for (hop, cpb) in cpbs.iter().enumerate() {
        let offset = HOP * hop as u32;
        let streams: Vec<CanMessage> = sources
            .iter()
            .zip(&jitter)
            .map(|(&(id, period, _), &j)| stream(id + offset, *cpb, j, period))
            .collect();
        let bounds: Vec<Option<u64>> = streams
            .iter()
            .map(|m| rec.span("can.rta", |_| response_bound(&streams, m.id)))
            .collect();
        for (j, b) in jitter.iter_mut().zip(&bounds) {
            *j += b.unwrap_or(0) * cpb + FWD_LATENCY;
        }
        out.push(streams.iter().map(|m| m.id).zip(bounds).collect());
    }
    out
}

/// Checks every wire's executed worst latencies against `bounds`
/// (from [`hop_bounds`]); an id without a bound fails closed.
pub fn within_bounds(wires: &[SharedCanBus; 3], bounds: &WireBounds) -> Result<(), String> {
    for (w, wb) in wires.iter().zip(bounds) {
        for (id, worst) in w.worst_latencies() {
            let bound = wb
                .iter()
                .find(|(i, _)| *i == id.raw())
                .and_then(|(_, b)| *b);
            if bound.is_none_or(|b| worst > b) {
                return Err(format!(
                    "wire {}: id {:#x} worst {worst} > bound {bound:?}",
                    w.name(),
                    id.raw()
                ));
            }
        }
    }
    Ok(())
}

//! A warm 5-node CAN/DMA gateway system for the fork tests: two timer-
//! paced sensors on a `sensor` wire, two DMA gateway ECUs forwarding
//! sensor → backbone → actuator, and a sink that checksums every frame.
//!
//! The guests touch memory the way copy-on-write storage must get
//! right: the sensors push and pop on their stacks, and the sink's RX
//! handler appends payloads to a buffer that walks across a 4 KiB page
//! boundary and does unaligned word and halfword stores and loads that
//! straddle another.

#![allow(dead_code)]

use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    CanConfig, DeviceSpec, DmaConfig, Machine, MachineConfig, System, TimerConfig, CAN_BASE,
    DMA_BASE, SRAM_BASE, TIMER_BASE,
};

/// Frames each sensor sends.
pub const FRAMES: u32 = 6;

/// Assembles T2 source.
pub fn asm(src: &str) -> Vec<u8> {
    Assembler::new(IsaMode::T2)
        .assemble(src)
        .expect("assembles")
        .bytes
}

fn boot(mut m: Machine, main: &str) -> Machine {
    m.load_flash(0x100, &asm(main));
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

/// The 5-node system, unrun, on machines built from `base` (an
/// `m3_like` configuration, possibly resized).
pub fn gateway_system(base: &MachineConfig) -> System {
    let mut sys = System::new();
    let sensor = sys.add_wire("sensor", 4);
    let backbone = sys.add_wire("backbone", 2);
    let actuator = sys.add_wire("actuator", 4);
    for (node, id) in [(0usize, 0x100u32), (1, 0x140)] {
        let mut c = base.clone();
        c.devices = vec![
            DeviceSpec::Timer(TimerConfig {
                base: TIMER_BASE,
                irq: 0,
                compare: 1_500,
            }),
            DeviceSpec::SharedCan(
                CanConfig {
                    base: CAN_BASE,
                    irq: 1,
                    node,
                    ..CanConfig::default()
                },
                sensor.clone(),
            ),
        ];
        let mut m = boot(
            Machine::new(c),
            &format!(
                "movw r0, #0x1000
                 movt r0, #0x4000
                 movw r1, #1500
                 str r1, [r0, #4]
                 mov r1, #3
                 str r1, [r0, #0]
                 sleep: wfi
                 cmp r4, #{FRAMES}
                 blt sleep
                 movw r0, #0
                 movt r0, #0x4000
                 str r4, [r0, #0]
                 halt: b halt"
            ),
        );
        m.load_flash(
            0x200,
            &asm(&format!(
                "push {{r2, r3}}
                 movw r0, #0x2000
                 movt r0, #0x4000
                 cmp r4, #{FRAMES}
                 bge done
                 movw r1, #{id}
                 str r1, [r0, #0]
                 mov r1, #4
                 str r1, [r0, #4]
                 mul r2, r4, r4
                 add r2, r2, #{node}
                 str r2, [r0, #8]
                 mov r1, #0
                 str r1, [r0, #12]
                 str r1, [r0, #16]
                 add r4, r4, #1
                 done: pop {{r2, r3}}
                 bx lr"
            )),
        );
        m.load_flash(
            0x300,
            &asm("movw r0, #0x2000
                  movt r0, #0x4000
                  drop: ldr r1, [r0, #20]
                  cmp r1, #0
                  beq done
                  str r1, [r0, #40]
                  b drop
                  done: bx lr"),
        );
        m.load_flash(0, &0x200u32.to_le_bytes());
        m.load_flash(4, &0x300u32.to_le_bytes());
        sys.add_node(format!("sensor{node}"), m);
    }
    for (name, node, lo, rewrite, a, b) in [
        ("gw1", 6usize, 0x100u32, 0x300u32, &sensor, &backbone),
        ("gw2", 7, 0x300, 0x500, &backbone, &actuator),
    ] {
        let mut c = base.clone();
        c.devices = vec![DeviceSpec::Dma(
            DmaConfig {
                base: DMA_BASE,
                irq: 3,
                node_a: node,
                node_b: node,
                latency: 0,
            },
            a.clone(),
            b.clone(),
        )];
        let hi = lo + 0x7F;
        sys.add_node(
            name,
            boot(
                Machine::new(c),
                &format!(
                    "movw r0, #0x4000
                     movt r0, #0x4000
                     movw r1, #200
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
            ),
        );
    }
    let mut c = base.clone();
    c.devices = vec![DeviceSpec::SharedCan(
        CanConfig {
            base: CAN_BASE,
            irq: 1,
            node: 0,
            ..CanConfig::default()
        },
        actuator.clone(),
    )];
    let total = 2 * FRAMES;
    let mut sink = boot(
        Machine::new(c),
        &format!(
            "movw r5, #0x0FF8
             movt r5, #0x2000
             sleep: wfi
             cmp r7, #{total}
             blt sleep
             movw r0, #0
             movt r0, #0x4000
             str r6, [r0, #0]
             halt: b halt"
        ),
    );
    sink.load_flash(
        0x200,
        &asm("movw r0, #0x2000
              movt r0, #0x4000
              rxloop: ldr r1, [r0, #20]
              cmp r1, #0
              beq rxdone
              ldr r1, [r0, #24]
              add r6, r6, r1
              ldr r1, [r0, #32]
              add r6, r6, r1
              str r1, [r5, #0]
              add r5, r5, #4
              movw r2, #0x1FFE
              movt r2, #0x2000
              ldr r3, [r2, #0]
              add r3, r3, r6
              str r3, [r2, #0]
              ldrh r3, [r2, #1]
              add r3, r3, r7
              strh r3, [r2, #1]
              str r1, [r0, #40]
              add r7, r7, #1
              b rxloop
              rxdone: bx lr"),
    );
    sink.load_flash(4, &0x200u32.to_le_bytes());
    sys.add_node("sink", sink);
    sys
}

//! Device-bus integration: guest programs driving the timer and CAN
//! controller purely through loads and stores, plus regression coverage
//! for the unified remap point (sub-word accesses to flash-patched and
//! bit-band addresses take the same path as word accesses), and the
//! parity of a standalone CAN controller (private wire) with the same
//! controller as the only node of a [`System`] (shared wire).

use alia_can::{BabbleArm, CanFrame, CanId, Delivery, FaultPlan, StateChange};
use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    CanConfig, CanController, DeviceSpec, Machine, MachineConfig, PatchKind, StopReason, System,
    Timer, TimerConfig, BITBAND_BASE, CAN_BASE, SRAM_BASE, TIMER_BASE,
};

fn machine_with_devices(devices: Vec<DeviceSpec>, src: &str) -> Machine {
    let mut config = MachineConfig::m3_like();
    config.devices = devices;
    let out = Assembler::new(config.mode).assemble(src).expect("program assembles");
    let mut m = Machine::new(config);
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

#[test]
fn guest_arms_timer_and_takes_its_irq() {
    // The guest programs COMPARE and CTRL with stores, then spins; the
    // compare match interrupts it and the handler stops the machine.
    let src = "movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #500
         str r1, [r0, #4]
         mov r1, #1
         str r1, [r0, #0]
         spin: b spin";
    let handler = Assembler::new(IsaMode::T2).assemble("bkpt #5").unwrap();
    let mut m = machine_with_devices(
        vec![DeviceSpec::Timer(TimerConfig { base: TIMER_BASE, irq: 0, compare: 999 })],
        src,
    );
    m.load_flash(0x300, &handler.bytes);
    m.load_flash(0, &0x300u32.to_le_bytes());
    let r = m.run(100_000);
    assert_eq!(r.reason, StopReason::Bkpt(5));
    let timer = m.bus.device::<Timer>().expect("timer attached");
    assert_eq!(timer.fires(), 1, "one-shot compare match");
    // Latency accounting measured from the programmed compare match.
    let lat = m.latencies()[0];
    assert!(lat.pend_cycle >= 500, "asserted at the compare match, got {}", lat.pend_cycle);
    assert!(lat.entry_cycle >= lat.pend_cycle);
}

#[test]
fn guest_timer_count_register_reads_remaining_cycles() {
    // Arm a long one-shot, read COUNT a few instructions later: the
    // remaining-cycle value must have decreased but stay positive.
    let src = "movw r0, #0x1000
         movt r0, #0x4000
         movw r1, #10000
         str r1, [r0, #4]
         mov r1, #1
         str r1, [r0, #0]
         nop
         nop
         ldr r2, [r0, #8]
         bkpt #0";
    let mut m = machine_with_devices(
        vec![DeviceSpec::Timer(TimerConfig::default())],
        src,
    );
    let r = m.run(100_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let remaining = m.cpu.regs[2];
    assert!(remaining > 0 && remaining < 10_000, "COUNT read {remaining}");
}

#[test]
fn guest_loopback_can_frame_round_trip() {
    // Stage a frame with stores, submit it, spin on RX_STATUS with
    // loads, then read the frame back — no host-side CAN calls at all.
    // Polling mode: the guest masks the RX interrupt (`cpsid`) instead
    // of installing a handler.
    let src = "cpsid
         movw r0, #0x2000
         movt r0, #0x4000
         movw r1, #0x234
         str r1, [r0, #0]
         mov r1, #8
         str r1, [r0, #4]
         movw r1, #0x5678
         movt r1, #0x1234
         str r1, [r0, #8]
         movw r1, #0xBBAA
         movt r1, #0xDDCC
         str r1, [r0, #12]
         str r1, [r0, #16]
         wait: ldr r2, [r0, #20]
         cmp r2, #0
         beq wait
         ldr r3, [r0, #24]
         ldr r4, [r0, #28]
         ldr r5, [r0, #32]
         ldr r6, [r0, #36]
         str r2, [r0, #40]
         ldr r7, [r0, #20]
         bkpt #0";
    let mut m = machine_with_devices(
        vec![DeviceSpec::Can(CanConfig {
            base: CAN_BASE,
            irq: 1,
            node: 0,
            cycles_per_bit: 3,
            loopback: true,
            ..CanConfig::default()
        })],
        src,
    );
    let r = m.run(1_000_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert_eq!(m.cpu.regs[3], 0x234, "RX_ID");
    assert_eq!(m.cpu.regs[4], 8, "RX_DLC");
    assert_eq!(m.cpu.regs[5], 0x1234_5678, "RX_DATA0");
    assert_eq!(m.cpu.regs[6], 0xDDCC_BBAA, "RX_DATA1");
    assert_eq!(m.cpu.regs[7], 0, "FIFO drained after RX_POP");
    let can = m.bus.device::<CanController>().expect("controller attached");
    assert_eq!(can.tx_count(), 1);
    assert_eq!(can.rx_count(), 1);
}

#[test]
fn host_injected_remote_frame_interrupts_the_guest() {
    // The host enqueues a frame from a remote node before the run; the
    // guest sleeps in a spin loop until the RX IRQ fires.
    let src = "spin: b spin";
    let handler = Assembler::new(IsaMode::T2)
        .assemble(
            "movw r0, #0x2000
             movt r0, #0x4000
             ldr r1, [r0, #24]
             bkpt #1",
        )
        .unwrap();
    let mut m = machine_with_devices(
        vec![DeviceSpec::Can(CanConfig {
            base: CAN_BASE,
            irq: 1,
            node: 0,
            cycles_per_bit: 5,
            loopback: false,
            ..CanConfig::default()
        })],
        src,
    );
    m.load_flash(0x300, &handler.bytes);
    m.load_flash(4, &0x300u32.to_le_bytes()); // vector for irq 1
    {
        let can = m.bus.device_mut::<CanController>().expect("controller attached");
        can.host_enqueue(10, 3, alia_can::CanFrame::new(alia_can::CanId::Standard(0x77), &[1]));
    }
    m.bus.refresh_next_event();
    let r = m.run(1_000_000);
    assert_eq!(r.reason, StopReason::Bkpt(1));
    assert_eq!(m.cpu.regs[1], 0x77, "handler read the remote frame's id");
}

#[test]
fn subword_reads_of_patched_flash_remap_identically() {
    // A remapped flash word must serve patched bytes at every access
    // width, with and without a data cache in the path (the unified
    // remap point regression).
    for config in [MachineConfig::m3_like(), MachineConfig::high_end_like()] {
        let mut m = Machine::new(config);
        let addr = 0x840;
        m.load_flash(addr, &0x1111_1111u32.to_le_bytes());
        m.patch.set(0, addr, PatchKind::Remap(0xAABB_CCDD)).unwrap();
        assert_eq!(m.bus_read(addr, 4).unwrap().0, 0xAABB_CCDD, "word");
        assert_eq!(m.bus_read(addr, 2).unwrap().0, 0xCCDD, "low half");
        assert_eq!(m.bus_read(addr + 2, 2).unwrap().0, 0xAABB, "high half");
        assert_eq!(m.bus_read(addr, 1).unwrap().0, 0xDD, "byte 0");
        assert_eq!(m.bus_read(addr + 1, 1).unwrap().0, 0xCC, "byte 1");
        assert_eq!(m.bus_read(addr + 3, 1).unwrap().0, 0xAA, "byte 3");
        // Hits counted once per access, same as the word path.
        assert_eq!(m.patch.hits, 6);
    }
}

#[test]
fn subword_guest_loads_from_patched_flash_remap() {
    // Same regression through actual guest ldrb/ldrh instructions.
    let template = |addr: u32| {
        format!(
            "movw r0, #{}
             movt r0, #{}
             ldrb r2, [r0, #0]
             ldrh r3, [r0, #2]
             ldr r4, [r0, #0]
             bkpt #0",
            addr & 0xFFFF,
            addr >> 16
        )
    };
    let addr = 0x900u32;
    let mut m = Machine::new(MachineConfig::m3_like());
    let out = Assembler::new(IsaMode::T2).assemble(&template(addr)).unwrap();
    m.load_flash(0x100, &out.bytes);
    m.load_flash(addr, &0x2222_2222u32.to_le_bytes());
    m.patch.set(1, addr, PatchKind::Remap(0xCAFE_F00D)).unwrap();
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    let r = m.run(100_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert_eq!(m.cpu.regs[2], 0x0D, "ldrb");
    assert_eq!(m.cpu.regs[3], 0xCAFE, "ldrh of the high half");
    assert_eq!(m.cpu.regs[4], 0xCAFE_F00D, "ldr");
}

#[test]
fn bitband_accesses_hit_the_same_bit_at_every_width() {
    // Every access width through the alias maps to the same single bit
    // (the shared bit-band resolution point).
    let mut m = Machine::new(MachineConfig::m3_like());
    let bit = 11u32; // bit 3 of SRAM byte 1
    let alias = BITBAND_BASE + bit;
    for len in [1u32, 2, 4] {
        m.bus_write(alias, len, 1).unwrap();
        assert_eq!(m.sram.read(1, 1), 1 << 3, "width {len} set");
        assert_eq!(m.bus_read(alias, len).unwrap().0, 1, "width {len} read");
        m.bus_write(alias, len, 0).unwrap();
        assert_eq!(m.sram.read(1, 1), 0, "width {len} clear");
        assert_eq!(m.bus_read(alias, len).unwrap().0, 0);
    }
}

#[test]
fn device_state_survives_machine_clone() {
    // Machine (and its boxed devices) stay cloneable; clones diverge
    // independently.
    let mut config = MachineConfig::m3_like();
    config.devices = vec![DeviceSpec::Timer(TimerConfig::default())];
    let mut a = Machine::new(config);
    a.bus_write(TIMER_BASE + 4, 4, 100).unwrap();
    a.bus_write(TIMER_BASE, 4, 1).unwrap();
    let mut b = a.clone();
    let ra = a.run(50);
    let rb = b.run(50);
    assert_eq!(ra, rb, "clones replay identically");
}

/// A CAN guest program for the standalone vs one-node parity check.
struct CanProgram {
    name: &'static str,
    loopback: bool,
    /// Loaded at `0x100`, where the run starts.
    main: &'static str,
    /// `(irq, handler)` pairs; handler `i` is loaded at `0x300 + 0x100 * i`.
    handlers: &'static [(u32, &'static str)],
    /// Host-side setup through the controller before the run: a fault
    /// plan, injected remote traffic.
    setup: fn(&mut CanController),
}

/// Stages a one-byte frame with id 0x123, submits it, and sleeps until
/// the controller's error state reads bus-off. Shared by the burst and
/// recovery programs, which differ only in what follows.
macro_rules! tx_until_bus_off {
    ($tail:literal) => {
        concat!(
            "movw r0, #0x2000
             movt r0, #0x4000
             movw r1, #0x123
             str r1, [r0, #0]
             mov r1, #1
             str r1, [r0, #4]
             str r1, [r0, #8]
             str r1, [r0, #16]
             off: wfi
             ldr r1, [r0, #48]
             cmp r1, #2
             bne off
             ",
            $tail
        )
    };
}

/// Error IRQ handler (default `err_irq` 4): counts state transitions.
const COUNT_ERR: (u32, &str) = (4, "add r7, r7, #1\n bx lr");

/// A bit error every 8 bit times: every attempt of the lone frame is
/// corrupted until its node goes bus-off (32 attempts, ~2,100 bits).
fn error_burst(c: &mut CanController) {
    let mut plan = FaultPlan::new();
    for at in (0..4_000).step_by(8) {
        plan.inject_bit_error(at);
    }
    c.set_fault_plan(plan);
}

fn no_setup(_: &mut CanController) {}

fn can_programs() -> [CanProgram; 5] {
    [
        CanProgram {
            name: "loopback",
            loopback: true,
            // The polling round trip of `guest_loopback_can_frame_round_trip`.
            main: "cpsid
                 movw r0, #0x2000
                 movt r0, #0x4000
                 movw r1, #0x234
                 str r1, [r0, #0]
                 mov r1, #8
                 str r1, [r0, #4]
                 movw r1, #0x5678
                 movt r1, #0x1234
                 str r1, [r0, #8]
                 movw r1, #0xBBAA
                 movt r1, #0xDDCC
                 str r1, [r0, #12]
                 str r1, [r0, #16]
                 wait: ldr r2, [r0, #20]
                 cmp r2, #0
                 beq wait
                 ldr r3, [r0, #24]
                 ldr r4, [r0, #28]
                 ldr r5, [r0, #32]
                 ldr r6, [r0, #36]
                 str r2, [r0, #40]
                 ldr r7, [r0, #20]
                 bkpt #0",
            handlers: &[],
            setup: no_setup,
        },
        CanProgram {
            name: "host-injected",
            loopback: false,
            // Sleep until the RX handler has drained three frames.
            main: "sleep: wfi
                 cmp r7, #3
                 blt sleep
                 bkpt #0",
            handlers: &[(
                1,
                "movw r0, #0x2000
                 movt r0, #0x4000
                 rx: ldr r1, [r0, #20]
                 cmp r1, #0
                 beq done
                 ldr r1, [r0, #24]
                 add r6, r6, r1
                 ldr r1, [r0, #32]
                 add r5, r5, r1
                 str r1, [r0, #40]
                 add r7, r7, #1
                 b rx
                 done: bx lr",
            )],
            setup: |c| {
                // Two remote stations contend at bit 10; a third frame
                // arrives on an idle wire much later.
                c.host_enqueue(10, 3, CanFrame::new(CanId::Standard(0x77), &[1, 2]));
                c.host_enqueue(10, 5, CanFrame::new(CanId::Standard(0x33), &[3]));
                c.host_enqueue(400, 3, CanFrame::new(CanId::Standard(0x55), &[4, 5, 6]));
            },
        },
        CanProgram {
            name: "burst-to-bus-off",
            loopback: false,
            main: tx_until_bus_off!("bkpt #1"),
            handlers: &[COUNT_ERR],
            setup: error_burst,
        },
        CanProgram {
            name: "recovery",
            loopback: false,
            // At bus-off, request recovery and sleep until the rejoin
            // (error-active again) wakes the guest.
            main: tx_until_bus_off!(
                "str r1, [r0, #60]
                 on: wfi
                 ldr r1, [r0, #48]
                 cmp r1, #0
                 bne on
                 bkpt #1"
            ),
            handlers: &[COUNT_ERR],
            setup: error_burst,
        },
        CanProgram {
            name: "babble",
            loopback: false,
            // Nothing but a sleep: only the babbler's frame can wake it.
            main: "sleep: wfi
                 b sleep",
            handlers: &[(
                1,
                "movw r0, #0x2000
                 movt r0, #0x4000
                 ldr r5, [r0, #24]
                 bkpt #2",
            )],
            setup: |c| {
                let mut plan = FaultPlan::new();
                plan.add_babbler(BabbleArm {
                    node: 9,
                    id: CanId::Standard(0x42),
                    dlc: 2,
                    start: 500,
                    period: 1_000,
                    frames: 3,
                    corrupt: false,
                });
                c.set_fault_plan(plan);
            },
        },
    ]
}

const PARITY_HORIZON: u64 = 200_000;

/// Everything a CAN guest run leaves behind that the standalone and
/// one-node paths must agree on.
#[derive(Debug, PartialEq)]
struct CanOutcome {
    reason: StopReason,
    cycles: u64,
    regs: [u32; 8],
    /// The controller's register file, offsets 0 to 72.
    can_regs: Vec<u32>,
    deliveries: Vec<Delivery>,
    states: Vec<StateChange>,
}

/// A machine carrying `can`, with `p` loaded and its setup applied.
fn can_program_machine(p: &CanProgram, can: DeviceSpec) -> Machine {
    let mut m = machine_with_devices(vec![can], p.main);
    for (i, &(irq, src)) in p.handlers.iter().enumerate() {
        let at = 0x300 + 0x100 * i as u32;
        let out = Assembler::new(IsaMode::T2).assemble(src).expect("handler assembles");
        m.load_flash(at, &out.bytes);
        m.load_flash(irq * 4, &at.to_le_bytes());
    }
    (p.setup)(m.bus.device_mut::<CanController>().expect("controller attached"));
    m.bus.refresh_next_event();
    m
}

fn can_outcome(reason: StopReason, m: &mut Machine) -> CanOutcome {
    let can_regs = (0..=72).step_by(4).map(|off| m.bus_read(CAN_BASE + off, 4).unwrap().0).collect();
    let wire = m.bus.device::<CanController>().expect("controller attached").wire();
    CanOutcome {
        reason,
        cycles: m.cycles(),
        regs: m.cpu.regs[..8].try_into().unwrap(),
        can_regs,
        deliveries: wire.delivery_log(),
        states: wire.state_log(),
    }
}

fn parity_config(p: &CanProgram, cycles_per_bit: u64) -> CanConfig {
    CanConfig { cycles_per_bit, loopback: p.loopback, ..CanConfig::default() }
}

/// `p` on a standalone controller: its private wire, advanced by the
/// controller itself.
fn run_standalone(p: &CanProgram, cycles_per_bit: u64) -> CanOutcome {
    let mut m = can_program_machine(p, DeviceSpec::Can(parity_config(p, cycles_per_bit)));
    let r = m.run(PARITY_HORIZON);
    can_outcome(r.reason, &mut m)
}

/// `p` as the only node of a [`System`]: a shared wire, advanced by the
/// quantum scheduler.
fn run_one_node(p: &CanProgram, cycles_per_bit: u64) -> CanOutcome {
    let mut sys = System::new();
    let wire = sys.add_wire("can", cycles_per_bit);
    let spec = DeviceSpec::SharedCan(parity_config(p, cycles_per_bit), wire);
    sys.add_node("ecu", can_program_machine(p, spec));
    sys.run(PARITY_HORIZON);
    let reason = sys.node(0).halted().unwrap_or(StopReason::CycleLimit);
    can_outcome(reason, sys.node_mut(0).machine_mut())
}

#[test]
fn standalone_controller_matches_one_node_system() {
    let mut diverged = Vec::new();
    for p in &can_programs() {
        for cycles_per_bit in [1, 3, 4, 10] {
            let alone = run_standalone(p, cycles_per_bit);
            let system = run_one_node(p, cycles_per_bit);
            if alone != system {
                diverged.push(format!(
                    "{} @ {cycles_per_bit} cycles/bit:\n  standalone {alone:?}\n  one-node   {system:?}",
                    p.name
                ));
            }
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}

#[test]
fn parity_programs_reach_their_intended_ends() {
    // Pins what each parity program does at 4 cycles per bit, so the
    // parity test cannot pass by both paths failing the same way.
    let [loopback, injected, burst, recovery, babble] = can_programs();
    let o = run_standalone(&loopback, 4);
    assert_eq!((o.reason, o.cycles), (StopReason::Bkpt(0), 494));
    assert_eq!(o.regs[3], 0x234, "RX_ID");
    let o = run_standalone(&injected, 4);
    assert_eq!(o.reason, StopReason::Bkpt(0));
    assert_eq!(o.regs[6], 0x33 + 0x77 + 0x55, "sum of the remote ids");
    assert_eq!(o.deliveries.len(), 3);
    let o = run_standalone(&burst, 4);
    assert_eq!(o.reason, StopReason::Bkpt(1));
    assert_eq!(o.regs[7], 2, "passive, then bus-off");
    assert_eq!(o.can_regs[52 / 4], 256, "TEC at bus-off");
    let o = run_standalone(&recovery, 4);
    assert_eq!(o.reason, StopReason::Bkpt(1));
    assert_eq!(o.regs[7], 3, "passive, bus-off, then the rejoin");
    assert_eq!((o.can_regs[48 / 4], o.can_regs[52 / 4]), (0, 0), "active, TEC cleared");
    let o = run_standalone(&babble, 4);
    assert_eq!(o.reason, StopReason::Bkpt(2));
    assert_eq!(o.regs[5], 0x42, "RX_ID of the babble frame");
}

#[test]
fn private_wire_snapshot_is_isolated_from_the_live_machine() {
    // Snapshot a standalone loopback exchange with its frame in flight,
    // then put a stray frame on the live machine's wire: the restored
    // machine's wire never sees it, and the restored run repeats the
    // original exactly.
    let [loopback, ..] = can_programs();
    let mut m = can_program_machine(&loopback, DeviceSpec::Can(parity_config(&loopback, 3)));
    m.run_until(60);
    let can = m.bus.device::<CanController>().unwrap();
    assert_eq!((can.tx_count(), can.rx_count()), (1, 0), "snapshot mid-exchange");
    let log_at_snapshot = can.wire().delivery_log();
    let snap = m.snapshot();
    let first = m.run(PARITY_HORIZON);
    let original = can_outcome(first.reason, &mut m);
    assert_eq!(original.reason, StopReason::Bkpt(0));
    let stray = CanFrame::new(CanId::Standard(0x7FF), &[0xEE]);
    let live = m.bus.device_mut::<CanController>().unwrap();
    live.host_enqueue(original.cycles, 5, stray);
    live.settle_wire();
    assert!(live.wire().delivery_log().iter().any(|d| d.frame == stray));
    m.restore(&snap);
    let restored_wire = m.bus.device::<CanController>().unwrap().wire();
    assert_eq!(restored_wire.delivery_log(), log_at_snapshot, "no stray frame");
    let second = m.run(PARITY_HORIZON);
    let replay = can_outcome(second.reason, &mut m);
    assert_eq!(replay, original, "restored run repeats the original");
    assert!(replay.deliveries.iter().all(|d| d.frame != stray));
}

#[test]
fn standalone_controller_in_a_system_keeps_its_private_wire() {
    // The scheduler adopts only shared wires; a standalone controller
    // drives its own, and a forked system gets a copy of it.
    let [loopback, ..] = can_programs();
    let mut sys = System::new();
    sys.add_node(
        "standalone",
        can_program_machine(&loopback, DeviceSpec::Can(parity_config(&loopback, 4))),
    );
    assert!(sys.wires().is_empty(), "a private wire is not adopted");
    let mut fork = sys.fork();
    let wire_of = |s: &System| {
        s.node(0).machine().bus.device::<CanController>().unwrap().wire().clone()
    };
    assert!(!wire_of(&fork).same_wire(&wire_of(&sys)), "the fork has its own private wire");
    assert!(fork.wires().is_empty());
    fork.run(PARITY_HORIZON);
    assert_eq!(fork.node(0).halted(), Some(StopReason::Bkpt(0)));
    assert_eq!(fork.node(0).cycles(), 494, "same cycles as the standalone machine");
    assert_eq!(wire_of(&fork).deliveries_len(), 1);
    assert_eq!(wire_of(&sys).deliveries_len(), 0, "the original's wire is untouched");
}

//! Copy-on-write fork isolation: every branch of a fork tree must run
//! bit for bit like an unforked machine fed the same inputs — cycles,
//! registers, memory, flash and predecode statistics and the
//! `category::SEMANTIC` trace hash — whichever copy writes first, and
//! whether the page or cache chunk it writes is still shared or already
//! private.

mod support;

use alia_isa::{Assembler, IsaMode};
use alia_obs::{category, TraceSet};
use alia_sim::{
    FlashStats, Machine, MachineConfig, PredecodeStats, StopReason, System, SystemStop, SRAM_BASE,
};
use support::{asm, gateway_system};

/// Guest-visible stores (no revision bump: the copy-on-write store
/// path alone) and host writes (revision bump: the copy's caches go
/// too), each a 2- or 4-byte access, some straddling a page boundary.
#[derive(Debug, Clone, Copy)]
enum Poke {
    /// `Machine::bus_write` at `addr`.
    Bus { addr: u32, len: u32, value: u32 },
    /// `Sram::write` at `addr`.
    Host { addr: u32, len: u32, value: u32 },
    /// Flip `bit` of the flash word at `off` (invalidates lowered code).
    Flip { off: u32, bit: u32 },
}

fn poke(m: &mut Machine, p: Poke) {
    match p {
        Poke::Bus { addr, len, value } => {
            m.bus_write(addr, len, value).expect("mapped store");
        }
        Poke::Host { addr, len, value } => m.sram.write(addr - SRAM_BASE, len, value),
        Poke::Flip { off, bit } => {
            let word = m.flash.peek(off, 4);
            m.load_flash(off, &(word ^ 1 << bit).to_le_bytes());
        }
    }
}

/// SRAM words a fingerprint reads back: the sink's page-crossing
/// buffer, the straddled word, the stacks, and never-written memory.
const PROBES: [u32; 10] = [
    0x2000_0FF8,
    0x2000_0FFC,
    0x2000_1000,
    0x2000_1004,
    0x2000_1FFC,
    0x2000_2000,
    0x2000_7FF0,
    0x2000_7FF8,
    0x2000_4000,
    0x2000_0000,
];

#[derive(Debug, PartialEq)]
struct NodePrint {
    halted: Option<StopReason>,
    cycles: u64,
    instructions: u64,
    regs: [u32; 16],
    flash: FlashStats,
    predecode: PredecodeStats,
    memory: Vec<u32>,
}

fn node_print(m: &Machine, halted: Option<StopReason>) -> NodePrint {
    NodePrint {
        halted,
        cycles: m.cycles(),
        instructions: m.instructions(),
        regs: m.cpu.regs,
        flash: m.flash.stats(),
        predecode: m.predecode_stats(),
        memory: PROBES.iter().map(|&a| m.read_sram_word(a)).collect(),
    }
}

#[derive(Debug, PartialEq)]
struct SystemPrint {
    stop: SystemStop,
    nodes: Vec<NodePrint>,
    deliveries: Vec<usize>,
    semantic: u64,
}

fn system_print(sys: &System, stop: SystemStop) -> SystemPrint {
    SystemPrint {
        stop,
        nodes: sys
            .nodes()
            .iter()
            .map(|n| node_print(n.machine(), n.halted()))
            .collect(),
        deliveries: sys
            .wires()
            .iter()
            .map(alia_sim::SharedCanBus::deliveries_len)
            .collect(),
        semantic: sys.trace_set().fnv_hash(category::SEMANTIC),
    }
}

/// One leg of a branch: run the system to `until`, then poke `node`.
type Leg = (u64, usize, Poke);

const SINK: usize = 4;
/// A run still live here hung (a flash flip can do that).
const HORIZON: u64 = 200_000;

fn drive(sys: &mut System, legs: &[Leg]) {
    for &(until, node, p) in legs {
        sys.run(until);
        poke(sys.node_mut(node).machine_mut(), p);
    }
}

fn finish(mut sys: System) -> SystemPrint {
    let stop = sys.run(HORIZON).reason;
    system_print(&sys, stop)
}

fn fresh_system() -> System {
    let mut sys = gateway_system(&MachineConfig::m3_like());
    sys.set_trace_mask(category::SEMANTIC);
    sys
}

/// The unforked run of `legs` in order.
fn reference(legs: &[&[Leg]]) -> SystemPrint {
    let mut sys = fresh_system();
    for l in legs {
        drive(&mut sys, l);
    }
    finish(sys)
}

/// Two legs storing `a` then `b` into the same page: the first copies
/// the page if it is still shared, the second writes a private page.
fn twice(t: u64, node: usize, first: Poke, second: Poke) -> [Leg; 2] {
    [(t, node, first), (t + 700, node, second)]
}

#[test]
fn fork_of_a_fork_of_a_fork_matches_unforked_runs() {
    // The sink's buffer page (written by its RX handler before and
    // after the forks), its straddled pair of pages, and a sensor's
    // stack page; 2- and 4-byte stores straddling 4 KiB boundaries.
    let straddle4 = |v| Poke::Bus {
        addr: 0x2000_0FFE,
        len: 4,
        value: v,
    };
    let straddle2 = |v| Poke::Bus {
        addr: 0x2000_1FFF,
        len: 2,
        value: v,
    };
    let host4 = |v| Poke::Host {
        addr: 0x2000_1FFE,
        len: 4,
        value: v,
    };
    let stack = |v| Poke::Bus {
        addr: 0x2000_7FE0,
        len: 4,
        value: v,
    };
    // The low byte of a sensor's `movw r1, #id` (its CAN id).
    let id_bit = |bit| Poke::Flip { off: 0x210, bit };

    let a = twice(2_500, SINK, straddle4(0x1111_2222), straddle2(0x3344));
    let b = twice(4_000, SINK, straddle4(0xA5A5_0001), host4(0x0BAD_CAFE));
    let c = twice(3_800, SINK, straddle4(0x5A5A_0002), straddle2(0x7788));
    let d = twice(6_000, 0, stack(0xDEAD_0001), id_bit(3));
    let e = twice(6_000, 0, stack(0xDEAD_0002), host4(0x1234_5678));
    let f = twice(5_200, 1, stack(0xDEAD_0003), id_bit(6));

    let mut parent = fresh_system();
    drive(&mut parent, &a);
    let mut f1 = parent.fork();
    // The parent keeps running and writing while its forks exist, and
    // a second fork of it must see those writes.
    drive(&mut parent, &b);
    let late = parent.fork();
    drive(&mut f1, &c);
    let mut f2 = f1.fork();
    drive(&mut f1, &d);
    let mut f3 = f2.fork();
    drive(&mut f2, &e);
    drive(&mut f3, &f);

    let runs = [
        ("parent", finish(parent), reference(&[&a, &b])),
        (
            "second fork of the parent",
            finish(late),
            reference(&[&a, &b]),
        ),
        ("fork", finish(f1), reference(&[&a, &c, &d])),
        ("fork of fork", finish(f2), reference(&[&a, &c, &e])),
        ("fork of fork of fork", finish(f3), reference(&[&a, &c, &f])),
    ];
    for (name, got, want) in &runs {
        assert_eq!(got, want, "{name} diverged from its unforked reference");
    }
    // The branches really did diverge from one another.
    assert_ne!(runs[0].1.nodes[SINK].memory, runs[2].1.nodes[SINK].memory);
    assert_ne!(runs[3].1.semantic, runs[4].1.semantic);
}

#[test]
fn forks_that_never_write_share_everything_and_match() {
    let mut parent = fresh_system();
    parent.run(3_000);
    let forks: Vec<System> = (0..3).map(|_| parent.fork()).collect();
    let want = finish(parent);
    assert_eq!(
        want.stop,
        SystemStop::AllHalted,
        "the clean mission completes"
    );
    for f in forks {
        assert_eq!(finish(f), want);
    }
}

/// A T2 loop laid out so its wide `movw` straddles the flash page
/// boundary at 0x1000, loading a literal that straddles the one at
/// 0x2000 and storing across the SRAM page boundary at 0x2000_1000.
fn straddling_machine() -> Machine {
    let code = asm("movw r1, #0x1FFE
                    loop: movw r2, #0x0FFE
                    movt r2, #0x2000
                    ldr r3, [r1, #0]
                    add r4, r4, r3
                    ldr r5, [r2, #0]
                    add r5, r5, r4
                    str r5, [r2, #0]
                    ldrh r6, [r2, #1]
                    add r6, r6, #1
                    strh r6, [r2, #1]
                    add r0, r0, #1
                    cmp r0, #200
                    bne loop
                    bkpt #0");
    let mut m = Machine::m3_like();
    // `movw r1` occupies 0x0FFA..0x0FFE; the loop's `movw r2` then
    // sits at 0x0FFE..0x1002, across the page boundary.
    m.load_flash(0x0FFA, &code);
    m.load_flash(0x1FFC, &0x89AB_CDEFu32.to_le_bytes());
    m.load_flash(0x2000, &0x0123_4567u32.to_le_bytes());
    m.set_pc(0x0FFA);
    m.set_trace_mask(category::SEMANTIC);
    m
}

fn machine_print(m: &Machine) -> (NodePrint, u64) {
    let mut set = TraceSet::new();
    set.push_stream("m", m.tracer().events());
    (node_print(m, None), set.fnv_hash(category::SEMANTIC))
}

fn run_legs(m: &mut Machine, legs: &[(u64, Poke)]) {
    for &(until, p) in legs {
        m.run(until);
        poke(m, p);
    }
}

fn machine_reference(legs: &[&[(u64, Poke)]]) -> (NodePrint, u64) {
    let mut m = straddling_machine();
    for l in legs {
        run_legs(&mut m, l);
    }
    assert_eq!(m.run(1_000_000).reason, StopReason::Bkpt(0));
    machine_print(&m)
}

#[test]
fn straddling_fetches_loads_and_stores_fork_cleanly() {
    // Parent and fork store different values into the same pages —
    // flash (a flipped bit in the loop's own page: lowered code goes)
    // and SRAM (the straddled word, shared then private).
    let prefix = [(
        1_500u64,
        Poke::Bus {
            addr: 0x2000_1000,
            len: 2,
            value: 0x4242,
        },
    )];
    let left = [
        (
            2_000,
            Poke::Flip {
                off: 0x1FFC,
                bit: 20,
            },
        ),
        (
            2_600,
            Poke::Bus {
                addr: 0x2000_0FFE,
                len: 4,
                value: 0x0102_0304,
            },
        ),
        (
            3_100,
            Poke::Bus {
                addr: 0x2000_0FFF,
                len: 2,
                value: 0xBEEF,
            },
        ),
    ];
    let right = [
        (
            2_000,
            Poke::Flip {
                off: 0x1FFC,
                bit: 25,
            },
        ),
        (
            2_600,
            Poke::Host {
                addr: 0x2000_0FFE,
                len: 4,
                value: 0x0A0B_0C0D,
            },
        ),
        (
            3_100,
            Poke::Bus {
                addr: 0x2000_0FFF,
                len: 2,
                value: 0xF00D,
            },
        ),
    ];
    let mut parent = straddling_machine();
    run_legs(&mut parent, &prefix);
    let mut fork = parent.snapshot().to_machine();
    run_legs(&mut parent, &left);
    run_legs(&mut fork, &right);
    let mut grandchild = fork.snapshot().to_machine();
    for m in [&mut parent, &mut fork, &mut grandchild] {
        assert_eq!(m.run(1_000_000).reason, StopReason::Bkpt(0));
    }
    assert_eq!(machine_print(&parent), machine_reference(&[&prefix, &left]));
    assert_eq!(machine_print(&fork), machine_reference(&[&prefix, &right]));
    assert_eq!(machine_print(&grandchild), machine_print(&fork));
    assert_ne!(
        parent.cpu.regs[4], fork.cpu.regs[4],
        "the flips diverged the branches"
    );
}

#[test]
fn restore_rewinds_writes_to_shared_and_private_pages() {
    let mut m = straddling_machine();
    m.run(1_000);
    let snap = m.snapshot();
    let want = {
        let mut r = snap.to_machine();
        r.run(1_000_000);
        machine_print(&r).0
    };
    for _ in 0..2 {
        poke(
            &mut m,
            Poke::Bus {
                addr: 0x2000_0FFE,
                len: 4,
                value: 7,
            },
        );
        poke(
            &mut m,
            Poke::Flip {
                off: 0x0FFE,
                bit: 0,
            },
        );
        m.run(1_000_000);
        m.restore(&snap);
        m.run(1_000_000);
        assert_eq!(node_print(&m, None), want);
        m.restore(&snap);
    }
}

#[test]
fn a_fork_repairs_poisoned_tcm_like_an_unforked_machine() {
    let program = asm("movw r0, #0x0040
                       movt r0, #0x1000
                       ldr r1, [r0, #0]
                       ldr r2, [r0, #0]
                       bkpt #0");
    let build = || {
        let mut m = Machine::new(MachineConfig::high_end_like());
        m.load_flash(0x100, &program);
        m.set_pc(0x100);
        let tcm = m.tcm.as_mut().expect("high_end_like has TCM");
        tcm.write(0x40, 4, 0xCAFE_F00D);
        tcm.inject_bit_flip(0x40, 5);
        m
    };
    let mut reference = build();
    assert_eq!(reference.run(10_000).reason, StopReason::Bkpt(0));

    let parent = build();
    let mut child = parent.snapshot().to_machine();
    assert_eq!(child.run(10_000).reason, StopReason::Bkpt(0));
    assert_eq!(child.cpu.regs, reference.cpu.regs);
    assert_eq!(child.cpu.regs[1], 0xCAFE_F00D, "repaired on the first read");
    assert_eq!(child.cycles(), reference.cycles(), "same repair stall");
    let child_tcm = child.tcm.as_ref().unwrap();
    assert_eq!(child_tcm.repairs(), 1);
    assert!(!child_tcm.is_poisoned(0x40));
    let mut parent = parent;
    let parent_tcm = parent.tcm.as_mut().unwrap();
    assert!(
        parent_tcm.is_poisoned(0x40),
        "the parent still holds the poison"
    );
    assert_eq!(parent_tcm.repairs(), 0);
    let stall = parent_tcm.repair_cycles;
    assert_eq!(
        parent_tcm.read(0x40, 4),
        (0xCAFE_F00D, 1 + stall),
        "and repairs it itself"
    );
}

#[test]
fn arm7_a32_forks_match_unforked_runs() {
    // The A32 fetch path reads whole words, here across a flash page
    // boundary; each copy stores its own value into one SRAM word.
    let code = Assembler::new(IsaMode::A32)
        .assemble(
            "mov r0, #0
             mov r1, #0x20000000
             loop: ldr r2, [r1, #0]
             add r2, r2, r0
             str r2, [r1, #0]
             add r0, r0, #1
             cmp r0, #300
             bne loop
             bkpt #0",
        )
        .expect("assembles")
        .bytes;
    let build = || {
        let mut m = Machine::arm7_like(IsaMode::A32);
        m.load_flash(0xFF8, &code);
        m.set_pc(0xFF8);
        m.run(800);
        m
    };
    let finish = |mut m: Machine, value: u32| {
        m.write_sram_word(0x2000_0000, value);
        assert_eq!(m.run(1_000_000).reason, StopReason::Bkpt(0));
        node_print(&m, None)
    };
    let parent = build();
    let fork = parent.snapshot().to_machine();
    let (got_fork, got_parent) = (finish(fork, 9), finish(parent, 5));
    assert_eq!(got_parent, finish(build(), 5));
    assert_eq!(got_fork, finish(build(), 9));
    assert_eq!(got_fork.memory[9] - got_parent.memory[9], 4);
}

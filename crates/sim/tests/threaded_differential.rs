//! Differential tests: the threaded-code block engine must be
//! invisible.
//!
//! Every scenario runs across the 2^2 matrix of host-acceleration
//! tiers — predecode cache × block engine (blocks run as the threaded
//! code they are lowered to when recorded) — and asserts bit-identical
//! architectural outcomes against the all-off interpreter:
//! `StopReason`, cycles, instruction counts, registers, flags, flash
//! streaming statistics, flash-patch accounting and the exact
//! per-interrupt pend/entry cycle stamps. Scenarios target the
//! threaded engine's sharp edges specifically: superinstruction fusion
//! patterns, IRQ storms landing *between* the two halves of fused
//! pairs, IT blocks running inside threaded code, self-modifying code
//! rewriting the inside of a fused pair of an executing block,
//! `run_until` bounds splitting threaded blocks mid-flight, flash-patch
//! toggles demoting blocks, and device-revision stamps moving between a
//! block's recording and its chained successor dispatch.

use std::any::Any;

use alia_isa::{Assembler, IsaMode};
use alia_sim::{
    Device, DeviceCtx, Machine, MachineConfig, PatchKind, RunResult, StopReason, MMIO_BASE,
    SRAM_BASE,
};

/// Asserts both machines are architecturally identical right now,
/// including exact IRQ pend/entry stamps.
fn assert_state_eq(on: &Machine, off: &Machine, what: &str) {
    assert_eq!(on.cycles(), off.cycles(), "{what}: cycles diverged");
    assert_eq!(on.instructions(), off.instructions(), "{what}: instret diverged");
    assert_eq!(on.cpu.pc, off.cpu.pc, "{what}: pc diverged");
    assert_eq!(on.cpu.regs, off.cpu.regs, "{what}: registers diverged");
    assert_eq!(on.cpu.flags, off.cpu.flags, "{what}: flags diverged");
    assert_eq!(on.patch.hits, off.patch.hits, "{what}: patch hits diverged");
    assert_eq!(on.flash.stats(), off.flash.stats(), "{what}: flash stats diverged");
    assert_eq!(on.svc_count(), off.svc_count(), "{what}: svc count diverged");
    assert_eq!(on.latencies(), off.latencies(), "{what}: IRQ stamps diverged");
}

/// Applies one tier combination (bit 0 = predecode, bit 1 = blocks).
fn set_tiers(m: &mut Machine, mask: u32) {
    m.set_predecode_enabled(mask & 1 != 0);
    m.set_block_cache_enabled(mask & 2 != 0);
}

/// Tier combinations: predecode × blocks.
const TIERS: u32 = 4;

/// Runs every tier combination to completion against the all-off
/// baseline, asserting bit-identity for each. Returns the baseline
/// result and the all-on machine (for stats assertions).
fn run_matrix(build: &dyn Fn() -> Machine, limit: u64, what: &str) -> (RunResult, Machine) {
    let mut base = build();
    set_tiers(&mut base, 0);
    let r0 = base.run(limit);
    let mut all_on = None;
    for mask in 1..TIERS {
        let mut m = build();
        set_tiers(&mut m, mask);
        let r = m.run(limit);
        let tag = format!("{what} [combo {mask:02b}]");
        assert_eq!(r, r0, "{tag}: RunResult diverged");
        assert_state_eq(&m, &base, &tag);
        if mask == TIERS - 1 {
            all_on = Some(m);
        }
    }
    let all_on = all_on.unwrap();
    (r0, all_on)
}

fn presets() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("arm7_a32", MachineConfig::arm7_like(IsaMode::A32)),
        ("arm7_t16", MachineConfig::arm7_like(IsaMode::T16)),
        ("m3_t2", MachineConfig::m3_like()),
        ("high_end_t2", MachineConfig::high_end_like()),
    ]
}

fn machine_with(config: &MachineConfig, src: &str) -> Machine {
    let out = Assembler::new(config.mode).assemble(src).expect("program assembles");
    let mut m = Machine::new(config.clone());
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

// ---------------------------------------------------------------------
// Fusion-pattern programs
// ---------------------------------------------------------------------

/// `add`+`cmp` fusion (the loop-counter idiom) with a terminal `bne`.
const ALU_CMP_SRC: &str = "mov r0, #0
     mov r2, #200
     loop: add r0, r0, #1
     cmp r0, r2
     bne loop
     bkpt #0";

/// `cmp`+branch fusion: a `mov` spacer keeps the compare off the even
/// pair boundary the greedy fuser would otherwise give to `add`+`cmp`.
const CMP_B_SRC: &str = "mov r0, #0
     mov r2, #200
     loop: add r0, r0, #1
     mov r7, r7
     cmp r0, r2
     bne loop
     bkpt #0";

/// ALU+branch fusion: the loop body ends `add` + unconditional `b`
/// backedge, with the exit test fused `cmp`+`beq` at the head.
const ALU_B_SRC: &str = "mov r0, #0
     mov r2, #200
     head: cmp r0, r2
     beq done
     add r0, r0, #1
     b head
     done: bkpt #0";

/// `ldr`+ALU fusion (load-accumulate). Needs `movw`/`movt`, so it only
/// runs on the T2 presets.
fn ldr_alu_src() -> String {
    let template = |addr: u32| {
        format!(
            "movw r1, #{}
             movt r1, #{}
             mov r0, #0
             mov r6, #0
             loop: ldr r3, [r1, #0]
             add r6, r6, r3
             add r0, r0, #1
             cmp r0, #150
             bne loop
             bkpt #0
             .align 4
             lit: .word 7",
            addr & 0xFFFF,
            addr >> 16
        )
    };
    let probe = Assembler::new(IsaMode::T2).assemble(&template(0)).unwrap();
    let lit = 0x100 + probe.symbols["lit"];
    let out = template(lit);
    let check = Assembler::new(IsaMode::T2).assemble(&out).unwrap();
    assert_eq!(check.symbols, probe.symbols, "layout must be immediate-independent");
    out
}

#[test]
fn matrix_fusion_loops_identical_across_presets() {
    for (name, config) in presets() {
        for (pat, src) in
            [("alu_cmp", ALU_CMP_SRC), ("cmp_b", CMP_B_SRC), ("alu_b", ALU_B_SRC)]
        {
            let what = format!("{pat} on {name}");
            let (r, all_on) = run_matrix(&|| machine_with(&config, src), 1_000_000, &what);
            assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
            let stats = all_on.predecode_stats();
            assert!(stats.threaded_dispatches > 0, "{what}: threaded engine never ran");
            assert!(stats.fused_pairs > 0, "{what}: no pair fused");
        }
    }
}

#[test]
fn matrix_ldr_alu_fusion_identical() {
    let src = ldr_alu_src();
    for (name, config) in presets() {
        if config.mode != IsaMode::T2 {
            continue; // movw/movt address materialization is T2-only
        }
        let what = format!("ldr_alu on {name}");
        let (r, all_on) = run_matrix(&|| machine_with(&config, &src), 1_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        let stats = all_on.predecode_stats();
        assert!(stats.threaded_dispatches > 0, "{what}: threaded engine never ran");
        assert!(stats.fused_pairs > 0, "{what}: no pair fused");
        assert_eq!(all_on.cpu.regs[6], 150 * 7, "{what}: load-accumulate checksum");
    }
}

#[test]
fn matrix_generic_fallback_instructions_identical() {
    // Instructions the specializer leaves on the generic handler —
    // multiplies, bitfields, shifts, IT blocks — mixed into a hot loop:
    // the threaded block carries them via `h_generic` and must stay
    // bit-identical.
    let src = "mov r0, #0
         mov r2, #120
         mov r4, #3
         loop: add r0, r0, #1
         mul r5, r0, r4
         ubfx r6, r5, #1, #7
         lsl r7, r6, #2
         it eq
         add r8, r8, #1
         cmp r0, r2
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();
    let (r, all_on) = run_matrix(&|| machine_with(&config, src), 1_000_000, "generic mix");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert!(all_on.predecode_stats().threaded_dispatches > 0);
}

// ---------------------------------------------------------------------
// IRQ storms landing between fused-pair halves
// ---------------------------------------------------------------------

/// Schedules a dense sweep of precise-cycle interrupts across a
/// fusion-pattern loop and asserts the pend/entry stamps are identical
/// with the block engine on and off. The prime strides walk the pend
/// cycle through every phase of the loop period, so interrupts land
/// between the two halves of every fused pair.
fn irq_sweep(src: &str, what: &str) {
    for stride in [7u64, 11, 37] {
        let build = || {
            let main = Assembler::new(IsaMode::T2).assemble(src).unwrap();
            let handler =
                Assembler::new(IsaMode::T2).assemble("add r5, r5, #1\n bx lr").unwrap();
            let mut m = Machine::new(MachineConfig::m3_like());
            m.load_flash(0x100, &main.bytes);
            m.load_flash(0x300, &handler.bytes);
            m.load_flash(0, &0x300u32.to_le_bytes());
            m.set_pc(0x100);
            m.cpu.set_sp(SRAM_BASE + 0x8000);
            for k in 0..64u64 {
                m.schedule_irq(150 + stride * k, 0);
            }
            m
        };
        let what = format!("{what} stride {stride}");
        let (r, all_on) = run_matrix(&build, 10_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        let stats = all_on.predecode_stats();
        assert!(stats.threaded_dispatches > 0, "{what}: threaded engine never ran");
        // Same-line pends coalesce while the handler runs, so fewer
        // observations than schedules is expected — but the sweep must
        // have really stormed the loop.
        assert!(all_on.latencies().len() >= 16, "{what}: too few interrupts observed");
    }
}

#[test]
fn fused_alu_cmp_irq_storm_identical() {
    irq_sweep(ALU_CMP_SRC, "irq alu_cmp");
}

#[test]
fn fused_cmp_b_irq_storm_identical() {
    irq_sweep(CMP_B_SRC, "irq cmp_b");
}

#[test]
fn fused_alu_b_irq_storm_identical() {
    irq_sweep(ALU_B_SRC, "irq alu_b");
}

#[test]
fn fused_ldr_alu_irq_storm_identical() {
    irq_sweep(&ldr_alu_src(), "irq ldr_alu");
}

// ---------------------------------------------------------------------
// IT blocks inside threaded code (the codegen select shape)
// ---------------------------------------------------------------------

/// A hot loop shaped like the T2 codegen select (`cmp; ite; mov; mov`)
/// inside a counted loop: the `it` header and both covered `mov`s sit
/// mid-block. Even passes take the `then` arm, odd passes the `else`.
const IT_SELECT_SRC: &str = "mov r0, #0
     mov r2, #150
     mov r5, #0
     loop: add r0, r0, #1
     and r4, r0, #1
     cmp r4, #0
     ite eq
     it_then: mov r3, #7
     it_else: mov r3, #9
     add r5, r5, r3
     cmp r0, r2
     bne loop
     bkpt #0";

/// Instructions in the `loop` body of [`IT_SELECT_SRC`].
const IT_SELECT_BODY: u64 = 9;

/// Handler address for the IRQ sweeps (vector 0 points here).
const IRQ_HANDLER: u32 = 0x300;

/// The select loop on the M3 preset, with one line-0 interrupt due at
/// each cycle of `irqs`.
fn it_select_machine(irqs: &[u64]) -> Machine {
    let main = Assembler::new(IsaMode::T2).assemble(IT_SELECT_SRC).unwrap();
    let handler = Assembler::new(IsaMode::T2).assemble("add r6, r6, #1\n bx lr").unwrap();
    let mut m = Machine::new(MachineConfig::m3_like());
    m.load_flash(0x100, &main.bytes);
    m.load_flash(IRQ_HANDLER, &handler.bytes);
    m.load_flash(0, &IRQ_HANDLER.to_le_bytes());
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    for &cycle in irqs {
        m.schedule_irq(cycle, 0);
    }
    m
}

/// Precise-cycle interrupt plan for the select loop: on every
/// `stride`-th pass, one interrupt due exactly at the boundary before a
/// covered entry (alternating the two), so it pends after the `it`
/// header has loaded the IT queue. Found by stepping a per-step machine
/// that takes each interrupt as it is planned — a fixed-period sweep
/// phase-locks with the handler and never reaches the covered entries.
fn it_select_irq_plan(stride: u32) -> Vec<u64> {
    let main = Assembler::new(IsaMode::T2).assemble(IT_SELECT_SRC).unwrap();
    let at = |label: &str| 0x100 + main.symbols[label];
    let covered = [at("it_then"), at("it_else")];
    let mut m = it_select_machine(&[]);
    set_tiers(&mut m, 0);
    let (mut plan, mut passes, mut armed) = (Vec::new(), 0u32, None);
    loop {
        let pc = m.cpu.pc;
        if pc == at("loop") {
            passes += 1;
            armed = (passes % stride == 0).then(|| covered[(passes / stride % 2) as usize]);
        }
        if armed == Some(pc) {
            armed = None;
            plan.push(m.cycles());
            m.schedule_irq(m.cycles(), 0);
        }
        if let Some(stop) = m.step() {
            assert_eq!(stop, StopReason::Bkpt(0));
            return plan;
        }
    }
}

#[test]
fn it_select_loop_runs_inside_threaded_code() {
    let (r, all_on) = run_matrix(&|| it_select_machine(&[]), 1_000_000, "it select");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert_eq!(all_on.cpu.regs[5], 75 * 7 + 75 * 9, "select checksum");
    let stats = all_on.predecode_stats();
    assert_eq!(stats.block_instrs, 0, "no block runs entry-at-a-time");
    // The `it` header no longer ends a block: the whole body, header
    // and covered entries included, is one lowered block.
    let hottest = all_on.block_profile()[0];
    assert_eq!(u64::from(hottest.1), IT_SELECT_BODY, "loop body split at the it header");
    // Only the prologue with the first pass (recorded as one block from
    // the entry point), the second pass (recording the body's own
    // block) and the final `bkpt` run per-step; every later pass,
    // covered `mov`s included, is threaded.
    let stepped = r.instructions - stats.threaded_instrs;
    assert!(
        stepped <= 3 + 2 * IT_SELECT_BODY + 1,
        "{stepped} of {} instructions ran per-step",
        r.instructions
    );
}

#[test]
fn it_select_irq_between_header_and_covered_identical() {
    let main = Assembler::new(IsaMode::T2).assemble(IT_SELECT_SRC).unwrap();
    let covered = [0x100 + main.symbols["it_then"], 0x100 + main.symbols["it_else"]];
    for stride in [3u32, 5, 7] {
        let what = format!("it select irq every {stride} passes");
        let plan = it_select_irq_plan(stride);
        let (r, all_on) = run_matrix(&|| it_select_machine(&plan), 1_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        assert_eq!(all_on.latencies().len(), plan.len(), "{what}: every planned IRQ taken");
        let stats = all_on.predecode_stats();
        assert_eq!(stats.block_instrs, 0, "{what}");
        assert!(stats.threaded_dispatches > 0, "{what}: never threaded");
        // Step the per-step reference to prove each covered entry really
        // had an interrupt taken in front of it.
        let mut m = it_select_machine(&plan);
        set_tiers(&mut m, 0);
        let mut landed = [0u32; 2];
        loop {
            let pc = m.cpu.pc;
            let stop = m.step();
            if m.cpu.pc == IRQ_HANDLER {
                if let Some(i) = covered.iter().position(|&c| c == pc) {
                    landed[i] += 1;
                }
            }
            if let Some(stop) = stop {
                assert_eq!(stop, StopReason::Bkpt(0), "{what}");
                break;
            }
        }
        assert_eq!(m.cycles(), r.cycles, "{what}: stepping reference diverged");
        assert!(landed.iter().all(|&n| n >= 4), "{what}: landings {landed:?}");
    }
}

#[test]
fn it_select_run_until_bounds_identical() {
    // Prime-stride bounds stop execution at every phase of the body,
    // including right after the `it` header: the next run enters with
    // the IT queue non-empty and must take the covered entries
    // per-step, never through a block that starts there.
    for stride in [5u64, 7, 11] {
        let mut base = it_select_machine(&[]);
        set_tiers(&mut base, 0);
        let mut on = it_select_machine(&[]);
        let mut bound = 0;
        loop {
            bound += stride;
            let want = base.run_until(bound);
            let got = on.run_until(bound);
            let tag = format!("stride {stride} bound {bound}");
            assert_eq!(got, want, "{tag}: RunResult diverged");
            assert_state_eq(&on, &base, &tag);
            if want.reason != StopReason::CycleLimit {
                assert_eq!(want.reason, StopReason::Bkpt(0), "{tag}");
                break;
            }
        }
        assert!(on.predecode_stats().threaded_dispatches > 0, "stride {stride}: never threaded");
    }
}

#[test]
fn it_header_at_block_cap_chains_per_step_identical() {
    // 60 filler `mov`s put the `ite` header on the 64th entry of the
    // loop's block (the prologue's `b` makes the body record from
    // `loop`), so the block is cut at the cap with the IT queue loaded. The successor block starts at the first covered `mov` and
    // was lowered as if unpredicated: the chain hop must hand the
    // covered entries to the per-step path instead of dispatching it.
    let filler = "mov r7, r7\n".repeat(60);
    let src = format!(
        "mov r0, #0
         mov r5, #0
         b loop
         loop: add r0, r0, #1
         {filler}
         and r4, r0, #1
         cmp r4, #0
         ite eq
         mov r3, #7
         mov r3, #9
         add r5, r5, r3
         cmp r0, #40
         bne loop
         bkpt #0"
    );
    let (r, all_on) =
        run_matrix(&|| machine_with(&MachineConfig::m3_like(), &src), 1_000_000, "it at cap");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    assert_eq!(all_on.cpu.regs[5], 20 * 7 + 20 * 9, "select checksum");
    let stats = all_on.predecode_stats();
    assert!(stats.threaded_dispatches > 0, "the capped block never ran threaded");
    let main = Assembler::new(IsaMode::T2).assemble(&src).unwrap();
    let body = all_on.block_profile().into_iter().find(|b| b.0 == 0x100 + main.symbols["loop"]);
    assert_eq!(body.map(|b| b.1), Some(64), "the loop block must end at the cap");
}

// ---------------------------------------------------------------------
// Self-modifying code inside a fused pair of an executing block
// ---------------------------------------------------------------------

#[test]
fn smc_inside_fused_pair_of_promoted_block_identical() {
    // Two-phase SRAM program. Phase 1 (the first 12 passes) stores to a
    // scratch word, so the loop block stays valid and runs as threaded
    // code. At pass 12 the store target flips
    // to the `patched` instruction — the *first half of the fused
    // `add`+`cmp` pair* later in the same block. The armed store runs
    // inside the threaded block, moves the code-write generation, and
    // the engine must split before the now-stale fused pair executes;
    // the stored halfword alternates between `add r6, r6, #1` and
    // `add r6, r6, #5`, so a single stale execution shows in r6.
    let code_base = SRAM_BASE + 0x400;
    let scratch = SRAM_BASE + 0x100;
    let mode = IsaMode::T2;
    let enc = |src: &str| {
        let out = Assembler::new(mode).assemble(&format!("{src}\n nop")).unwrap();
        u32::from(u16::from_le_bytes([out.bytes[0], out.bytes[1]]))
    };
    let h0 = enc("add r6, r6, #1"); // the assembled original
    let h1 = enc("add r6, r6, #5");
    let passes = 28u32;
    let arm_at = 12u32;
    let template = |patched: u32| {
        format!(
            "movw r1, #{scratch_lo}
             movt r1, #{scratch_hi}
             movw r10, #{patched_lo}
             movt r10, #{patched_hi}
             movw r2, #{h1}
             movw r4, #{mask}
             mov r0, #0
             mov r6, #0
             b mloop
             arm: mov r1, r10
             b mloop
             mloop: strh r2, [r1, #0]
             eor r2, r2, r4
             add r0, r0, #1
             patched: add r6, r6, #1
             cmp r0, #{passes}
             beq done
             cmp r0, #{arm_at}
             beq arm
             b mloop
             done: bkpt #0",
            scratch_lo = scratch & 0xFFFF,
            scratch_hi = scratch >> 16,
            patched_lo = patched & 0xFFFF,
            patched_hi = patched >> 16,
            mask = h0 ^ h1,
        )
    };
    let probe = Assembler::new(mode).assemble(&template(0)).unwrap();
    let patched = code_base + probe.symbols["patched"];
    let out = Assembler::new(mode).assemble(&template(patched)).unwrap();
    assert_eq!(out.symbols, probe.symbols, "layout must be immediate-independent");
    let build = || {
        let mut m = Machine::new(MachineConfig::m3_like());
        m.load_sram(code_base, &out.bytes);
        m.set_pc(code_base);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        m
    };
    let (r, all_on) = run_matrix(&build, 1_000_000, "smc_fused");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let stats = all_on.predecode_stats();
    assert!(stats.threaded_dispatches > 0, "threaded engine never ran");
    assert!(stats.demotions > 0, "the armed store must demote the executing block");
    // Phase 1 runs the original +1; phase 2 alternates the two
    // encodings — at least one +5 must have executed.
    assert!(
        all_on.cpu.regs[6] > passes,
        "no rewritten encoding ever executed (r6 = {})",
        all_on.cpu.regs[6]
    );
}

// ---------------------------------------------------------------------
// run_until splits and flash-patch toggles mid-threaded-block
// ---------------------------------------------------------------------

#[test]
fn run_until_splits_and_patch_toggles_mid_threaded_block_identical() {
    // Bounded runs park execution mid-block (including mid-fused-pair
    // budget splits); between bounds the host toggles a flash-patch
    // remap over the loop's literal, which moves the generation stamp
    // and demotes the loop block. Resuming must refetch under the
    // new generation with cycles identical to the all-off interpreter.
    let template = |addr: u32| {
        format!(
            "movw r2, #{}
             movt r2, #{}
             mov r0, #0
             mov r6, #0
             loop: ldr r1, [r2, #0]
             add r6, r6, r1
             add r0, r0, #1
             cmp r0, #200
             bne loop
             bkpt #0
             .align 4
             lit: .word 0x00000001",
            addr & 0xFFFF,
            addr >> 16
        )
    };
    let config = MachineConfig::m3_like();
    let probe = Assembler::new(config.mode).assemble(&template(0)).unwrap();
    let lit_addr = 0x100 + probe.symbols["lit"];
    let out = Assembler::new(config.mode).assemble(&template(lit_addr)).unwrap();
    let build = |mask: u32| {
        let mut m = Machine::new(config.clone());
        m.load_flash(0x100, &out.bytes);
        m.set_pc(0x100);
        m.cpu.set_sp(SRAM_BASE + 0x8000);
        set_tiers(&mut m, mask);
        m
    };
    let mut base = build(0);
    let mut machines: Vec<Machine> = (1..TIERS).map(build).collect();
    let bounds: Vec<u64> = (1..40).map(|i| 83 * i + (i % 7)).collect();
    for (i, bound) in bounds.iter().enumerate() {
        let want = base.run_until(*bound);
        for (j, m) in machines.iter_mut().enumerate() {
            let got = m.run_until(*bound);
            let tag = format!("bound[{i}]={bound} combo {:02b}", j + 1);
            assert_eq!(got, want, "{tag}: RunResult diverged");
            assert_state_eq(m, &base, &tag);
        }
        if want.reason != StopReason::CycleLimit {
            break;
        }
        // Toggle only every 8th bound: each toggle moves the stamp and
        // demotes, so the loop block gets quiet stretches to re-record
        // and run threaded between them.
        if i % 8 == 7 {
            let toggle = |m: &mut Machine| {
                if i % 16 == 7 {
                    m.patch.set(0, lit_addr, PatchKind::Remap(0x40)).unwrap();
                } else {
                    m.patch.clear(0).unwrap();
                }
            };
            toggle(&mut base);
            machines.iter_mut().for_each(toggle);
        }
    }
    let want = base.run(1_000_000);
    assert_eq!(want.reason, StopReason::Bkpt(0));
    for (j, m) in machines.iter_mut().enumerate() {
        let got = m.run(1_000_000);
        assert_eq!(got, want, "final run combo {:02b}", j + 1);
        assert_state_eq(m, &base, "final");
    }
    let stats = machines[TIERS as usize - 2].predecode_stats(); // combo 11
    assert!(stats.threaded_dispatches > 0, "threaded engine never ran");
    assert!(stats.demotions > 0, "patch toggles must demote cached blocks");
}

// ---------------------------------------------------------------------
// Device-revision stamps vs block chaining (satellite regression)
// ---------------------------------------------------------------------

/// A device whose revision counter moves on every register write — the
/// stand-in for any device state that can change what instruction
/// fetches observe.
#[derive(Debug, Clone, Default)]
struct RevDevice {
    rev: u64,
    last: u32,
    writes: u64,
}

const REV_DEVICE_BASE: u32 = MMIO_BASE + 0x8000;

impl Device for RevDevice {
    fn name(&self) -> &'static str {
        "revdev"
    }
    fn read32(&mut self, _off: u32, _ctx: &mut DeviceCtx<'_>) -> u32 {
        self.last
    }
    fn write32(&mut self, _off: u32, value: u32, _ctx: &mut DeviceCtx<'_>) {
        self.last = value;
        self.writes += 1;
        self.rev = self.rev.wrapping_add(1);
    }
    fn revision(&self) -> u64 {
        self.rev
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn rev_device_machine(src: &str) -> Machine {
    let out = Assembler::new(IsaMode::T2).assemble(src).unwrap();
    let mut m = Machine::new(MachineConfig::m3_like());
    m.bus.attach(REV_DEVICE_BASE, 0x100, Box::new(RevDevice::default()));
    m.bus.refresh_next_event();
    m.load_flash(0x100, &out.bytes);
    m.set_pc(0x100);
    m.cpu.set_sp(SRAM_BASE + 0x8000);
    m
}

#[test]
fn device_revision_bump_between_record_and_chained_dispatch_identical() {
    // The guest bumps a device revision on every loop pass: each
    // chained successor dispatch happens under a stamp older than the
    // one its block was recorded with, so the chain hint must be
    // re-validated (split + re-record), never followed into a stale
    // block. All tier combinations must agree bit-for-bit, including
    // the device's own observed write stream.
    let src = format!(
        "movw r1, #{lo}
         movt r1, #{hi}
         mov r0, #0
         loop: str r0, [r1, #0]
         add r0, r0, #1
         ldr r3, [r1, #0]
         add r6, r6, r3
         cmp r0, #40
         bne loop
         bkpt #0",
        lo = REV_DEVICE_BASE & 0xFFFF,
        hi = REV_DEVICE_BASE >> 16,
    );
    let (r, all_on) = run_matrix(&|| rev_device_machine(&src), 1_000_000, "revdev");
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let dev = all_on.bus.device::<RevDevice>().expect("device attached");
    assert_eq!(dev.writes, 40, "every pass must reach the device");
    assert_eq!(all_on.cpu.regs[6], (0..40).sum::<u32>(), "read-back checksum");
    // The revision moves mid-pass, so every block recorded in one pass
    // is cleared by the stamp change before it could be dispatched —
    // the differential would be vacuous if a stale block *did* run.
    let stats = all_on.predecode_stats();
    assert!(stats.blocks_built > 2, "revision churn must force re-records");
    assert_eq!(
        stats.threaded_dispatches, 0,
        "a block whose stamp moves every pass must never be dispatched"
    );
}

#[test]
fn host_side_revision_bump_demotes_promoted_block_identical() {
    // Host-side variant: the loop touches no device, runs threaded, and
    // *then* the host moves the device revision between steps — exactly
    // the window between a block's recording and its next chained
    // dispatch. The cached block must be invalidated, not chained.
    let src = "mov r0, #0
         mov r2, #400
         loop: add r0, r0, #1
         cmp r0, r2
         bne loop
         bkpt #0";
    let build = || rev_device_machine(src);
    let mut on = build();
    let mut off = build();
    off.set_block_cache_enabled(false);
    let bump = |m: &mut Machine| {
        let d = m.bus.device_mut::<RevDevice>().expect("device attached");
        d.rev = d.rev.wrapping_add(1);
        m.bus.refresh_next_event();
    };
    let mut stop = None;
    for chunk in 0..10_000u64 {
        // Long quiet stretches let the loop run threaded; each bump then
        // lands between a recording and its next chained dispatch.
        let bound = 449 * (chunk + 1);
        let a = on.run_until(bound);
        let b = off.run_until(bound);
        assert_eq!(a, b, "diverged at chunk {chunk}");
        assert_state_eq(&on, &off, &format!("chunk {chunk}"));
        if a.reason != StopReason::CycleLimit {
            stop = Some(a.reason);
            break;
        }
        bump(&mut on);
        bump(&mut off);
    }
    assert_eq!(stop, Some(StopReason::Bkpt(0)));
    let stats = on.predecode_stats();
    assert!(stats.threaded_dispatches > 0, "threaded engine never ran");
    assert!(stats.demotions > 0, "every bump must demote the loop block");
}

// ---------------------------------------------------------------------
// Randomized corpus across the full matrix
// ---------------------------------------------------------------------

#[test]
fn matrix_randomized_programs_identical() {
    // The deterministic xorshift ALU corpus from the earlier
    // differential suites, replayed across all 4 tier combinations.
    let mut state = 0x0DDB_A11C_0FFE_E000u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let ops = ["add", "sub", "and", "orr", "eor"];
    let config = MachineConfig::m3_like();
    for trial in 0..4 {
        let mut src = String::from(
            "mov r0, #1\nmov r1, #2\nmov r2, #3\nmov r3, #4\nmov r7, #12\nloop:\n",
        );
        for _ in 0..60 {
            let op = ops[(next() % ops.len() as u64) as usize];
            let rd = next() % 7;
            let rn = next() % 7;
            if next() % 2 == 0 {
                let imm = next() % 256;
                let imm_op = if next() % 2 == 0 { "add" } else { "sub" };
                src.push_str(&format!("{imm_op} r{rd}, r{rd}, #{imm}\n"));
                let _ = (op, rn);
            } else {
                src.push_str(&format!("{op} r{rd}, r{rd}, r{rn}\n"));
            }
        }
        src.push_str("sub r7, r7, #1\ncmp r7, #0\nbne loop\nbkpt #0");
        let what = format!("matrix random[{trial}]");
        let (r, all_on) = run_matrix(&|| machine_with(&config, &src), 2_000_000, &what);
        assert_eq!(r.reason, StopReason::Bkpt(0), "{what}");
        assert!(
            all_on.predecode_stats().threaded_dispatches > 0,
            "{what}: 12 passes must run the body threaded"
        );
    }
}

// ---------------------------------------------------------------------
// Stats and lifecycle
// ---------------------------------------------------------------------

#[test]
fn threaded_stats_report_promotion_and_demotion() {
    let src = "mov r0, #0
         mov r2, #300
         loop: add r0, r0, #1
         cmp r0, r2
         bne loop
         bkpt #0";
    let config = MachineConfig::m3_like();
    let mut m = machine_with(&config, src);
    let r = m.run(1_000_000);
    assert_eq!(r.reason, StopReason::Bkpt(0));
    let stats = m.predecode_stats();
    assert!(stats.blocks_built >= 1, "hot loop must be recorded");
    assert_eq!(stats.blocks_promoted, stats.blocks_built, "every block is lowered when built");
    assert_eq!(stats.block_instrs, 0, "no block runs entry-at-a-time");
    assert!(stats.fused_pairs >= 1, "add+cmp must fuse at lowering");
    assert_eq!(stats.threaded_dispatches, stats.block_hits, "every dispatch is threaded");
    assert!(
        stats.threaded_dispatches > stats.blocks_built,
        "lowered blocks must dispatch more than once"
    );
    assert_eq!(stats.demotions, 0, "nothing invalidated this run");

    // Disabling the block engine demotes every cached block.
    m.set_block_cache_enabled(false);
    let stats = m.predecode_stats();
    assert!(stats.demotions >= 1, "disable must demote cached blocks");
}

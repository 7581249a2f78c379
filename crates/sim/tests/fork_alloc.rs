//! Structural allocation guard: building a machine and forking a warm
//! system cost what they touch, not the simulated address space, and
//! running a warm system does not allocate per wire transmission.
//!
//! A counting global allocator tallies the bytes and the allocations
//! each test thread requests; every byte bound below must also hold
//! with flash and SRAM doubled, which a copy of either array could
//! never fit. The test is deterministic and times nothing.

mod support;

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use alia_sim::{Machine, MachineConfig, SharedCanBus, System, SystemStop};

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Tallies one allocation (or reallocation) of `size` bytes.
fn count(size: usize) {
    BYTES.with(|b| b.set(b.get() + size as u64));
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local tallies are const-initialized `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (BYTES.with(Cell::get) - before, r)
}

/// Allocation calls (including reallocations) on this thread while `f`
/// runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let r = f();
    (CALLS.with(Cell::get) - before, r)
}

/// `m3_like`, and the same with flash and SRAM doubled.
fn configs() -> [MachineConfig; 2] {
    let base = MachineConfig::m3_like();
    let mut doubled = base.clone();
    doubled.sram_size *= 2;
    doubled.flash.size *= 2;
    [base, doubled]
}

/// A fresh machine: registers, bus and device tables only (776 bytes
/// when this guard was written).
const NEW_MACHINE_BOUND: u64 = 4 << 10;
/// Fork plus drop of the warm 5-node system, after its first fork:
/// devices, wires and per-node state, every memory page and cache
/// chunk shared (19.4 KiB when written).
const FORK_BOUND: u64 = 32 << 10;
/// The first fork of a warm system also freezes the pages and cache
/// chunks the system has written (130 KiB when written).
const FIRST_FORK_BOUND: u64 = 256 << 10;

#[test]
fn machine_new_allocates_no_backing_memory() {
    let costs = configs().map(|config| {
        let (bytes, m) = allocated(|| Machine::new(config.clone()));
        drop(m);
        assert!(
            bytes < NEW_MACHINE_BOUND,
            "Machine::new allocated {bytes} bytes for {} KiB flash + {} KiB SRAM",
            config.flash.size >> 10,
            config.sram_size >> 10
        );
        bytes
    });
    assert_eq!(costs[0], costs[1], "doubling the memories changed the cost");
}

#[test]
fn warm_fork_cost_tracks_the_touched_footprint() {
    let costs = configs().map(|config| {
        let mut sys = support::gateway_system(&config);
        sys.run(3_000);
        let (first, fork) = allocated(|| sys.fork());
        drop(fork);
        assert!(
            first < FIRST_FORK_BOUND,
            "first fork allocated {first} bytes"
        );
        let (bytes, ()) = allocated(|| drop(sys.fork()));
        assert!(
            bytes < FORK_BOUND,
            "fork + drop allocated {bytes} bytes for {} KiB flash + {} KiB SRAM per node",
            config.flash.size >> 10,
            config.sram_size >> 10
        );
        // The forks stay usable: the parent finishes its mission.
        let r = sys.run(2_000_000);
        assert_eq!(r.reason, SystemStop::AllHalted);
        (first, bytes)
    });
    assert_eq!(costs[0], costs[1], "doubling the memories changed the cost");
}

/// Cycles of the mission run before the measured stretch: by then the
/// guests' blocks are built and promoted and their pages written.
const WARM_CYCLES: u64 = 9_000;

/// Deliveries completed so far over every wire.
fn deliveries(sys: &System) -> u64 {
    sys.wires().iter().map(SharedCanBus::deliveries_len).sum::<usize>() as u64
}

#[test]
fn warm_run_allocates_less_than_once_per_delivery() {
    // Tracing is off. When written, the stretch after the warm-up made
    // 1 allocation (the run's wire-status vector) for 6 deliveries.
    // Vectors built per transmission (arbitration draining the pending
    // queue, a collected list of stations, a heap bit string to size a
    // frame) made it 25.
    let mut sys = support::gateway_system(&MachineConfig::m3_like());
    assert_eq!(sys.run(WARM_CYCLES).reason, SystemStop::Horizon);
    let before = deliveries(&sys);
    let (allocs, r) = allocations(|| sys.run(2_000_000));
    assert_eq!(r.reason, SystemStop::AllHalted);
    let delivered = deliveries(&sys) - before;
    assert!(delivered >= 4, "the measured stretch carries traffic ({delivered} deliveries)");
    assert!(
        allocs < delivered,
        "a warm run made {allocs} allocations for {delivered} deliveries"
    );
}

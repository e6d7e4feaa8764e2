//! Allocation ceiling of a cold boot.
//!
//! A boot only reads its scenario: the plan shares the unit set, the
//! Pre-parser counts sizes instead of rendering, the engine borrows
//! service bodies and the RCU engine recycles its waiter batches. This
//! binary installs a counting global allocator and bounds the heap
//! allocations of one cold 1000-service `PreParser::build` plus a
//! conventional and a full-BB `BootRequest::run`, so a change that
//! starts copying per boot again fails here rather than only in a
//! benchmark.
//!
//! Only blocks the test's own thread allocates are counted (a
//! thread-local counter), so the harness and other tests cannot move
//! the number. Scenario generation is outside the counted region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use booting_booster::bb::{BbConfig, BootRequest, PreParser};
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the thread-local may already be gone while a thread
    // tears down; those frees and allocations are not the boot's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized `Cell` that needs no allocation and no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counted region made 20,277 allocations when this ceiling was
/// set, plus 10%. Before the plan shared the unit set, the Pre-parser
/// counted sizes, the engine borrowed bodies and the graph kept its
/// adjacency in flat arrays, the same region made 77,079.
const CEILING: u64 = 22_300;

#[test]
fn cold_1000_service_boot_stays_under_its_allocation_ceiling() {
    let scenario = tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 1000,
            ..TizenParams::default()
        },
    );
    let before = allocations();
    let pre = PreParser::build(&scenario.units);
    for cfg in [BbConfig::conventional(), BbConfig::full()] {
        let boot = BootRequest::new(&scenario)
            .config(cfg)
            .prepared(&pre)
            .run()
            .expect("the scenario boots");
        assert!(boot.report.try_boot_time().is_some(), "boot completes");
    }
    let counted = allocations() - before;
    println!("cold 1000-service boot: {counted} allocations (ceiling {CEILING})");
    assert!(
        counted <= CEILING,
        "a cold 1000-service Pre-parser build plus two boots made {counted} \
         allocations, above the ceiling of {CEILING}"
    );
}

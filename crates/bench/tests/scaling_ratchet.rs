//! Scaling ratchet: the per-procedure pipeline must stay (near) linear in
//! procedure size, checked without a clock.
//!
//! A procedure of the benchmark's `mp9` shape is compiled at 30 and at
//! 120 loops and the allocations `Pipeline::run` makes are counted — how
//! many, and how many bytes they ask for. Four times the loops may cost at
//! most 4.4 times the allocations. A pass that rescans the rest of its
//! block per definition, or re-walks the procedure per loop, fails this
//! by a wide margin (the quadratic `forward` this guards against grew
//! ≈12×); bitset dataflow frames grow with nodes × definitions and are
//! what the slack over 4× is for. The 30-loop run is also held to an
//! absolute budget, so a rollback clone per pass or a heap set per CFG
//! node — each thousands of allocations — cannot come back unnoticed on
//! any host. Run it with `--release`: a debug build verifies the IL after
//! every pass and keeps a snapshot per pass to check rollbacks against,
//! which is not what is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use titanc::{compile, Options, Pipeline};
use titanc_bench::many_loops_source;
use titanc_il::pretty_proc;
use titanc_lower::compile_to_il;

thread_local! {
    /// Allocations this thread has made: (count, bytes requested). Never
    /// decremented — the bound is on the work asked of the allocator.
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition
// is bumping a const-initialized thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set((r.get().0 + 1, r.get().1 + layout.size())));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set((r.get().0 + 1, r.get().1 + new_size)));
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `titanc --parallel -j N` sets.
fn options(jobs: usize) -> Options {
    let mut options = Options::o2();
    options.parallelize = true;
    options.jobs = jobs;
    options
}

/// (allocation count, bytes requested) of one `Pipeline::run` over the
/// `loops`-loop procedure, on this thread (`jobs = 1` runs inline).
fn pipeline_allocations(loops: usize) -> (usize, usize) {
    let options = options(1);
    let mut program = compile_to_il(&many_loops_source(0, loops)).expect("compiles");
    let pipeline = Pipeline::for_options(&options);
    let before = REQUESTED.with(Cell::get);
    let (reports, trace) = pipeline.run(&mut program, &options, &mut Vec::new(), None);
    let after = REQUESTED.with(Cell::get);
    assert!(
        !trace.has_incidents(),
        "{loops} loops: {:?}",
        trace.incidents
    );
    assert_eq!(
        reports.count("do_converted"),
        loops + 1,
        "{loops} loops: every loop converts"
    );
    assert_eq!(
        (
            reports.count("vectorized") + reports.count("parallelized"),
            reports.notes.len()
        ),
        (loops + 1, 0),
        "{loops} loops: every loop leaves the scalar form"
    );
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn four_times_the_loops_is_at_most_4_4_times_the_allocation() {
    let (small_n, small_bytes) = pipeline_allocations(30);
    let (large_n, large_bytes) = pipeline_allocations(120);
    assert!(
        10 * large_n <= 44 * small_n,
        "allocation count grew {:.2}x for 4x the loops ({small_n} -> {large_n}): a rescan is back",
        large_n as f64 / small_n as f64
    );
    assert!(
        10 * large_bytes <= 44 * small_bytes,
        "bytes requested grew {:.2}x for 4x the loops ({small_bytes} -> {large_bytes})",
        large_bytes as f64 / small_bytes as f64
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a debug chain keeps a snapshot per pass")]
fn thirty_loops_stay_inside_the_allocation_budget() {
    let (count, bytes) = pipeline_allocations(30);
    assert!(
        count <= 7_000 && bytes <= 1_250_000,
        "one 30-loop `Pipeline::run` made {count} allocations for {bytes} bytes \
         (budget 7000 / 1.25 MB; 12826 / 2149952 with a clone per pass and a set per node)"
    );
    eprintln!("30 loops: {count} allocations, {bytes} bytes");
}

#[test]
fn large_procedures_compile_identically_at_any_job_count() {
    // two procedures, so `-j 4` really fans out where the host has the cores
    let src = many_loops_source(0, 120) + &many_loops_source(1, 120);
    let one = compile(&src, &options(1)).expect("-j1 compiles");
    let four = compile(&src, &options(4)).expect("-j4 compiles");
    let print =
        |c: &titanc::Compilation| -> String { c.program.procs.iter().map(pretty_proc).collect() };
    assert_eq!(print(&one), print(&four));
    assert_eq!(format!("{:?}", one.reports), format!("{:?}", four.reports));
}

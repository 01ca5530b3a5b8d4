//! Allocation-count guard for the request path: what a request line costs in
//! heap allocations between socket and reply, counted exactly.
//!
//! The benchmark's timing bound (25 %) cannot see one `Vec` or `String`
//! creeping back onto a 1.5 µs path; a count can, because it repeats exactly.
//! The ceilings leave a little headroom over what the tree does today
//! (4 / 8 / 1); the tree before the borrowed request view did 23 / 27 / 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use greenness_fleet::{fleet_workload, Fleet, FleetConfig};
use greenness_serve::protocol::parse_request;
use greenness_serve::{Disposition, Service, ServiceConfig};

thread_local! {
    /// `Some(n)` while this thread is counting: `n` allocations so far.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// `System`, counting the allocations of threads that asked for it.
struct Counting;

fn note_allocation() {
    // `try_with`: a thread may allocate while its locals are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every operation is `System`'s, unchanged. The counter is a
// const-initialised thread-local `Cell` with no destructor, so reading and
// writing it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return how many times this thread allocated meanwhile.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS.with(|count| count.replace(None));
    (n.expect("still counting"), out)
}

/// The most allocations `f` makes over `lines`; asked twice, because the
/// point of a count is that it repeats.
fn worst_over(lines: &[String], mut f: impl FnMut(&str) -> u64) -> u64 {
    let mut pass = || lines.iter().map(|l| f(l)).collect::<Vec<u64>>();
    let first = pass();
    assert_eq!(first, pass(), "allocation counts must repeat exactly");
    first.into_iter().max().expect("at least one line")
}

/// Escape-free lines over all five cached ops.
fn lines() -> Vec<String> {
    fleet_workload(64, 16, 1.1, 42)
}

#[test]
fn parsing_an_escape_free_line_allocates_at_most_five_times() {
    let worst = worst_over(&lines(), |line| {
        let (n, request) = allocations_in(|| parse_request(line));
        assert!(request.is_ok(), "{line}");
        n
    });
    assert!(worst <= 5, "parse_request: {worst} allocations");
}

#[test]
fn a_warm_service_hit_allocates_at_most_twice() {
    let service = Service::new(ServiceConfig {
        jobs: 1,
        ..ServiceConfig::default()
    });
    let lines = lines();
    for line in &lines {
        service.handle_line(line);
    }
    let worst = worst_over(&lines, |line| {
        let request = parse_request(line).expect("well-formed");
        let (n, outcome) = allocations_in(|| service.handle(&request));
        assert_eq!(outcome.disposition, Disposition::Hit, "{line}");
        n
    });
    assert!(worst <= 2, "Service::handle: {worst} allocations");
}

#[test]
fn a_routed_warm_hit_allocates_at_most_ten_times() {
    let fleet = Fleet::new(FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    });
    let lines = lines();
    // Past the hot threshold on every key, so replicas are filled and reads
    // rotate over them: the steady state of a Zipfian replay.
    for _ in 0..6 {
        for line in &lines {
            fleet.handle_line(line);
        }
    }
    let worst = worst_over(&lines, |line| {
        let (n, outcome) = allocations_in(|| fleet.handle_line(line));
        assert_eq!(outcome.disposition, Disposition::Hit, "{line}");
        n
    });
    assert!(worst <= 10, "Fleet::handle_line: {worst} allocations");
}

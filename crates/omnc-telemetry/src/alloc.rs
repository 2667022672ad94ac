//! Memory observability: a counting [`GlobalAlloc`] wrapper, scoped
//! allocation accounting, and peak-RSS sampling.
//!
//! ROADMAP items 1, 2, and 5 all promise allocation-free hot loops; this
//! module is the instrument that makes those claims checkable. Three
//! pieces:
//!
//! * [`CountingAlloc`] — a zero-dependency `#[global_allocator]` wrapper
//!   around [`System`] that, when counting is switched on with
//!   [`set_alloc_counting`], tallies allocation / reallocation / free
//!   events, bytes, and the live-bytes high-water mark into thread-local
//!   counters. Binaries install it; the library never does.
//! * [`AllocScope`] / [`thread_alloc_stats`] — scoped and absolute reads
//!   of the calling thread's counters, which is also how the span
//!   [`Profiler`](crate::Profiler) attributes allocations to spans.
//! * [`sample_rss`] — `VmRSS` / `VmHWM` from `/proc/self/status`
//!   (Linux; `None` elsewhere), for the per-session and per-campaign RSS
//!   log lines.
//!
//! Costs: with counting **off** (the default) every allocator call pays
//! one relaxed atomic load on top of `System` (the repo benchmark in
//! `benchmark/` times its end-to-end runs that way). With counting on,
//! each call additionally bumps a handful of thread-local `Cell`s.
//!
//! Determinism: the counters are plain event counts, so a seeded
//! single-threaded workload produces identical numbers on every run and
//! host — they gate like span call counts. RSS is host-dependent and
//! must never flow into byte-compared artifacts (`omnc-campaign` only
//! logs its peak).
//!
//! The thread-local counters are `const`-initialized `Cell`s with no
//! destructor, so the allocator hooks are free of lazy TLS
//! initialization and safe to run during thread teardown (reads fall
//! back to no-ops via `try_with`). Counters are per-thread: a buffer
//! allocated on one thread and freed on another shows up as an
//! allocation here and a free there, which is why `live_bytes` is
//! signed.

// SAFETY: this module is the workspace's single sanctioned unsafe
// surface — forwarding the `GlobalAlloc` contract to `std::alloc::System`
// unchanged. Each unsafe item below carries its own SAFETY comment
// (clippy's `undocumented_unsafe_blocks` enforces it for blocks).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Deserialize, Serialize};

/// Global switch for allocation counting. Off by default so the
/// allocator costs one relaxed load until a binary opts in.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on or off process-wide. Counters are not
/// reset; they simply stop (or resume) advancing.
pub fn set_alloc_counting(enabled: bool) {
    // ordering: a standalone flag with no dependent data; readers only
    // need to eventually observe the flip, not synchronize with it.
    COUNTING.store(enabled, Ordering::Relaxed);
}

/// Whether allocation counting is currently on.
#[must_use]
pub fn alloc_counting_enabled() -> bool {
    // ordering: see set_alloc_counting — flag-only, no acquire needed.
    COUNTING.load(Ordering::Relaxed)
}

struct Counters {
    allocs: Cell<u64>,
    reallocs: Cell<u64>,
    frees: Cell<u64>,
    bytes_allocated: Cell<u64>,
    bytes_freed: Cell<u64>,
    live_bytes: Cell<i64>,
    live_peak_bytes: Cell<i64>,
}

impl Counters {
    const fn new() -> Counters {
        Counters {
            allocs: Cell::new(0),
            reallocs: Cell::new(0),
            frees: Cell::new(0),
            bytes_allocated: Cell::new(0),
            bytes_freed: Cell::new(0),
            live_bytes: Cell::new(0),
            live_peak_bytes: Cell::new(0),
        }
    }

    fn bump_live(&self, delta: i64) {
        let live = self.live_bytes.get().wrapping_add(delta);
        self.live_bytes.set(live);
        if live > self.live_peak_bytes.get() {
            self.live_peak_bytes.set(live);
        }
    }
}

thread_local! {
    // `const` initialization + no destructor: accessing these from inside
    // the allocator can neither allocate nor recurse.
    static COUNTERS: Counters = const { Counters::new() };
}

fn record_alloc(size: usize) {
    let _ = COUNTERS.try_with(|c| {
        c.allocs.set(c.allocs.get().wrapping_add(1));
        c.bytes_allocated
            .set(c.bytes_allocated.get().wrapping_add(size as u64));
        c.bump_live(size as i64);
    });
}

fn record_free(size: usize) {
    let _ = COUNTERS.try_with(|c| {
        c.frees.set(c.frees.get().wrapping_add(1));
        c.bytes_freed
            .set(c.bytes_freed.get().wrapping_add(size as u64));
        c.bump_live(-(size as i64));
    });
}

fn record_realloc(old_size: usize, new_size: usize) {
    let _ = COUNTERS.try_with(|c| {
        c.reallocs.set(c.reallocs.get().wrapping_add(1));
        if new_size >= old_size {
            c.bytes_allocated.set(
                c.bytes_allocated
                    .get()
                    .wrapping_add((new_size - old_size) as u64),
            );
        } else {
            c.bytes_freed.set(
                c.bytes_freed
                    .get()
                    .wrapping_add((old_size - new_size) as u64),
            );
        }
        c.bump_live(new_size as i64 - old_size as i64);
    });
}

/// A counting wrapper around [`System`], meant to be installed by
/// binaries:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;
/// ```
///
/// Until [`set_alloc_counting`]`(true)` is called it only forwards to
/// `System` behind one relaxed atomic load.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every call is forwarded to `System` with the caller's layout
// unchanged, so `System`'s `GlobalAlloc` guarantees carry over; the
// counter updates touch only thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract; it is
    // forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract, delegated to `System`.
        let ptr = unsafe { System.alloc(layout) };
        // ordering: counters tolerate a stale flag read; relaxed keeps the
        // allocator fast path fence-free.
        if !ptr.is_null() && COUNTING.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract;
    // it is forwarded verbatim to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract, delegated to `System`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        // ordering: same as alloc — stale flag reads are harmless.
        if !ptr.is_null() && COUNTING.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: the caller guarantees `ptr` was allocated by this allocator
    // with `layout`; both are forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // ordering: same as alloc — stale flag reads are harmless.
        if COUNTING.load(Ordering::Relaxed) {
            record_free(layout.size());
        }
        // SAFETY: same pointer and layout, same contract, delegated to
        // `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller guarantees `ptr` was allocated by this allocator
    // with `layout` and `new_size` is valid; forwarded verbatim to
    // `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same pointer, layout, and size, delegated to `System`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        // ordering: same as alloc — stale flag reads are harmless.
        if !new_ptr.is_null() && COUNTING.load(Ordering::Relaxed) {
            record_realloc(layout.size(), new_size);
        }
        new_ptr
    }
}

/// A snapshot of the calling thread's allocation counters.
///
/// All counters are monotone except `live_bytes` (allocated minus freed
/// on this thread, signed because cross-thread frees can push it
/// negative) and `live_peak_bytes` (the high-water mark of
/// `live_bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation events (`alloc` + `alloc_zeroed`).
    pub allocs: u64,
    /// Reallocation events.
    pub reallocs: u64,
    /// Deallocation events.
    pub frees: u64,
    /// Bytes requested by allocations, plus realloc growth.
    pub bytes_allocated: u64,
    /// Bytes released by frees, plus realloc shrinkage.
    pub bytes_freed: u64,
    /// Allocated-minus-freed bytes on this thread.
    pub live_bytes: i64,
    /// High-water mark of `live_bytes`.
    pub live_peak_bytes: i64,
}

impl AllocStats {
    /// Allocation events of every kind (`allocs + reallocs`) — the
    /// "allocs" number the profiler and the bench gates use.
    #[must_use]
    pub fn alloc_events(&self) -> u64 {
        self.allocs.wrapping_add(self.reallocs)
    }
}

/// Reads the calling thread's allocation counters. All zeros when
/// counting has never been enabled (or during thread teardown).
#[must_use]
pub fn thread_alloc_stats() -> AllocStats {
    COUNTERS
        .try_with(|c| AllocStats {
            allocs: c.allocs.get(),
            reallocs: c.reallocs.get(),
            frees: c.frees.get(),
            bytes_allocated: c.bytes_allocated.get(),
            bytes_freed: c.bytes_freed.get(),
            live_bytes: c.live_bytes.get(),
            live_peak_bytes: c.live_peak_bytes.get(),
        })
        .unwrap_or_default()
}

/// The cheap monotone pair the span profiler snapshots at span entry and
/// exit: (allocation events including reallocs, bytes allocated).
#[must_use]
pub(crate) fn profile_alloc_snapshot() -> (u64, u64) {
    COUNTERS
        .try_with(|c| {
            (
                c.allocs.get().wrapping_add(c.reallocs.get()),
                c.bytes_allocated.get(),
            )
        })
        .unwrap_or((0, 0))
}

/// Scoped allocation accounting: snapshot the thread counters at
/// [`AllocScope::start`], read the difference with [`AllocScope::delta`].
///
/// ```ignore
/// let scope = AllocScope::start();
/// run_workload();
/// let d = scope.delta();
/// println!("{} allocation events, {} bytes", d.alloc_events(), d.bytes_allocated);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start: AllocStats,
}

impl AllocScope {
    /// Opens a scope at the thread's current counter values.
    #[must_use]
    pub fn start() -> AllocScope {
        AllocScope {
            start: thread_alloc_stats(),
        }
    }

    /// Counter movement since [`AllocScope::start`]. Monotone fields are
    /// differences; `live_bytes` is the net change over the scope, and
    /// `live_peak_bytes` is the thread's absolute high-water mark at read
    /// time (peaks do not subtract meaningfully).
    #[must_use]
    pub fn delta(&self) -> AllocStats {
        let now = thread_alloc_stats();
        AllocStats {
            allocs: now.allocs.wrapping_sub(self.start.allocs),
            reallocs: now.reallocs.wrapping_sub(self.start.reallocs),
            frees: now.frees.wrapping_sub(self.start.frees),
            bytes_allocated: now.bytes_allocated.wrapping_sub(self.start.bytes_allocated),
            bytes_freed: now.bytes_freed.wrapping_sub(self.start.bytes_freed),
            live_bytes: now.live_bytes.wrapping_sub(self.start.live_bytes),
            live_peak_bytes: now.live_peak_bytes,
        }
    }
}

// ------------------------------------------------------------------ RSS

/// Resident-set figures from `/proc/self/status`, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RssSample {
    /// Current resident set (`VmRSS`).
    pub vm_rss_bytes: u64,
    /// Peak resident set over the process lifetime (`VmHWM`).
    pub vm_hwm_bytes: u64,
}

/// Samples the process's resident-set size. `None` off Linux or when
/// `/proc/self/status` is unreadable. Host-dependent by nature: record
/// it in trajectories and logs, never in byte-compared artifacts.
#[must_use]
pub fn sample_rss() -> Option<RssSample> {
    if cfg!(target_os = "linux") {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_proc_status(&status)
    } else {
        None
    }
}

fn parse_proc_status(text: &str) -> Option<RssSample> {
    let mut rss = None;
    let mut hwm = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss = parse_kb_field(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            hwm = parse_kb_field(rest);
        }
    }
    Some(RssSample {
        vm_rss_bytes: rss?,
        vm_hwm_bytes: hwm?,
    })
}

/// Parses the `"  123456 kB"` tail of a `/proc/self/status` line.
fn parse_kb_field(rest: &str) -> Option<u64> {
    rest.trim()
        .strip_suffix("kB")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
}

#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: CountingAlloc = CountingAlloc;

/// Serializes tests that toggle the process-wide counting switch (or
/// assert full-report equality that the switch could perturb).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_disabled_records_nothing() {
        let _guard = test_lock();
        set_alloc_counting(false);
        let scope = AllocScope::start();
        let v = std::hint::black_box(vec![0u8; 4096]);
        drop(v);
        let d = scope.delta();
        assert_eq!(d.alloc_events(), 0);
        assert_eq!(d.bytes_allocated, 0);
        assert_eq!(d.frees, 0);
    }

    #[test]
    fn counting_tracks_allocs_frees_and_live_bytes() {
        let _guard = test_lock();
        set_alloc_counting(true);
        let scope = AllocScope::start();
        let v = std::hint::black_box(vec![7u8; 8192]);
        let mid = scope.delta();
        drop(v);
        let end = scope.delta();
        set_alloc_counting(false);
        assert!(mid.allocs >= 1, "{mid:?}");
        assert!(mid.bytes_allocated >= 8192, "{mid:?}");
        assert!(mid.live_bytes >= 8192, "{mid:?}");
        assert!(end.frees >= 1, "{end:?}");
        assert!(end.bytes_freed >= 8192, "{end:?}");
        assert_eq!(end.live_bytes, 0, "{end:?}");
        // The high-water mark saw the buffer while it was live.
        assert!(end.live_peak_bytes >= mid.live_bytes, "{end:?}");
    }

    #[test]
    fn realloc_counts_as_a_realloc_event() {
        let _guard = test_lock();
        set_alloc_counting(true);
        let scope = AllocScope::start();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        for i in 0..4096u64 {
            v.push(i);
        }
        std::hint::black_box(&v);
        let d = scope.delta();
        set_alloc_counting(false);
        assert!(d.reallocs >= 1, "vec growth should realloc: {d:?}");
        assert!(d.bytes_allocated >= 4096 * 8, "{d:?}");
    }

    #[test]
    fn stats_stay_consistent_while_counting() {
        let _guard = test_lock();
        set_alloc_counting(true);
        let _v = std::hint::black_box(vec![1u8; 1024]);
        let s = thread_alloc_stats();
        set_alloc_counting(false);
        assert!(s.live_peak_bytes >= s.live_bytes, "{s:?}");
        assert!(s.alloc_events() >= s.allocs, "{s:?}");
    }

    #[test]
    fn rss_sampler_reports_plausible_figures_on_linux() {
        match sample_rss() {
            Some(rss) => {
                assert!(rss.vm_rss_bytes > 0, "{rss:?}");
                assert!(rss.vm_hwm_bytes >= rss.vm_rss_bytes, "{rss:?}");
            }
            None => assert!(
                !std::path::Path::new("/proc/self/status").exists(),
                "sampler returned None even though /proc/self/status exists"
            ),
        }
    }

    #[test]
    fn proc_status_parser_reads_rss_and_hwm() {
        let text =
            "Name:\tomnc-sim\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n";
        let rss = parse_proc_status(text).expect("both fields present");
        assert_eq!(rss.vm_rss_bytes, 40960 * 1024);
        assert_eq!(rss.vm_hwm_bytes, 51200 * 1024);
        // Either field missing -> None.
        assert!(parse_proc_status("VmRSS:\t 1 kB\n").is_none());
        assert!(parse_proc_status("VmHWM:\t 1 kB\n").is_none());
        assert!(parse_proc_status("").is_none());
    }
}

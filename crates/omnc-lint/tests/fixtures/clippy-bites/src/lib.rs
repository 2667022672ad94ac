//! One deliberate violation per adopted lint, beside the patterns each lint
//! must accept (DESIGN.md §6c). Clippy reads `crates/clippy.toml`, the
//! nearest one above this package, so the disallowed paths here are the
//! workspace's own.
//!
//! `scripts/lint.sh` requires clippy to reject this file naming every
//! adopted lint; omnc-lint's rule tests check, item by item, which lints
//! clippy reports. Items are separated by blank lines: a test finds an
//! item by its header and takes its attributes, body and closing brace.

use std::collections::{BTreeMap, HashMap};

// ---- wall-clock and env-dep: `disallowed_methods` -----------------------

pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn system_clock() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

pub fn seed_from_env() -> Option<String> {
    std::env::var("OMNC_SEED").ok()
}

pub fn whole_env() -> usize {
    std::env::vars().count()
}

pub fn argv() -> Vec<String> {
    std::env::args().collect()
}

/// The escape hatch: one item-level expectation at a sanctioned site.
#[expect(clippy::disallowed_methods, reason = "the binary's argv")]
pub fn sanctioned_argv() -> Vec<String> {
    std::env::args().collect()
}

/// An exemption that stops being needed fails too.
#[expect(clippy::disallowed_methods, reason = "nothing here reads a clock")]
pub fn stale_exemption() -> u32 {
    7
}

/// Mentions are not calls: std::time::Instant::now().
pub fn names_in_text() -> &'static str {
    // Neither is this: std::env::var("OMNC_SEED").
    "std::time::Instant::now() and std::thread::spawn(f)"
}

// ---- concurrency: `disallowed_methods` and `disallowed_types` -----------

pub fn spawn_thread() {
    std::thread::spawn(|| ());
}

pub fn scoped_threads() {
    std::thread::scope(|_| ());
}

pub fn built_thread() -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new().spawn(|| ())
}

pub fn open_channel() {
    let (_tx, _rx) = std::sync::mpsc::channel::<u8>();
}

pub fn socket() -> Option<std::net::TcpListener> {
    None
}

/// The campaign executor's pattern: a sanctioned worker pool.
#[expect(clippy::disallowed_methods, reason = "the executor's worker pool")]
pub fn worker_pool() {
    std::thread::scope(|_| ());
}

// ---- hash-iter: `iter_over_hash_type` -----------------------------------

pub struct Seen {
    pub seen: HashMap<u32, u64>,
}

pub fn iterate_field(s: &Seen) -> u64 {
    let mut total = 0;
    for (_, v) in s.seen.iter() {
        total += v;
    }
    total
}

pub fn iterate_constructed() -> u32 {
    let mut m = HashMap::new();
    m.insert(1_u32, 2_u32);
    let mut total = 0;
    for k in m.keys() {
        total += k;
    }
    total
}

pub fn iterate_binding(roles: HashMap<u32, u64>) -> u64 {
    let mut total = 0;
    for (_, v) in roles {
        total += v;
    }
    total
}

pub fn look_up(s: &Seen) -> Option<u64> {
    s.seen.get(&1).copied()
}

pub fn iterate_btree(roles: BTreeMap<u32, u64>) -> u64 {
    let mut total = 0;
    for (_, v) in roles {
        total += v;
    }
    total
}

#[expect(clippy::iter_over_hash_type, reason = "an integer sum is order-free")]
pub fn order_free_total(m: &HashMap<u32, u64>) -> u64 {
    let mut total = 0;
    for v in m.values() {
        total += v;
    }
    total
}

// ---- unwrap: `unwrap_used` ----------------------------------------------

pub fn first(v: &[u8]) -> u8 {
    v.first().copied().unwrap()
}

pub fn first_with_reason(v: &[u8]) -> u8 {
    v.first().copied().expect("callers pass a non-empty row")
}

// ---- unsafe-audit: rustc `unsafe_code`, `undocumented_unsafe_blocks` ----

pub fn read_undocumented(p: &u8) -> u8 {
    unsafe { std::ptr::read(p) }
}

pub fn read_documented(p: &u8) -> u8 {
    // SAFETY: `p` is a reference, so it is valid for reads.
    unsafe { std::ptr::read(p) }
}

pub struct Token;

// SAFETY: `Token` has no fields, so sharing it cannot race.
unsafe impl Sync for Token {}

/// The counting allocator's pattern (`omnc-telemetry/src/alloc.rs`).
pub mod counting {
    // SAFETY: audited per item below; the crate root denies `unsafe_code`.
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct Counting {
        pub allocs: AtomicUsize,
    }

    // SAFETY: every call is forwarded to `System` with the caller's layout
    // unchanged, so `System`'s guarantees carry over.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // ordering: an independent counter; nothing synchronizes on it.
            self.allocs.fetch_add(1, Ordering::Relaxed);
            // SAFETY: same layout, same contract, delegated to `System`.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: same pointer and layout, delegated to `System`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

/// The runtime-detected SIMD pattern (`gf256/src/avx2.rs`).
#[cfg(target_arch = "x86_64")]
pub mod simd {
    // SAFETY: audited per item below; the crate root denies `unsafe_code`.
    #![allow(unsafe_code)]

    use std::arch::x86_64::{_mm256_loadu_si256, _mm256_storeu_si256, _mm256_xor_si256};

    pub fn xor_in_place(dst: &mut [u8; 32], src: &[u8; 32]) {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the running CPU just above.
            unsafe { xor_avx2(dst, src) }
        } else {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn xor_avx2(dst: &mut [u8; 32], src: &[u8; 32]) {
        // SAFETY: both arrays are exactly 32 readable bytes and `dst` is
        // writable; the loads and stores are unaligned.
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().cast());
            let s = _mm256_loadu_si256(src.as_ptr().cast());
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), _mm256_xor_si256(d, s));
        }
    }
}

// ---- float-eq: `float_cmp`, denied in the optimizer crates only ---------

/// As the `omnc-opt` and `simplex-lp` roots.
pub mod opt {
    #![cfg_attr(not(test), deny(clippy::float_cmp))]

    pub fn same_cost(a: f64, b: f64) -> bool {
        a == b
    }

    pub fn unused_link(flow: f64, link: u32) -> bool {
        flow == 0.0 || link == 0
    }

    #[expect(clippy::float_cmp, reason = "a tie is two sums with identical bits")]
    pub fn tie(a: f64, b: f64) -> bool {
        a == b
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn oracle_is_bit_exact() {
            let (quarter, half) = std::hint::black_box((0.25_f64, 0.5_f64));
            assert!(quarter + quarter == half);
        }
    }
}

pub fn same_cost_elsewhere(a: f64, b: f64) -> bool {
    a == b
}

// ---- lossy-cast: `cast_possible_truncation`, wire and kernel code only --

/// As `omnc::wire`, `omnc::msg`, `rlnc::{packet, kernel}` and `gf256`.
pub mod wire {
    #![deny(clippy::cast_possible_truncation)]

    pub fn narrow(len: u32) -> u8 {
        len as u8
    }

    pub fn widen(len: u8) -> u64 {
        len as u64
    }

    pub fn block_dst(raw: u64) -> Option<usize> {
        usize::try_from(raw).ok()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "`i < 255` by the loop bound"
    )]
    pub const fn log_table() -> [u8; 255] {
        let mut t = [0_u8; 255];
        let mut i = 0;
        while i < 255 {
            t[i] = i as u8;
            i += 1;
        }
        t
    }
}

pub fn narrow_elsewhere(len: u32) -> u8 {
    len as u8
}

// ---- test code -----------------------------------------------------------

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(super::first(&[3]), [3_u8].first().copied().unwrap());
    }
}

//! The AVX2 body of [`crate::wide`]: split-nibble multiplication, 32 bytes
//! per `vpshufb`.
//!
//! Multiplication by a constant is linear over GF(2), so
//! `c·x = c·(x & 0x0f) ^ c·(x & 0xf0)`: two 16-entry tables per constant,
//! which is exactly what one byte shuffle looks up, in all 32 lanes at once.
//!
//! This is the crate's one module that uses `std::arch`. Each entry point
//! checks for AVX2 itself, so no caller can reach the vector body on a CPU
//! without it; loads and stores go through `chunks_exact(32)` blocks, so
//! every access is in bounds by construction.

// SAFETY: audited per item below; the crate root denies `unsafe_code`
// everywhere else.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_permute2x128_si256, _mm256_set1_epi8,
    _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
};

use crate::tables::mul_no_table;

/// Bytes per vector block, and so the shortest row the vector body takes:
/// the codec's 40-byte coefficient rows get one block of it, and its 1-byte
/// payload rows skip the feature test and table load. Measured with the repo
/// benchmark's probes against a cut-over of 64 bytes (coefficient rows left
/// to the `u64` body), three alternating runs each:
/// `rlnc.coeff_only.absorb_us` 1.03-1.11 vs 2.18-2.23,
/// `rlnc.{recode,decode}.mb_per_s` 424-474 vs 272-324;
/// `rlnc.coeff_only.emit_us` (0.41) and `gf256.mul_add.wide.mb_per_s` did not
/// tell the two apart.
const BLOCK: usize = 32;

/// `NIBBLES[c]` is `c·x` for `x` in `0..16` followed by `c·(x << 4)` for
/// `x` in `0..16`: the low and high shuffle tables of the constant `c`.
static NIBBLES: Aligned = Aligned(build_nibbles());

/// Keeps each constant's 32 bytes inside one cache line.
#[repr(align(32))]
struct Aligned([[u8; BLOCK]; 256]);

const fn build_nibbles() -> [[u8; BLOCK]; 256] {
    let mut tables = [[0u8; BLOCK]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            // `c < 256` and `x < 16` by the loop bounds; const fns cannot
            // use try_from.
            tables[c][x] = mul_no_table(c as u8, x as u8); // lint: allow(lossy-cast)
            tables[c][16 + x] = mul_no_table(c as u8, (x as u8) << 4); // lint: allow(lossy-cast)
            x += 1;
        }
        c += 1;
    }
    tables
}

/// `true` when this CPU runs the vector body (the answer is cached by std).
pub(crate) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Multiplies the leading whole 32-byte blocks of `data` by `c` in place and
/// returns how many bytes that covered: 0 without AVX2, else
/// `data.len() / 32 * 32`. The caller finishes the rest.
pub(crate) fn mul_assign(data: &mut [u8], c: u8) -> usize {
    if data.len() < BLOCK || !detected() {
        return 0;
    }
    // SAFETY: AVX2 was detected on the running CPU just above.
    unsafe { mul_assign_avx2(data, c) }
}

/// `dst += c * src` over the leading whole 32-byte blocks; returns the bytes
/// covered exactly as [`mul_assign`] does. Slices of unequal length are cut
/// to the shorter one.
pub(crate) fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) -> usize {
    if dst.len() < BLOCK || !detected() {
        return 0;
    }
    // SAFETY: AVX2 was detected on the running CPU just above.
    unsafe { mul_add_assign_avx2(dst, src, c) }
}

/// The two shuffle tables of `c`, each broadcast to both 128-bit lanes
/// (`vpshufb` looks up within a lane).
#[target_feature(enable = "avx2")]
fn nibble_tables(c: u8) -> (__m256i, __m256i) {
    let table: &[u8; BLOCK] = &NIBBLES.0[usize::from(c)];
    // SAFETY: `table` is 32 readable bytes and the load is unaligned.
    let both = unsafe { _mm256_loadu_si256(table.as_ptr().cast()) };
    (
        _mm256_permute2x128_si256::<0x00>(both, both),
        _mm256_permute2x128_si256::<0x11>(both, both),
    )
}

/// `c·x` in all 32 byte lanes of `x`.
#[target_feature(enable = "avx2")]
fn mul_block(x: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
    let mask = _mm256_set1_epi8(0x0f);
    let low = _mm256_and_si256(x, mask);
    // The 64-bit shift drags bits across byte lanes; the mask drops them.
    let high = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
    _mm256_xor_si256(_mm256_shuffle_epi8(lo, low), _mm256_shuffle_epi8(hi, high))
}

#[target_feature(enable = "avx2")]
fn mul_assign_avx2(data: &mut [u8], c: u8) -> usize {
    let (lo, hi) = nibble_tables(c);
    let mut done = 0;
    for block in data.chunks_exact_mut(BLOCK) {
        // SAFETY: `block` is exactly 32 bytes, readable and writable, and
        // both accesses are unaligned.
        unsafe {
            let x = _mm256_loadu_si256(block.as_ptr().cast());
            _mm256_storeu_si256(block.as_mut_ptr().cast(), mul_block(x, lo, hi));
        }
        done += BLOCK;
    }
    done
}

#[target_feature(enable = "avx2")]
fn mul_add_assign_avx2(dst: &mut [u8], src: &[u8], c: u8) -> usize {
    let (lo, hi) = nibble_tables(c);
    let mut done = 0;
    for (d, s) in dst.chunks_exact_mut(BLOCK).zip(src.chunks_exact(BLOCK)) {
        // SAFETY: `d` and `s` are exactly 32 bytes each (`d` writable), they
        // cannot overlap (`&mut` vs `&`), and every access is unaligned.
        unsafe {
            let x = _mm256_loadu_si256(s.as_ptr().cast());
            let acc = _mm256_loadu_si256(d.as_ptr().cast());
            let sum = _mm256_xor_si256(acc, mul_block(x, lo, hi));
            _mm256_storeu_si256(d.as_mut_ptr().cast(), sum);
        }
        done += BLOCK;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_tables_split_the_product() {
        for c in 0..=255u8 {
            let t = &NIBBLES.0[usize::from(c)];
            for x in 0..=255u8 {
                let got = t[usize::from(x & 15)] ^ t[16 + usize::from(x >> 4)];
                assert_eq!(got, mul_no_table(c, x), "c={c} x={x}");
            }
        }
    }
}

//! The AVX2 body of [`crate::wide`]: split-nibble multiplication, 32 bytes
//! per `vpshufb`.
//!
//! Multiplication by a constant is linear over GF(2), so
//! `c·x = c·(x & 0x0f) ^ c·(x & 0xf0)`: two 16-entry tables per constant,
//! which is exactly what one byte shuffle looks up, in all 32 lanes at once.
//! A row's tail after its whole 32-byte blocks goes through the same tables
//! at 128-bit width: at most one 16-byte block, then at most one 8-byte
//! block, so the vector body covers every whole word of a row and leaves
//! fewer than 8 bytes to the caller.
//!
//! This is the crate's one module that uses `std::arch`. Each entry point
//! checks for AVX2 itself, so no caller can reach the vector body on a CPU
//! without it; loads and stores go through `chunks_exact` blocks of 32, 16
//! and 8 bytes, so every access is in bounds by construction.

// SAFETY: audited per item below; the crate root denies `unsafe_code`
// everywhere else.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_loadu_si256,
    _mm256_permute2x128_si256, _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64,
    _mm256_storeu_si256, _mm256_xor_si256, _mm_and_si128, _mm_loadl_epi64, _mm_loadu_si128,
    _mm_set1_epi8, _mm_shuffle_epi8, _mm_srli_epi64, _mm_storel_epi64, _mm_storeu_si128,
    _mm_xor_si128,
};

use crate::tables::mul_no_table;

/// Bytes per vector block. Rows of at least [`WORD`] bytes take the vector
/// body: whole blocks first, then the 16- and 8-byte tail blocks, so the
/// codec's 40-byte coefficient rows are one block plus one 8-byte block and
/// none of their bytes reach the `u64` body. Measured with the repo
/// benchmark's probes, `rlnc.coeff_only.absorb_us`: 2.18-2.23 with no
/// vector body for such rows, 1.01-1.11 with one block and the `u64` body
/// for the last 8 bytes, 0.43-0.65 with the tail blocks (and the decoder's
/// packed rows; EXPERIMENTS.md, "Coefficient rows at vector speed").
const BLOCK: usize = 32;

/// The shortest row the vector body takes, and the granule of its tail: the
/// codec's 1-byte payload rows skip the feature test and the table load.
const WORD: usize = 8;

/// `NIBBLES[c]` is `c·x` for `x` in `0..16` followed by `c·(x << 4)` for
/// `x` in `0..16`: the low and high shuffle tables of the constant `c`.
static NIBBLES: Aligned = Aligned(build_nibbles());

/// Keeps each constant's 32 bytes inside one cache line.
#[repr(align(32))]
struct Aligned([[u8; BLOCK]; 256]);

#[expect(
    clippy::cast_possible_truncation,
    reason = "`c < 256` and `x < 16` by the loop bounds; const fns cannot use try_from"
)]
const fn build_nibbles() -> [[u8; BLOCK]; 256] {
    let mut tables = [[0u8; BLOCK]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            tables[c][x] = mul_no_table(c as u8, x as u8);
            tables[c][16 + x] = mul_no_table(c as u8, (x as u8) << 4);
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

/// Multiplies the leading whole 8-byte words of `data` by `c` in place and
/// returns how many bytes that covered: 0 without AVX2 or for a row shorter
/// than a word, else `data.len() / 8 * 8`. The caller finishes the rest.
pub(crate) fn mul_assign(data: &mut [u8], c: u8) -> usize {
    if data.len() < WORD || !detected() {
        return 0;
    }
    // SAFETY: AVX2 was detected on the running CPU just above.
    unsafe { mul_assign_avx2(data, c) }
}

/// `dst += c * src` over the leading whole 8-byte words; returns the bytes
/// covered exactly as [`mul_assign`] does. Slices of unequal length are cut
/// to the shorter one.
pub(crate) fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) -> usize {
    if dst.len().min(src.len()) < WORD || !detected() {
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

/// `c·x` in all 16 byte lanes of `x`, from the low halves of the broadcast
/// tables [`nibble_tables`] returns (both halves are the same table).
#[target_feature(enable = "avx2")]
fn mul_half(x: __m128i, lo: __m256i, hi: __m256i) -> __m128i {
    let mask = _mm_set1_epi8(0x0f);
    let low = _mm_and_si128(x, mask);
    let high = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
    _mm_xor_si128(
        _mm_shuffle_epi8(_mm256_castsi256_si128(lo), low),
        _mm_shuffle_epi8(_mm256_castsi256_si128(hi), high),
    )
}

#[target_feature(enable = "avx2")]
fn mul_assign_avx2(data: &mut [u8], c: u8) -> usize {
    let (lo, hi) = nibble_tables(c);
    let mut blocks = data.chunks_exact_mut(BLOCK);
    for block in &mut blocks {
        // SAFETY: `block` is exactly 32 bytes, readable and writable, and
        // both accesses are unaligned.
        unsafe {
            let x = _mm256_loadu_si256(block.as_ptr().cast());
            _mm256_storeu_si256(block.as_mut_ptr().cast(), mul_block(x, lo, hi));
        }
    }
    // The tail is under 32 bytes: each loop below runs at most once.
    let mut halves = blocks.into_remainder().chunks_exact_mut(16);
    for half in &mut halves {
        // SAFETY: `half` is exactly 16 bytes, readable and writable, and
        // both accesses are unaligned.
        unsafe {
            let x = _mm_loadu_si128(half.as_ptr().cast());
            _mm_storeu_si128(half.as_mut_ptr().cast(), mul_half(x, lo, hi));
        }
    }
    for word in halves.into_remainder().chunks_exact_mut(WORD) {
        // SAFETY: `word` is exactly 8 bytes, readable and writable; the
        // load and the store touch exactly those 8 bytes, unaligned.
        unsafe {
            let x = _mm_loadl_epi64(word.as_ptr().cast());
            _mm_storel_epi64(word.as_mut_ptr().cast(), mul_half(x, lo, hi));
        }
    }
    data.len() / WORD * WORD
}

#[target_feature(enable = "avx2")]
fn mul_add_assign_avx2(dst: &mut [u8], src: &[u8], c: u8) -> usize {
    // One length for both: every pair of blocks below is whole on both sides.
    let len = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..len], &src[..len]);
    let (lo, hi) = nibble_tables(c);
    let mut d_blocks = dst.chunks_exact_mut(BLOCK);
    let mut s_blocks = src.chunks_exact(BLOCK);
    for (d, s) in (&mut d_blocks).zip(&mut s_blocks) {
        // SAFETY: `d` and `s` are exactly 32 bytes each (`d` writable), they
        // cannot overlap (`&mut` vs `&`), and every access is unaligned.
        unsafe {
            let x = _mm256_loadu_si256(s.as_ptr().cast());
            let acc = _mm256_loadu_si256(d.as_ptr().cast());
            let sum = _mm256_xor_si256(acc, mul_block(x, lo, hi));
            _mm256_storeu_si256(d.as_mut_ptr().cast(), sum);
        }
    }
    // Tails under 32 bytes: each loop below runs at most once.
    let mut d_halves = d_blocks.into_remainder().chunks_exact_mut(16);
    let mut s_halves = s_blocks.remainder().chunks_exact(16);
    for (d, s) in (&mut d_halves).zip(&mut s_halves) {
        // SAFETY: `d` and `s` are exactly 16 bytes each (`d` writable), they
        // cannot overlap, and every access is unaligned.
        unsafe {
            let x = _mm_loadu_si128(s.as_ptr().cast());
            let acc = _mm_loadu_si128(d.as_ptr().cast());
            _mm_storeu_si128(
                d.as_mut_ptr().cast(),
                _mm_xor_si128(acc, mul_half(x, lo, hi)),
            );
        }
    }
    let d_words = d_halves.into_remainder().chunks_exact_mut(WORD);
    for (d, s) in d_words.zip(s_halves.remainder().chunks_exact(WORD)) {
        // SAFETY: `d` and `s` are exactly 8 bytes each (`d` writable) and
        // cannot overlap; each load and the store touch exactly those 8
        // bytes, unaligned.
        unsafe {
            let x = _mm_loadl_epi64(s.as_ptr().cast());
            let acc = _mm_loadl_epi64(d.as_ptr().cast());
            _mm_storel_epi64(
                d.as_mut_ptr().cast(),
                _mm_xor_si128(acc, mul_half(x, lo, hi)),
            );
        }
    }
    len / WORD * WORD
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

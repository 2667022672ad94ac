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
//! The multi-row entry points ([`mul_add_rows`], [`eliminate_column`]) run
//! a whole packed row arena per call. A row window of at most [`SHORT`]
//! bytes stays in registers for the whole pass: the sum's accumulators, or
//! the nibbles of the row being eliminated, so each row costs one table
//! load for its constant and one load (and store) per block. Longer rows
//! run row by row through the one-row body.
//!
//! This is the crate's one module that uses `std::arch`. Each entry point
//! checks for AVX2 itself, so no caller can reach the vector body on a CPU
//! without it; loads and stores go through `chunks_exact` blocks of 32, 16
//! and 8 bytes, so every access is in bounds by construction.

// SAFETY: audited per item below; the crate root denies `unsafe_code`
// everywhere else.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_castsi256_si128,
    _mm256_loadu_si256, _mm256_set1_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm_and_si128, _mm_loadl_epi64,
    _mm_loadu_si128, _mm_set1_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_srli_epi64,
    _mm_storel_epi64, _mm_storeu_si128, _mm_xor_si128,
};

use crate::tables::mul_no_table;

/// Bytes per vector block. Rows of at least [`WORD`] bytes take the vector
/// body: whole blocks first, then the 16- and 8-byte tail blocks, so the
/// codec's 40-byte coefficient rows are one block plus one 8-byte block and
/// none of their bytes reach the `u64` body (EXPERIMENTS.md, "Coefficient
/// rows at vector speed" and "Coefficient-only coding in one pass").
const BLOCK: usize = 32;

/// The shortest row the vector body takes, and the granule of its tail: the
/// codec's 1-byte payload rows skip the feature test and the table load.
const WORD: usize = 8;

/// The longest row window the multi-row bodies keep in registers for a
/// whole pass: two blocks, which holds the codec's 40 coefficients with a
/// payload of up to 24 bytes. Longer rows keep the row-by-row loop: there
/// the per-row setup is small next to the row's own arithmetic.
const SHORT: usize = 2 * BLOCK;

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

/// `dst += Σ cs[i] · rows[i·stride + off..][..dst.len()]` over a packed
/// arena the caller has checked (`cs.len()` rows of `stride` bytes, the
/// window inside a row). Returns `false`, touching nothing, without AVX2
/// or for a window shorter than a word; otherwise the whole window is
/// done, its last `len % 8` bytes through the nibble tables.
pub(crate) fn mul_add_rows(
    dst: &mut [u8],
    rows: &[u8],
    stride: usize,
    off: usize,
    cs: &[u8],
) -> bool {
    if dst.len() < WORD || !detected() {
        return false;
    }
    if dst.len() <= SHORT {
        // SAFETY: AVX2 was detected on the running CPU just above.
        unsafe { mul_add_rows_short(dst, rows, stride, off, cs) };
    } else {
        let len = dst.len();
        for (row, &c) in rows.chunks_exact(stride).zip(cs) {
            if c != 0 {
                let src = &row[off..off + len];
                // SAFETY: AVX2 was detected on the running CPU just above.
                let done = unsafe { mul_add_assign_avx2(dst, src, c) };
                crate::slice::mul_add_assign(&mut dst[done..], &src[done..], c);
            }
        }
    }
    true
}

/// For every `src.len()`-byte row of `rows` (checked by the caller),
/// `row += row[col] · src`, the multiplier read before the row changes.
/// Returns `false`, touching nothing, without AVX2 or for rows shorter
/// than a word; otherwise every row is done.
pub(crate) fn eliminate_column(rows: &mut [u8], src: &[u8], col: usize) -> bool {
    if src.len() < WORD || !detected() {
        return false;
    }
    if src.len() <= SHORT {
        // SAFETY: AVX2 was detected on the running CPU just above.
        unsafe { eliminate_column_short(rows, src, col) };
    } else {
        for row in rows.chunks_exact_mut(src.len()) {
            let c = row[col];
            if c != 0 {
                // SAFETY: AVX2 was detected on the running CPU just above.
                let done = unsafe { mul_add_assign_avx2(row, src, c) };
                crate::slice::mul_add_assign(&mut row[done..], &src[done..], c);
            }
        }
    }
    true
}

/// `c·x` for one byte, from the same nibble tables: the scalar tail of
/// the multi-row bodies.
fn mul_byte(c: u8, x: u8) -> u8 {
    let table = &NIBBLES.0[usize::from(c)];
    table[usize::from(x & 0x0f)] ^ table[16 + usize::from(x >> 4)]
}

/// The two shuffle tables of `c`, each broadcast to both 128-bit lanes
/// (`vpshufb` looks up within a lane) straight from memory, so a multi-row
/// pass pays two loads per row for them and no shuffle.
#[target_feature(enable = "avx2")]
fn nibble_tables(c: u8) -> (__m256i, __m256i) {
    let (low, high) = NIBBLES.0[usize::from(c)].split_at(16);
    // SAFETY: `low` and `high` are 16 readable bytes each and both loads
    // are unaligned.
    unsafe {
        (
            _mm256_broadcastsi128_si256(_mm_loadu_si128(low.as_ptr().cast())),
            _mm256_broadcastsi128_si256(_mm_loadu_si128(high.as_ptr().cast())),
        )
    }
}

/// The low and high nibbles of all 32 byte lanes of `x`, each in the low
/// four bits of its lane: the shuffle indices of [`mul_block`].
#[target_feature(enable = "avx2")]
fn nibbles_block(x: __m256i) -> (__m256i, __m256i) {
    let mask = _mm256_set1_epi8(0x0f);
    // The 64-bit shift drags bits across byte lanes; the mask drops them.
    (
        _mm256_and_si256(x, mask),
        _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask),
    )
}

/// `c·x` in all 32 byte lanes, from `x`'s [`nibbles_block`].
#[target_feature(enable = "avx2")]
fn lookup_block((low, high): (__m256i, __m256i), lo: __m256i, hi: __m256i) -> __m256i {
    _mm256_xor_si256(_mm256_shuffle_epi8(lo, low), _mm256_shuffle_epi8(hi, high))
}

/// `c·x` in all 32 byte lanes of `x`.
#[target_feature(enable = "avx2")]
fn mul_block(x: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
    lookup_block(nibbles_block(x), lo, hi)
}

/// The 16-lane [`nibbles_block`].
#[target_feature(enable = "avx2")]
fn nibbles_half(x: __m128i) -> (__m128i, __m128i) {
    let mask = _mm_set1_epi8(0x0f);
    (
        _mm_and_si128(x, mask),
        _mm_and_si128(_mm_srli_epi64::<4>(x), mask),
    )
}

/// `c·x` in all 16 byte lanes, from `x`'s [`nibbles_half`] and the low
/// halves of the broadcast tables [`nibble_tables`] returns (both halves
/// are the same table).
#[target_feature(enable = "avx2")]
fn lookup_half((low, high): (__m128i, __m128i), lo: __m256i, hi: __m256i) -> __m128i {
    _mm_xor_si128(
        _mm_shuffle_epi8(_mm256_castsi256_si128(lo), low),
        _mm_shuffle_epi8(_mm256_castsi256_si128(hi), high),
    )
}

/// `c·x` in all 16 byte lanes of `x`.
#[target_feature(enable = "avx2")]
fn mul_half(x: __m128i, lo: __m256i, hi: __m256i) -> __m128i {
    lookup_half(nibbles_half(x), lo, hi)
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

/// [`mul_add_rows`] for a window of `WORD..=SHORT` bytes: the sum builds
/// in registers (two blocks, one 16- and one 8-byte block, and up to seven
/// scalar bytes, each used exactly when the window has that block) and
/// reaches `dst` once, at the end.
#[target_feature(enable = "avx2")]
fn mul_add_rows_short(dst: &mut [u8], rows: &[u8], stride: usize, off: usize, cs: &[u8]) {
    let len = dst.len();
    debug_assert!((WORD..=SHORT).contains(&len));
    let mut blocks = [_mm256_setzero_si256(); SHORT / BLOCK];
    let mut half = _mm_setzero_si128();
    let mut word = _mm_setzero_si128();
    let mut tail = [0u8; WORD];
    for (row, &c) in rows.chunks_exact(stride).zip(cs) {
        if c == 0 {
            continue;
        }
        let (lo, hi) = nibble_tables(c);
        let mut s_blocks = row[off..off + len].chunks_exact(BLOCK);
        for (acc, s) in blocks.iter_mut().zip(&mut s_blocks) {
            // SAFETY: `s` is exactly 32 readable bytes; the load is
            // unaligned.
            let x = unsafe { _mm256_loadu_si256(s.as_ptr().cast()) };
            *acc = _mm256_xor_si256(*acc, mul_block(x, lo, hi));
        }
        let mut s_halves = s_blocks.remainder().chunks_exact(16);
        if let Some(s) = s_halves.next() {
            // SAFETY: `s` is exactly 16 readable bytes; the load is
            // unaligned.
            let x = unsafe { _mm_loadu_si128(s.as_ptr().cast()) };
            half = _mm_xor_si128(half, mul_half(x, lo, hi));
        }
        let mut s_words = s_halves.remainder().chunks_exact(WORD);
        if let Some(s) = s_words.next() {
            // SAFETY: `s` is exactly 8 readable bytes and the load touches
            // exactly those, unaligned.
            let x = unsafe { _mm_loadl_epi64(s.as_ptr().cast()) };
            word = _mm_xor_si128(word, mul_half(x, lo, hi));
        }
        for (t, &x) in tail.iter_mut().zip(s_words.remainder()) {
            *t ^= mul_byte(c, x);
        }
    }
    // Into `dst`, block for block as the rows were read.
    let mut d_blocks = dst.chunks_exact_mut(BLOCK);
    for (acc, d) in blocks.iter().zip(&mut d_blocks) {
        // SAFETY: `d` is exactly 32 readable and writable bytes; both
        // accesses are unaligned.
        unsafe {
            let sum = _mm256_xor_si256(_mm256_loadu_si256(d.as_ptr().cast()), *acc);
            _mm256_storeu_si256(d.as_mut_ptr().cast(), sum);
        }
    }
    let mut d_halves = d_blocks.into_remainder().chunks_exact_mut(16);
    if let Some(d) = d_halves.next() {
        // SAFETY: `d` is exactly 16 readable and writable bytes; both
        // accesses are unaligned.
        unsafe {
            let sum = _mm_xor_si128(_mm_loadu_si128(d.as_ptr().cast()), half);
            _mm_storeu_si128(d.as_mut_ptr().cast(), sum);
        }
    }
    let mut d_words = d_halves.into_remainder().chunks_exact_mut(WORD);
    if let Some(d) = d_words.next() {
        // SAFETY: `d` is exactly 8 readable and writable bytes; the load
        // and the store touch exactly those, unaligned.
        unsafe {
            let sum = _mm_xor_si128(_mm_loadl_epi64(d.as_ptr().cast()), word);
            _mm_storel_epi64(d.as_mut_ptr().cast(), sum);
        }
    }
    for (d, t) in d_words.into_remainder().iter_mut().zip(tail) {
        *d ^= t;
    }
}

/// [`eliminate_column`] for rows of `WORD..=SHORT` bytes: `src`'s nibbles
/// are split once, into registers, so each row costs its constant's
/// tables, two shuffles per block and the row's own load and store.
#[target_feature(enable = "avx2")]
fn eliminate_column_short(rows: &mut [u8], src: &[u8], col: usize) {
    let len = src.len();
    debug_assert!((WORD..=SHORT).contains(&len));
    let zero = _mm256_setzero_si256();
    let mut blocks = [(zero, zero); SHORT / BLOCK];
    let mut s_blocks = src.chunks_exact(BLOCK);
    for (nib, s) in blocks.iter_mut().zip(&mut s_blocks) {
        // SAFETY: `s` is exactly 32 readable bytes; the load is unaligned.
        *nib = nibbles_block(unsafe { _mm256_loadu_si256(s.as_ptr().cast()) });
    }
    let mut s_halves = s_blocks.remainder().chunks_exact(16);
    let half = s_halves.next().map(|s| {
        // SAFETY: `s` is exactly 16 readable bytes; the load is unaligned.
        nibbles_half(unsafe { _mm_loadu_si128(s.as_ptr().cast()) })
    });
    let mut s_words = s_halves.remainder().chunks_exact(WORD);
    let word = s_words.next().map(|s| {
        // SAFETY: `s` is exactly 8 readable bytes and the load touches
        // exactly those, unaligned.
        nibbles_half(unsafe { _mm_loadl_epi64(s.as_ptr().cast()) })
    });
    let tail = s_words.remainder();
    for row in rows.chunks_exact_mut(len) {
        let c = row[col];
        if c == 0 {
            continue;
        }
        let (lo, hi) = nibble_tables(c);
        let mut r_blocks = row.chunks_exact_mut(BLOCK);
        for (&nib, r) in blocks.iter().zip(&mut r_blocks) {
            // SAFETY: `r` is exactly 32 readable and writable bytes; both
            // accesses are unaligned.
            unsafe {
                let sum = _mm256_xor_si256(
                    _mm256_loadu_si256(r.as_ptr().cast()),
                    lookup_block(nib, lo, hi),
                );
                _mm256_storeu_si256(r.as_mut_ptr().cast(), sum);
            }
        }
        let mut r_halves = r_blocks.into_remainder().chunks_exact_mut(16);
        if let (Some(nib), Some(r)) = (half, r_halves.next()) {
            // SAFETY: `r` is exactly 16 readable and writable bytes; both
            // accesses are unaligned.
            unsafe {
                let sum =
                    _mm_xor_si128(_mm_loadu_si128(r.as_ptr().cast()), lookup_half(nib, lo, hi));
                _mm_storeu_si128(r.as_mut_ptr().cast(), sum);
            }
        }
        let mut r_words = r_halves.into_remainder().chunks_exact_mut(WORD);
        if let (Some(nib), Some(r)) = (word, r_words.next()) {
            // SAFETY: `r` is exactly 8 readable and writable bytes; the load
            // and the store touch exactly those, unaligned.
            unsafe {
                let sum =
                    _mm_xor_si128(_mm_loadl_epi64(r.as_ptr().cast()), lookup_half(nib, lo, hi));
                _mm_storel_epi64(r.as_mut_ptr().cast(), sum);
            }
        }
        for (r, &x) in r_words.into_remainder().iter_mut().zip(tail) {
            *r ^= mul_byte(c, x);
        }
    }
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

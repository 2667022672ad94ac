//! The accelerated coding kernels: wide multiplication, many bytes of a row
//! per instruction.
//!
//! The paper (Sec. 4, *Accelerated network coding*) replaces the lookup-table
//! matrix multiplication with a loop-based multiplication in Rijndael's field
//! that processes multiple bytes of a row per instruction using x86 SIMD, and
//! reports a 3–5x speedup. [`mul_assign`] and [`mul_add_assign`] have two
//! bodies and pick one per call from what they can observe:
//!
//! * on x86-64 with AVX2 (detected at run time), rows of at least 8 bytes
//!   go through a split-nibble `vpshufb` body that multiplies 32 bytes per
//!   instruction and finishes the row's tail with one 16-byte and one
//!   8-byte block of the same tables, so a 40-byte coefficient row is
//!   32 + 8 bytes of vector work and only the last `len % 8` bytes of any
//!   row are left, to the table kernel ([`backend`] reports `"avx2"`);
//! * everywhere else each `u64` word holds eight field elements and the
//!   Russian-peasant multiply runs on all eight lanes with bit masks ("SIMD
//!   within a register"; [`backend`] reports `"u64"`).
//!
//! The kernels are drop-in replacements for the ones in [`crate::slice`] and
//! produce bit-identical results, which the test-suite verifies exhaustively
//! (every constant, length and offset, through both bodies).

#[cfg(target_arch = "x86_64")]
use crate::avx2 as vector;

/// What every other platform has in place of the vector body: nothing (it
/// covers 0 bytes), so the `u64` body covers the whole row.
#[cfg(not(target_arch = "x86_64"))]
mod vector {
    pub(crate) fn detected() -> bool {
        false
    }
    pub(crate) fn mul_assign(_data: &mut [u8], _c: u8) -> usize {
        0
    }
    pub(crate) fn mul_add_assign(_dst: &mut [u8], _src: &[u8], _c: u8) -> usize {
        0
    }
}

/// The body [`mul_assign`] and [`mul_add_assign`] run for rows of 8 bytes
/// or more on this host: `"avx2"` (32 bytes per instruction) or `"u64"`
/// (8 bytes per word).
#[must_use]
pub fn backend() -> &'static str {
    if vector::detected() {
        "avx2"
    } else {
        "u64"
    }
}

const LANE_MSB: u64 = 0x8080_8080_8080_8080;
const LANE_LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Multiplies each of the eight byte lanes of `word` by the polynomial `x`
/// (i.e. doubles each lane in GF(2^8)), reducing lanes that overflow by the
/// Rijndael polynomial.
#[inline]
fn xtimes_lanes(word: u64) -> u64 {
    let hi = word & LANE_MSB;
    // Shift every lane left by one (dropping each lane's msb so no bit crosses
    // into the neighbouring lane), then xor the reduction polynomial 0x1b into
    // the lanes whose msb was set. `(hi >> 7) * 0x1b` broadcasts 0x1b into
    // exactly those lanes; products never overlap because 0x1b < 0x80.
    ((word & LANE_LOW7) << 1) ^ ((hi >> 7).wrapping_mul(0x1b))
}

/// Multiplies all eight byte lanes of `word` by the constant `c`.
///
/// ```
/// # use omnc_gf256::{wide, Gf256};
/// let w = u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]);
/// let out = wide::mul_word(w, 0x57).to_le_bytes();
/// for (i, b) in out.iter().enumerate() {
///     assert_eq!(*b, (Gf256::new((i + 1) as u8) * Gf256::new(0x57)).as_u8());
/// }
/// ```
#[inline]
pub fn mul_word(word: u64, c: u8) -> u64 {
    let mut acc = 0u64;
    let mut a = word;
    let mut k = c;
    while k != 0 {
        if k & 1 != 0 {
            acc ^= a;
        }
        a = xtimes_lanes(a);
        k >>= 1;
    }
    acc
}

/// Multiplies every byte of `data` by the constant `c`, in place, with the
/// widest body this host has for a row of that length.
///
/// ```
/// # use omnc_gf256::wide;
/// let mut buf = [1u8, 2, 3];
/// wide::mul_assign(&mut buf, 2);
/// assert_eq!(buf, [2, 4, 6]);
/// ```
pub fn mul_assign(data: &mut [u8], c: u8) {
    match c {
        0 => data.fill(0),
        1 => {}
        _ => {
            // The vector body covers the whole row or all of it but fewer
            // than 8 bytes, which the table kernel finishes.
            match vector::mul_assign(data, c) {
                0 => mul_assign_u64(data, c),
                done => crate::slice::mul_assign(&mut data[done..], c),
            }
        }
    }
}

/// The portable body of [`mul_assign`]: eight bytes per loop iteration.
fn mul_assign_u64(data: &mut [u8], c: u8) {
    let mut chunks = data.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        chunk.copy_from_slice(&mul_word(w, c).to_le_bytes());
    }
    crate::slice::mul_assign(chunks.into_remainder(), c);
}

/// Adds (XORs) `src` into `dst`, eight bytes at a time.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    let mut d_chunks = dst.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        let w = u64::from_le_bytes(d.try_into().expect("chunk of 8"))
            ^ u64::from_le_bytes(s.try_into().expect("chunk of 8"));
        d.copy_from_slice(&w.to_le_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= s;
    }
}

/// Computes `dst += c * src` with the wide kernel — the hot loop of encoding
/// and progressive decoding.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// # use omnc_gf256::wide;
/// let mut acc = [0u8; 4];
/// wide::mul_add_assign(&mut acc, &[1, 2, 3, 4], 3);
/// assert_eq!(acc, [3, 6, 5, 12]);
/// ```
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) {
    // A row shorter than one word has no wide body to run; it goes straight
    // to the table kernel, which also makes the length and constant checks.
    // The codec's 1-byte payload rows (coefficient-only runs) cost 3 ns this
    // way against 8 ns through the dispatch below.
    if dst.len() < 8 {
        return crate::slice::mul_add_assign(dst, src, c);
    }
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => {}
        1 => add_assign(dst, src),
        _ => {
            // As in `mul_assign`: the table kernel finishes a vector row.
            match vector::mul_add_assign(dst, src, c) {
                0 => mul_add_assign_u64(dst, src, c),
                done => crate::slice::mul_add_assign(&mut dst[done..], &src[done..], c),
            }
        }
    }
}

/// The portable body of [`mul_add_assign`], for equally long slices.
fn mul_add_assign_u64(dst: &mut [u8], src: &[u8], c: u8) {
    // Four independent 8-lane accumulators per iteration: the
    // Russian-peasant recurrence is a serial dependency chain within one
    // word, so interleaving four words restores the instruction-level
    // parallelism a single word lacks.
    let mut d_blocks = dst.chunks_exact_mut(32);
    let mut s_blocks = src.chunks_exact(32);
    for (d, s) in (&mut d_blocks).zip(&mut s_blocks) {
        let mut a = [0u64; 4];
        let mut acc = [0u64; 4];
        for k in 0..4 {
            a[k] = u64::from_le_bytes(s[8 * k..8 * k + 8].try_into().expect("8"));
        }
        let mut bits = c;
        while bits != 0 {
            if bits & 1 != 0 {
                for k in 0..4 {
                    acc[k] ^= a[k];
                }
            }
            for lane in &mut a {
                *lane = xtimes_lanes(*lane);
            }
            bits >>= 1;
        }
        for k in 0..4 {
            let dw = u64::from_le_bytes(d[8 * k..8 * k + 8].try_into().expect("8"));
            d[8 * k..8 * k + 8].copy_from_slice(&(dw ^ acc[k]).to_le_bytes());
        }
    }
    let d_rem = d_blocks.into_remainder();
    let s_rem = s_blocks.remainder();
    let mut d_chunks = d_rem.chunks_exact_mut(8);
    let mut s_chunks = s_rem.chunks_exact(8);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        let dw = u64::from_le_bytes(d.try_into().expect("chunk of 8"));
        let sw = u64::from_le_bytes(s.try_into().expect("chunk of 8"));
        d.copy_from_slice(&(dw ^ mul_word(sw, c)).to_le_bytes());
    }
    crate::slice::mul_add_assign(d_chunks.into_remainder(), s_chunks.remainder(), c);
}

/// Divides every byte of `data` by `c`, in place, using the wide kernel.
///
/// # Panics
///
/// Panics if `c` is zero.
pub fn div_assign(data: &mut [u8], c: u8) {
    let inv = crate::Gf256::new(c)
        .inv()
        .expect("division by zero in GF(2^8)")
        .as_u8();
    mul_assign(data, inv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice;
    use proptest::prelude::*;

    #[test]
    fn mul_word_matches_scalar_for_all_constants() {
        let word = u64::from_le_bytes([0x00, 0x01, 0x53, 0x80, 0xca, 0xfe, 0x57, 0xff]);
        let bytes = word.to_le_bytes();
        for c in 0..=255u8 {
            let got = mul_word(word, c).to_le_bytes();
            for i in 0..8 {
                let want = (crate::Gf256::new(bytes[i]) * crate::Gf256::new(c)).as_u8();
                assert_eq!(got[i], want, "c={c} lane={i}");
            }
        }
    }

    #[test]
    fn xtimes_matches_mul_by_two() {
        for b in 0..=255u8 {
            let w = u64::from_le_bytes([b; 8]);
            let got = xtimes_lanes(w).to_le_bytes();
            let want = (crate::Gf256::new(b) * crate::Gf256::new(2)).as_u8();
            assert_eq!(got, [want; 8], "b={b}");
        }
    }

    #[test]
    fn unaligned_tails_are_handled() {
        for len in 0..32 {
            let src: Vec<u8> = (0..len as u8)
                .map(|i| i.wrapping_mul(37).wrapping_add(1))
                .collect();
            let mut a = src.clone();
            let mut b = src.clone();
            mul_assign(&mut a, 0x9d);
            slice::mul_assign(&mut b, 0x9d);
            assert_eq!(a, b, "len={len}");
        }
    }

    /// Both operations against the [`slice`] oracle for every constant,
    /// every length 0..=100 and every source/destination offset 0..=3 into
    /// a larger buffer: unaligned heads, every tail, and (the whole buffer
    /// is compared) no byte written outside the row.
    fn check_against_the_table(
        mul: impl Fn(&mut [u8], u8),
        mul_add: impl Fn(&mut [u8], &[u8], u8),
    ) {
        let mut src_buf = [0u8; 104];
        let mut dst_buf = [0u8; 104];
        for i in 0..104u8 {
            // Zero and the top bit both occur: the table's special cases
            // and the reduction step.
            src_buf[usize::from(i)] = i.wrapping_mul(73).wrapping_sub(73);
            dst_buf[usize::from(i)] = i.wrapping_mul(151) ^ 0x5a;
        }
        for c in 0..=255u8 {
            for len in 0..=100usize {
                for d_off in 0..=3usize {
                    let mut got = dst_buf;
                    let mut want = dst_buf;
                    mul(&mut got[d_off..d_off + len], c);
                    slice::mul_assign(&mut want[d_off..d_off + len], c);
                    assert_eq!(got, want, "mul c={c} len={len} off={d_off}");
                    for s_off in 0..=3usize {
                        let src = &src_buf[s_off..s_off + len];
                        let mut got = dst_buf;
                        let mut want = dst_buf;
                        mul_add(&mut got[d_off..d_off + len], src, c);
                        slice::mul_add_assign(&mut want[d_off..d_off + len], src, c);
                        assert_eq!(
                            got, want,
                            "mul_add c={c} len={len} dst off={d_off} src off={s_off}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dispatching_kernels_equal_the_table_exhaustively() {
        check_against_the_table(mul_assign, mul_add_assign);
    }

    /// The body every host without AVX2 runs, called directly so it is
    /// tested on hosts that have it too.
    #[test]
    fn portable_body_equals_the_table_exhaustively() {
        check_against_the_table(mul_assign_u64, mul_add_assign_u64);
    }

    proptest! {
        #[test]
        fn wide_mul_assign_equals_table(
            mut data in proptest::collection::vec(any::<u8>(), 0..256),
            c in any::<u8>(),
        ) {
            let mut reference = data.clone();
            slice::mul_assign(&mut reference, c);
            mul_assign(&mut data, c);
            prop_assert_eq!(data, reference);
        }

        #[test]
        fn wide_mul_add_assign_equals_table(
            src in proptest::collection::vec(any::<u8>(), 0..256),
            c in any::<u8>(),
            salt in any::<u8>(),
        ) {
            let dst: Vec<u8> = src.iter().map(|b| b.rotate_left(3) ^ salt).collect();
            let mut a = dst.clone();
            let mut b = dst;
            slice::mul_add_assign(&mut a, &src, c);
            mul_add_assign(&mut b, &src, c);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn wide_add_assign_equals_table(
            src in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let dst: Vec<u8> = src.iter().map(|b| b.wrapping_mul(17)).collect();
            let mut a = dst.clone();
            let mut b = dst;
            slice::add_assign(&mut a, &src);
            add_assign(&mut b, &src);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn wide_div_undoes_wide_mul(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            c in 1u8..,
        ) {
            let mut buf = data.clone();
            mul_assign(&mut buf, c);
            div_assign(&mut buf, c);
            prop_assert_eq!(buf, data);
        }
    }
}

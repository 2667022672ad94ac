//! The accelerated coding kernels: wide multiplication, many bytes of a row
//! per instruction.
//!
//! The paper (Sec. 4, *Accelerated network coding*) replaces the lookup-table
//! matrix multiplication with a loop-based multiplication in Rijndael's field
//! that processes multiple bytes of a row per instruction using x86 SIMD, and
//! reports a 3–5x speedup. Four entry points share two bodies and pick one
//! per call from what they can observe:
//!
//! * [`mul_assign`] and [`mul_add_assign`] work on one row;
//! * [`mul_add_rows`] (`dst += Σ cᵢ · rowᵢ[off..off + len]`) and
//!   [`eliminate_column`] (for every row, `row += row[col] · src`) work on
//!   a whole packed row arena in one call, so that a codec pass over short
//!   rows pays the dispatch once, not once per row.
//!
//! The bodies:
//!
//! * on x86-64 with AVX2 (detected at run time), rows of at least 8 bytes
//!   go through a split-nibble `vpshufb` body that multiplies 32 bytes per
//!   instruction and finishes the row's tail with one 16-byte and one
//!   8-byte block of the same tables, so a 40-byte coefficient row is
//!   32 + 8 bytes of vector work and only the last `len % 8` bytes of any
//!   row are left, to the table kernel ([`backend`] reports `"avx2"`). The
//!   multi-row entry points keep a row window of at most 64 bytes in
//!   registers for the whole pass; longer rows run row by row;
//! * everywhere else each `u64` word holds eight field elements and the
//!   Russian-peasant multiply runs on all eight lanes with bit masks ("SIMD
//!   within a register"; [`backend`] reports `"u64"`), row by row.
//!
//! Rows shorter than 8 bytes have no wide body and take the table kernel's
//! per-row loops ([`crate::slice::mul_add_rows`],
//! [`crate::slice::eliminate_column`]).
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
    pub(crate) fn mul_add_rows(
        _dst: &mut [u8],
        _rows: &[u8],
        _stride: usize,
        _off: usize,
        _cs: &[u8],
    ) -> bool {
        false
    }
    pub(crate) fn eliminate_column(_rows: &mut [u8], _src: &[u8], _col: usize) -> bool {
        false
    }
}

/// Rows shorter than this have no wide body: the table kernel takes them.
const WORD: usize = 8;

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
    if dst.len() < WORD {
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

/// Computes `dst += Σ cs[i] · rows[i·stride + off..][..dst.len()]` over a
/// packed row arena of `cs.len()` rows of `stride` bytes, with the widest
/// body this host has: the multi-row form of [`mul_add_assign`] that a
/// codec's elimination and recoding passes make once per pass.
///
/// # Panics
///
/// Panics if `rows` is not `cs.len()` rows of `stride` bytes or the window
/// `off..off + dst.len()` does not fit in a row.
///
/// ```
/// # use omnc_gf256::wide;
/// let mut acc = [0u8; 2];
/// wide::mul_add_rows(&mut acc, &[9, 1, 2, 9, 3, 4], 3, 1, &[1, 2]);
/// assert_eq!(acc, [1 ^ 6, 2 ^ 8]);
/// ```
pub fn mul_add_rows(dst: &mut [u8], rows: &[u8], stride: usize, off: usize, cs: &[u8]) {
    if dst.len() < WORD {
        return crate::slice::mul_add_rows(dst, rows, stride, off, cs);
    }
    crate::slice::check_rows(dst.len(), rows.len(), stride, off, cs.len());
    if !vector::mul_add_rows(dst, rows, stride, off, cs) {
        mul_add_rows_u64(dst, rows, stride, off, cs);
    }
}

/// The portable body of [`mul_add_rows`]: the `u64` body row by row.
fn mul_add_rows_u64(dst: &mut [u8], rows: &[u8], stride: usize, off: usize, cs: &[u8]) {
    let len = dst.len();
    for (row, &c) in rows.chunks_exact(stride).zip(cs) {
        if c != 0 {
            mul_add_assign_u64(dst, &row[off..off + len], c);
        }
    }
}

/// Adds `row[col] · src` to every `src.len()`-byte row of `rows`, reading
/// each row's multiplier before the row changes, with the widest body this
/// host has. With `src[col] == 1` this clears column `col` everywhere: the
/// back-substitution that keeps a decoder's matrix reduced, in one call.
///
/// # Panics
///
/// Panics if `rows` is not a whole number of `src.len()`-byte rows or
/// `col` is outside a row (unless there are no rows).
///
/// ```
/// # use omnc_gf256::wide;
/// let mut rows = [3u8, 5, 0, 7];
/// wide::eliminate_column(&mut rows, &[1, 2], 0);
/// assert_eq!(rows, [0, 5 ^ 6, 0, 7]);
/// ```
pub fn eliminate_column(rows: &mut [u8], src: &[u8], col: usize) {
    if src.len() < WORD {
        return crate::slice::eliminate_column(rows, src, col);
    }
    crate::slice::check_column(rows.len(), src.len(), col);
    if !vector::eliminate_column(rows, src, col) {
        eliminate_column_u64(rows, src, col);
    }
}

/// The portable body of [`eliminate_column`]: the `u64` body row by row.
fn eliminate_column_u64(rows: &mut [u8], src: &[u8], col: usize) {
    for row in rows.chunks_exact_mut(src.len()) {
        let c = row[col];
        if c != 0 {
            mul_add_assign_u64(row, src, c);
        }
    }
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
        for len in 0..32u8 {
            let src: Vec<u8> = (0..len)
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

    /// Window lengths worth checking in a row of `room` bytes after the
    /// window's offset: empty, the table-only lengths, both ends of the
    /// register cut (64), the block edges and the whole room.
    fn window_lengths(room: usize) -> impl Iterator<Item = usize> {
        [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 41, 63, 64, 65, room]
            .into_iter()
            .filter(move |&len| len <= room)
    }

    /// Both multi-row operations against a per-row loop of the [`slice`]
    /// kernel, for every stride 1..=96, every window offset, 0..=5 rows
    /// whose multipliers include zero and one, and (the whole buffer is
    /// compared) no byte written outside the window.
    fn check_rows_against_the_table(
        mul_add_rows: impl Fn(&mut [u8], &[u8], usize, usize, &[u8]),
        eliminate_column: impl Fn(&mut [u8], &[u8], usize),
    ) {
        const ROWS: usize = 5;
        let mut arena = [0u8; 96 * ROWS];
        let mut seed = 0u8;
        for b in &mut arena {
            seed = seed.wrapping_mul(29).wrapping_add(71);
            // One byte in eight is zero: rows whose multiplier column is
            // zero are skipped by every body.
            *b = if seed.is_multiple_of(8) { 0 } else { seed };
        }
        let mut dst_buf = [0u8; 104];
        for (i, b) in (0u8..).zip(&mut dst_buf) {
            *b = i.wrapping_mul(151) ^ 0x5a;
        }
        for (stride, s) in (1..=96usize).zip(1u8..) {
            let cs_all = [0, 1, s.wrapping_mul(7) | 0x80, 0, s.wrapping_mul(13) ^ 3];
            for rows in 0..=ROWS {
                let arena = &arena[..rows * stride];
                let cs = &cs_all[..rows];
                for off in 0..=stride {
                    for len in window_lengths(stride - off) {
                        let mut got = dst_buf;
                        let mut want = dst_buf;
                        mul_add_rows(&mut got[3..3 + len], arena, stride, off, cs);
                        for (row, &c) in arena.chunks_exact(stride).zip(cs) {
                            slice::mul_add_assign(&mut want[3..3 + len], &row[off..off + len], c);
                        }
                        assert_eq!(
                            got, want,
                            "mul_add_rows stride={stride} rows={rows} off={off} len={len}"
                        );
                    }
                }
                let src = &dst_buf[8..8 + stride];
                for col in 0..stride {
                    let mut got = arena.to_vec();
                    let mut want = arena.to_vec();
                    eliminate_column(&mut got, src, col);
                    for row in want.chunks_exact_mut(stride) {
                        let c = row[col];
                        slice::mul_add_assign(row, src, c);
                    }
                    assert_eq!(
                        got, want,
                        "eliminate_column stride={stride} rows={rows} col={col}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_row_kernels_equal_the_per_row_table() {
        check_rows_against_the_table(mul_add_rows, eliminate_column);
    }

    /// The multi-row bodies every host without AVX2 runs, called directly
    /// so they are tested on hosts that have it too.
    #[test]
    fn portable_multi_row_bodies_equal_the_per_row_table() {
        check_rows_against_the_table(mul_add_rows_u64, eliminate_column_u64);
    }

    #[test]
    fn multi_row_shapes_are_checked() {
        let caught = |f: fn()| std::panic::catch_unwind(f).is_err();
        assert!(caught(|| mul_add_rows(
            &mut [0; 8],
            &[0; 16],
            8,
            1,
            &[1, 1]
        )));
        assert!(caught(|| mul_add_rows(
            &mut [0; 8],
            &[0; 15],
            8,
            0,
            &[1, 1]
        )));
        assert!(caught(|| eliminate_column(&mut [0; 17], &[0; 8], 0)));
        assert!(caught(|| eliminate_column(&mut [0; 16], &[0; 8], 8)));
        // No rows: nothing to read a column from.
        eliminate_column(&mut [], &[0; 8], 8);
        mul_add_rows(&mut [], &[], 0, 0, &[]);
    }

    proptest! {
        #[test]
        fn wide_multi_row_ops_equal_table(
            arena in proptest::collection::vec(any::<u8>(), 0..8 * 70 + 1),
            cs in proptest::collection::vec(any::<u8>(), 8..9),
            stride in 1usize..=70,
            off in 0usize..70,
            col in 0usize..70,
        ) {
            let rows = arena.len() / stride;
            let arena = &arena[..rows * stride];
            let cs = &cs[..rows.min(8)];
            let arena = &arena[..cs.len() * stride];
            let off = off % stride;
            let mut got = vec![0x3cu8; stride - off];
            let mut want = got.clone();
            mul_add_rows(&mut got, arena, stride, off, cs);
            slice::mul_add_rows(&mut want, arena, stride, off, cs);
            prop_assert_eq!(got, want);
            let src: Vec<u8> = (0..stride).map(|i| arena.get(i).map_or(1, |b| b ^ 0x11)).collect();
            let (mut got, mut want) = (arena.to_vec(), arena.to_vec());
            eliminate_column(&mut got, &src, col % stride);
            slice::eliminate_column(&mut want, &src, col % stride);
            prop_assert_eq!(got, want);
        }

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

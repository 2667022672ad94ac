//! Lookup-table slice kernels — the paper's baseline coding implementation.
//!
//! Every routine here operates byte-by-byte through the [`EXP`]/[`LOG`]
//! tables. These are the kernels the paper's Sec. 4 calls "the traditional
//! lookup-table approach"; the accelerated counterparts live in [`crate::wide`].
//!
//! All functions take raw `&[u8]` buffers: packet payloads are byte blocks and
//! interpreting them as [`crate::Gf256`] lanes is zero-cost.

use crate::tables::{EXP, LOG};

/// Multiplies every byte of `data` by the constant `c`, in place.
///
/// ```
/// # use omnc_gf256::slice;
/// let mut buf = [1u8, 2, 3];
/// slice::mul_assign(&mut buf, 2);
/// assert_eq!(buf, [2, 4, 6]);
/// ```
pub fn mul_assign(data: &mut [u8], c: u8) {
    match c {
        0 => data.fill(0),
        1 => {}
        _ => {
            let lc = LOG[c as usize] as usize;
            for b in data.iter_mut() {
                if *b != 0 {
                    *b = EXP[LOG[*b as usize] as usize + lc];
                }
            }
        }
    }
}

/// Adds (XORs) `src` into `dst` element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Computes `dst += c * src`, the inner loop of every encode, re-encode and
/// Gauss-Jordan elimination step.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// # use omnc_gf256::slice;
/// let mut acc = [0u8; 4];
/// slice::mul_add_assign(&mut acc, &[1, 2, 3, 4], 3);
/// assert_eq!(acc, [3, 6, 5, 12]);
/// ```
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        0 => {}
        1 => add_assign(dst, src),
        _ => {
            let lc = LOG[c as usize] as usize;
            for (d, s) in dst.iter_mut().zip(src) {
                if *s != 0 {
                    *d ^= EXP[LOG[*s as usize] as usize + lc];
                }
            }
        }
    }
}

/// Computes `dst += Σ cs[i] · rows[i·stride + off..][..dst.len()]`: a
/// window of every row of a packed row arena (`cs.len()` rows of `stride`
/// bytes each), weighted and summed into `dst`, one row at a time.
///
/// # Panics
///
/// Panics if `rows` is not `cs.len()` rows of `stride` bytes or the window
/// `off..off + dst.len()` does not fit in a row.
///
/// ```
/// # use omnc_gf256::slice;
/// let mut acc = [0u8; 2];
/// slice::mul_add_rows(&mut acc, &[9, 1, 2, 9, 3, 4], 3, 1, &[1, 2]);
/// assert_eq!(acc, [1 ^ 6, 2 ^ 8]);
/// ```
pub fn mul_add_rows(dst: &mut [u8], rows: &[u8], stride: usize, off: usize, cs: &[u8]) {
    check_rows(dst.len(), rows.len(), stride, off, cs.len());
    if dst.is_empty() {
        return;
    }
    let len = dst.len();
    for (row, &c) in rows.chunks_exact(stride).zip(cs) {
        mul_add_assign(dst, &row[off..off + len], c);
    }
}

/// Adds `row[col] · src` to every `src.len()`-byte row of `rows`, reading
/// each row's multiplier before the row changes. With `src[col] == 1`
/// this clears column `col` everywhere: Gauss-Jordan back-substitution.
///
/// # Panics
///
/// Panics if `rows` is not a whole number of `src.len()`-byte rows or
/// `col` is outside a row (unless there are no rows).
///
/// ```
/// # use omnc_gf256::slice;
/// let mut rows = [3u8, 5, 0, 7];
/// slice::eliminate_column(&mut rows, &[1, 2], 0);
/// assert_eq!(rows, [0, 5 ^ 6, 0, 7]);
/// ```
pub fn eliminate_column(rows: &mut [u8], src: &[u8], col: usize) {
    check_column(rows.len(), src.len(), col);
    if rows.is_empty() {
        return;
    }
    for row in rows.chunks_exact_mut(src.len()) {
        let c = row[col];
        mul_add_assign(row, src, c);
    }
}

/// The shape checks of [`mul_add_rows`] and its wide counterparts.
pub(crate) fn check_rows(len: usize, arena: usize, stride: usize, off: usize, count: usize) {
    assert!(
        off.checked_add(len).is_some_and(|end| end <= stride),
        "row window {off}..{off}+{len} outside a {stride}-byte row"
    );
    assert_eq!(
        Some(arena),
        count.checked_mul(stride),
        "arena is not {count} rows of {stride} bytes"
    );
}

/// The shape checks of [`eliminate_column`] and its wide counterparts.
pub(crate) fn check_column(arena: usize, stride: usize, col: usize) {
    if arena == 0 {
        return;
    }
    assert!(col < stride, "column {col} outside a {stride}-byte row");
    assert!(
        arena.is_multiple_of(stride),
        "arena is not whole {stride}-byte rows"
    );
}

/// Divides every byte of `data` by the constant `c`, in place.
///
/// # Panics
///
/// Panics if `c` is zero.
pub fn div_assign(data: &mut [u8], c: u8) {
    assert_ne!(c, 0, "division by zero in GF(2^8)");
    if c == 1 {
        return;
    }
    let inv = EXP[255 - LOG[c as usize] as usize];
    mul_assign(data, inv);
}

/// Returns the dot product of two byte vectors over GF(2^8).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[u8], b: &[u8]) -> u8 {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    let mut acc = 0u8;
    for (&x, &y) in a.iter().zip(b) {
        if x != 0 && y != 0 {
            acc ^= EXP[LOG[x as usize] as usize + LOG[y as usize] as usize];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;
    use proptest::prelude::*;

    #[test]
    fn mul_assign_special_cases() {
        let mut buf = [1u8, 2, 0, 255];
        mul_assign(&mut buf, 1);
        assert_eq!(buf, [1, 2, 0, 255]);
        mul_assign(&mut buf, 0);
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn mul_add_assign_with_zero_coeff_is_noop() {
        let mut dst = [9u8, 8, 7];
        mul_add_assign(&mut dst, &[1, 2, 3], 0);
        assert_eq!(dst, [9, 8, 7]);
    }

    #[test]
    fn div_undoes_mul() {
        let orig: Vec<u8> = (0..=255).collect();
        for c in 1..=255u8 {
            let mut buf = orig.clone();
            mul_assign(&mut buf, c);
            div_assign(&mut buf, c);
            assert_eq!(buf, orig, "c={c}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        add_assign(&mut [0u8; 2], &[0u8; 3]);
    }

    #[test]
    fn dot_matches_scalar_arithmetic() {
        let a = [3u8, 0, 7, 9];
        let b = [5u8, 6, 0, 2];
        let want = (Gf256::new(3) * Gf256::new(5)) + (Gf256::new(9) * Gf256::new(2));
        assert_eq!(dot(&a, &b), want.as_u8());
    }

    proptest! {
        #[test]
        fn mul_add_assign_matches_scalar(
            src in proptest::collection::vec(any::<u8>(), 0..128),
            c in any::<u8>(),
            seed in any::<u8>(),
        ) {
            let mut dst: Vec<u8> = src.iter().map(|b| b.wrapping_add(seed)).collect();
            let want: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| (Gf256::new(d) + Gf256::new(s) * Gf256::new(c)).as_u8())
                .collect();
            mul_add_assign(&mut dst, &src, c);
            prop_assert_eq!(dst, want);
        }

        #[test]
        fn mul_assign_distributes_over_add(
            a in proptest::collection::vec(any::<u8>(), 1..64),
            c in any::<u8>(),
        ) {
            // c*(a+a) == c*a + c*a == 0 in characteristic 2.
            let mut doubled = a.clone();
            add_assign(&mut doubled, &a);
            mul_assign(&mut doubled, c);
            prop_assert!(doubled.iter().all(|&b| b == 0));
        }
    }
}

//! Selection between the baseline and accelerated GF(2^8) kernels.

#![deny(clippy::cast_possible_truncation)]

use serde::{Deserialize, Serialize};

/// Which slice kernel the codec uses for its row operations.
///
/// The paper (Sec. 4) compares a traditional lookup-table implementation with
/// an accelerated loop-based one and reports a 3–5x speedup for the latter.
/// Benchmarks in `omnc-bench` reproduce that comparison by instantiating the
/// codec with each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Kernel {
    /// Byte-at-a-time log/exp table lookups (the paper's baseline).
    Table,
    /// The paper's accelerated kernel: `gf256::wide`, 32 bytes per
    /// instruction where AVX2 is detected, 8 bytes per `u64` word
    /// elsewhere. The default.
    #[default]
    Wide,
    /// Per-call full product table: one load per byte after a 32-multiply
    /// setup. Measured at 0.6-1.6x the table kernel, against `Wide`'s
    /// ≈ 17x where AVX2 is detected (`results/coding_speed.txt`); kept
    /// only until the benchmark's probes stop naming it (ROADMAP 7(b)).
    Product,
}

impl Kernel {
    /// Profiler span name attributing GF(2^8) work to this kernel
    /// variant (`gf256` stays dependency-free; cost is recorded at the
    /// dispatch call sites in the codec).
    #[inline]
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Kernel::Table => "gf256.table",
            Kernel::Wide => "gf256.wide",
            Kernel::Product => "gf256.product",
        }
    }

    /// `dst += c * src` with this kernel.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn mul_add_assign(self, dst: &mut [u8], src: &[u8], c: u8) {
        match self {
            Kernel::Table => gf256::slice::mul_add_assign(dst, src, c),
            Kernel::Wide => gf256::wide::mul_add_assign(dst, src, c),
            Kernel::Product => gf256::product::mul_add_assign(dst, src, c),
        }
    }

    /// `dst += Σ cs[i] · rows[i·stride + off..][..dst.len()]` over a packed
    /// row arena of `cs.len()` rows: one call per elimination or recoding
    /// pass. `Wide` runs it in one multi-row body ([`gf256::wide::mul_add_rows`]);
    /// the others loop over the rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not `cs.len()` rows of `stride` bytes or the window
    /// `off..off + dst.len()` does not fit in a row.
    #[inline]
    pub fn mul_add_rows(self, dst: &mut [u8], rows: &[u8], stride: usize, off: usize, cs: &[u8]) {
        match self {
            Kernel::Table => gf256::slice::mul_add_rows(dst, rows, stride, off, cs),
            Kernel::Wide => gf256::wide::mul_add_rows(dst, rows, stride, off, cs),
            Kernel::Product => {
                assert_eq!(rows.len(), cs.len() * stride, "arena shape mismatch");
                let len = dst.len();
                for (row, &c) in rows.chunks_exact(stride.max(1)).zip(cs) {
                    gf256::product::mul_add_assign(dst, &row[off..off + len], c);
                }
            }
        }
    }

    /// For every `src.len()`-byte row of `rows`, `row += row[col] · src`:
    /// back-substitution in one call. `Wide` runs it in one multi-row body
    /// ([`gf256::wide::eliminate_column`]); the others loop over the rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a whole number of `src.len()`-byte rows or
    /// `col` is outside a row (unless there are no rows).
    #[inline]
    pub fn eliminate_column(self, rows: &mut [u8], src: &[u8], col: usize) {
        match self {
            Kernel::Table => gf256::slice::eliminate_column(rows, src, col),
            Kernel::Wide => gf256::wide::eliminate_column(rows, src, col),
            Kernel::Product => {
                assert!(rows.len().is_multiple_of(src.len()), "arena shape mismatch");
                for row in rows.chunks_exact_mut(src.len().max(1)) {
                    let c = row[col];
                    gf256::product::mul_add_assign(row, src, c);
                }
            }
        }
    }

    /// `data *= c` with this kernel.
    #[inline]
    pub fn mul_assign(self, data: &mut [u8], c: u8) {
        match self {
            Kernel::Table => gf256::slice::mul_assign(data, c),
            Kernel::Wide => gf256::wide::mul_assign(data, c),
            Kernel::Product => gf256::product::mul_assign(data, c),
        }
    }

    /// `data /= c` with this kernel.
    ///
    /// # Panics
    ///
    /// Panics if `c` is zero.
    #[inline]
    pub fn div_assign(self, data: &mut [u8], c: u8) {
        match self {
            Kernel::Table => gf256::slice::div_assign(data, c),
            Kernel::Wide => gf256::wide::div_assign(data, c),
            Kernel::Product => gf256::product::div_assign(data, c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree() {
        let src: Vec<u8> = (0..100u8).collect();
        for kernel in [Kernel::Table, Kernel::Wide, Kernel::Product] {
            let mut dst = vec![0xa5u8; 100];
            kernel.mul_add_assign(&mut dst, &src, 0x1d);
            kernel.mul_assign(&mut dst, 0x80);
            kernel.div_assign(&mut dst, 0x80);
            let mut reference = vec![0xa5u8; 100];
            gf256::slice::mul_add_assign(&mut reference, &src, 0x1d);
            assert_eq!(dst, reference, "{kernel:?}");
        }
    }

    #[test]
    fn kernels_agree_on_whole_arenas() {
        let arena: Vec<u8> = (0..=255u8).cycle().step_by(7).take(41 * 6).collect();
        let cs = [3u8, 0, 1, 0x80, 0xff, 0x1d];
        for off in [0, 40] {
            let mut reference = vec![0x5au8; 41 - off];
            for (row, &c) in arena.chunks_exact(41).zip(&cs) {
                gf256::slice::mul_add_assign(&mut reference, &row[off..], c);
            }
            for kernel in [Kernel::Table, Kernel::Wide, Kernel::Product] {
                let mut dst = vec![0x5au8; 41 - off];
                kernel.mul_add_rows(&mut dst, &arena, 41, off, &cs);
                assert_eq!(dst, reference, "{kernel:?} off={off}");
            }
        }
        let src = &arena[..41];
        let mut reference = arena[41..].to_vec();
        for row in reference.chunks_exact_mut(41) {
            let c = row[5];
            gf256::slice::mul_add_assign(row, src, c);
        }
        for kernel in [Kernel::Table, Kernel::Wide, Kernel::Product] {
            let mut rows = arena[41..].to_vec();
            kernel.eliminate_column(&mut rows, src, 5);
            assert_eq!(rows, reference, "{kernel:?}");
        }
    }

    #[test]
    fn default_is_wide() {
        assert_eq!(Kernel::default(), Kernel::Wide);
    }
}

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
    /// only until the benchmark's probes stop naming it (ROADMAP 6(c)).
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
    fn default_is_wide() {
        assert_eq!(Kernel::default(), Kernel::Wide);
    }
}

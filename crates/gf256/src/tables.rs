//! Compile-time generated logarithm and exponential tables for GF(2^8).
//!
//! The tables implement the "traditional lookup-table approach" the paper
//! contrasts its accelerated kernels against (Sec. 4). Both are generated by
//! a `const fn` walking the powers of the generator `0x03` modulo the
//! Rijndael polynomial, so no runtime initialization is needed.

/// Multiplies two field elements bit-by-bit (Russian peasant algorithm),
/// reducing by the Rijndael polynomial. Only used at compile time to build
/// the tables and as a reference implementation in tests.
pub(crate) const fn mul_no_table(mut a: u8, mut b: u8) -> u8 {
    let mut r: u8 = 0;
    while b != 0 {
        if b & 1 != 0 {
            r ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    r
}

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        exp[i + 255] = x;
        x = mul_no_table(x, crate::GENERATOR);
        i += 1;
    }
    // Entries 510 and 511 are never indexed (log(a) + log(b) <= 508), but a
    // defined value keeps the table total and avoids bounds surprises.
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "`i < 255` by the loop bound, and const fns cannot use try_from"
)]
const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    // log[0] is undefined in the field; callers must special-case zero.
    log
}

/// `EXP[i]` is `GENERATOR^i`; doubled to 512 entries so that
/// `EXP[LOG[a] + LOG[b]]` needs no modular reduction.
pub const EXP: [u8; 512] = build_exp();

/// `LOG[a]` is the discrete logarithm of `a` base [`crate::GENERATOR`].
/// `LOG[0]` is meaningless and must never be used.
pub const LOG: [u8; 256] = build_log();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a, "a={a}");
        }
    }

    #[test]
    fn exp_table_is_periodic() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // The powers of the generator enumerate every nonzero element.
        let mut seen = [false; 256];
        for i in 0..255 {
            assert!(!seen[EXP[i] as usize], "repeat at i={i}");
            seen[EXP[i] as usize] = true;
        }
        assert!(!seen[0]);
    }

    #[test]
    fn table_mul_matches_peasant_mul() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let want = mul_no_table(a, b);
                let got = if a == 0 || b == 0 {
                    0
                } else {
                    EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
                };
                assert_eq!(got, want, "a={a} b={b}");
            }
        }
    }
}

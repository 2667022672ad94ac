//! Arithmetic over the Rijndael finite field GF(2^8), the coding substrate of
//! OMNC (Zhang & Li, ICDCS 2008).
//!
//! The paper performs all random linear network coding operations over
//! GF(2^8) and describes two implementations (Sec. 4, *Accelerated network
//! coding*): a traditional lookup-table approach and an accelerated loop-based
//! approach that processes multiple bytes per instruction with x86 SIMD.
//! This crate provides both:
//!
//! * [`Gf256`] — a scalar field element with full arithmetic.
//! * [`mod@slice`] — log/exp lookup-table kernels (the paper's baseline and
//!   every other kernel's oracle).
//! * [`wide`] — the accelerated kernels: a split-nibble `vpshufb` body that
//!   multiplies 32 bytes per instruction (16- and 8-byte blocks for a row's
//!   tail) where AVX2 is detected at run time, and a portable wide-word
//!   (SWAR) body, 8 bytes per `u64`, everywhere else.
//! * [`product`] — per-call full product tables (one load per byte).
//!
//! # Examples
//!
//! ```
//! use omnc_gf256::Gf256;
//!
//! let a = Gf256::new(0x57);
//! let b = Gf256::new(0x83);
//! assert_eq!(a * b, Gf256::new(0xc1)); // the classic AES example
//! assert_eq!((a * b) / b, a);
//! ```

// SAFETY: `unsafe_code` is denied crate-wide and allowed back in exactly
// one private module, `avx2` (the `std::arch` body of `wide`), where every
// such item carries a SAFETY comment (audited by omnc-lint `unsafe-audit`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arith;
#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod product;
pub mod slice;
mod tables;
pub mod wide;

pub use arith::Gf256;
pub use tables::{EXP, LOG};

/// The Rijndael reduction polynomial x^8 + x^4 + x^3 + x + 1, as used by the
/// paper's coding framework ("Rijndael's finite field", Sec. 4).
pub const POLY: u16 = 0x11b;

/// The multiplicative generator used to build the log/exp tables.
pub const GENERATOR: u8 = 0x03;

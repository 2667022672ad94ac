//! Random linear network coding (RLNC) as used by OMNC (Zhang & Li, ICDCS
//! 2008, Secs. 3.1 and 4).
//!
//! The source groups data into *generations* of `n` blocks of `m` bytes each
//! (the paper's matrix `B`), and emits coded packets `X = R · B` where `R`
//! holds random coefficients in GF(2^8). Intermediate forwarders *re-encode*:
//! they buffer innovative packets and broadcast fresh random combinations of
//! them. The destination runs *progressive decoding* with Gauss-Jordan
//! elimination, keeping the decoding matrix in reduced row-echelon form so
//! that innovation checks and recovery happen on the fly (Sec. 4).
//!
//! # Examples
//!
//! ```
//! use omnc_rlnc::{Decoder, Encoder, Generation, GenerationConfig, GenerationId};
//! use rand::SeedableRng;
//!
//! let cfg = GenerationConfig::new(8, 64)?;
//! let data = vec![42u8; cfg.payload_len()];
//! let generation = Generation::from_bytes(GenerationId::new(0), cfg, &data)?;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let encoder = Encoder::new(&generation);
//! let mut decoder = Decoder::new(GenerationId::new(0), cfg);
//! while !decoder.is_complete() {
//!     decoder.absorb(&encoder.emit(&mut rng))?;
//! }
//! assert_eq!(decoder.recover().unwrap(), data);
//! # Ok::<(), omnc_rlnc::RlncError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod decoder;
mod encoder;
mod error;
mod generation;
mod kernel;
mod packet;
mod recoder;

pub use batch::BatchDecoder;
pub use decoder::{Absorption, Decoder, DecoderMetrics};
pub use encoder::Encoder;
pub use error::RlncError;
pub use generation::{Generation, GenerationConfig};
pub use kernel::Kernel;
pub use packet::{CodedPacket, GenerationId};
pub use recoder::Recoder;

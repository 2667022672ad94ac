//! Coded packet wire format.

#![deny(clippy::cast_possible_truncation)]

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::error::RlncError;

/// Identifies a generation (the paper's group of data blocks).
///
/// Generation identifiers are monotonically increasing per session; a coded
/// packet or ACK with a higher generation id dictates intermediate nodes to
/// discard state belonging to expired generations (Sec. 4, *Packet and Queue
/// Management*).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GenerationId(u64);

impl GenerationId {
    /// Wraps a raw generation number.
    pub const fn new(id: u64) -> Self {
        GenerationId(id)
    }

    /// Returns the raw generation number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The generation that follows this one.
    #[must_use]
    pub const fn next(self) -> Self {
        GenerationId(self.0 + 1)
    }
}

impl fmt::Display for GenerationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gen#{}", self.0)
    }
}

impl From<u64> for GenerationId {
    fn from(value: u64) -> Self {
        GenerationId(value)
    }
}

/// A coded packet: one row of the paper's `X = R · B` together with its row
/// of coefficients from `R`.
///
/// The coefficient vector always has the generation's block count `n` entries
/// and the payload the generation's block size `m` bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodedPacket {
    generation: GenerationId,
    coefficients: Vec<u8>,
    payload: Vec<u8>,
}

impl CodedPacket {
    /// Assembles a packet from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::MalformedPacket`] if either part is empty or
    /// longer than the wire format's 32-bit length fields can carry.
    pub fn new(
        generation: GenerationId,
        coefficients: Vec<u8>,
        payload: Vec<u8>,
    ) -> Result<Self, RlncError> {
        if coefficients.is_empty() {
            return Err(RlncError::MalformedPacket("empty coefficient vector"));
        }
        if payload.is_empty() {
            return Err(RlncError::MalformedPacket("empty payload"));
        }
        if u32::try_from(coefficients.len()).is_err() {
            return Err(RlncError::MalformedPacket("coefficient vector too long"));
        }
        if u32::try_from(payload.len()).is_err() {
            return Err(RlncError::MalformedPacket("payload too long"));
        }
        Ok(CodedPacket {
            generation,
            coefficients,
            payload,
        })
    }

    /// The generation this packet belongs to.
    pub fn generation(&self) -> GenerationId {
        self.generation
    }

    /// The coding coefficients (one per source block).
    pub fn coefficients(&self) -> &[u8] {
        &self.coefficients
    }

    /// The coded payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Total bytes this packet occupies on the air: header + coefficients +
    /// payload. Used by the simulator to charge channel time.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.coefficients.len() + self.payload.len()
    }

    /// Returns `true` if every coefficient is zero (such a packet can never
    /// be innovative).
    pub fn is_degenerate(&self) -> bool {
        self.coefficients.iter().all(|&c| c == 0)
    }

    const HEADER_LEN: usize = 8 + 4 + 4; // generation id + two length fields

    /// Serializes to the on-the-wire byte layout:
    /// `generation (8 LE) | n_coeff (4 LE) | n_payload (4 LE) | coeffs | payload`.
    ///
    /// ```
    /// # use omnc_rlnc::{CodedPacket, GenerationId};
    /// let p = CodedPacket::new(GenerationId::new(3), vec![1, 2], vec![9; 4])?;
    /// let bytes = p.to_bytes();
    /// assert_eq!(CodedPacket::from_bytes(&bytes)?, p);
    /// # Ok::<(), omnc_rlnc::RlncError>(())
    /// ```
    #[expect(
        clippy::cast_possible_truncation,
        reason = "both lengths fit u32 by the invariant `new()` checks"
    )]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.generation.0.to_le_bytes());
        out.extend_from_slice(&(self.coefficients.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.coefficients);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses the layout produced by [`CodedPacket::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::MalformedPacket`] on truncated or inconsistent
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RlncError> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(RlncError::MalformedPacket("truncated header"));
        }
        let generation = GenerationId(u64::from_le_bytes(
            bytes[0..8].try_into().expect("8 header bytes"),
        ));
        let n_coeff = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes")) as usize;
        let n_payload =
            u32::from_le_bytes(bytes[12..16].try_into().expect("4 header bytes")) as usize;
        let body = &bytes[Self::HEADER_LEN..];
        if body.len() != n_coeff + n_payload {
            return Err(RlncError::MalformedPacket("body length mismatch"));
        }
        CodedPacket::new(
            generation,
            body[..n_coeff].to_vec(),
            body[n_coeff..].to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CodedPacket {
        CodedPacket::new(GenerationId::new(17), vec![0, 1, 2, 3], vec![0xaa; 16]).unwrap()
    }

    #[test]
    fn wire_roundtrip() {
        let p = sample();
        assert_eq!(CodedPacket::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn wire_len_matches_serialized_len() {
        let p = sample();
        assert_eq!(p.wire_len(), p.to_bytes().len());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 5, 15, bytes.len() - 1] {
            assert!(CodedPacket::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn inconsistent_lengths_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 200; // claim 200 coefficients
        assert!(matches!(
            CodedPacket::from_bytes(&bytes),
            Err(RlncError::MalformedPacket(_))
        ));
    }

    #[test]
    fn empty_parts_are_rejected() {
        assert!(CodedPacket::new(GenerationId::new(0), vec![], vec![1]).is_err());
        assert!(CodedPacket::new(GenerationId::new(0), vec![1], vec![]).is_err());
    }

    #[test]
    fn degenerate_detection() {
        let zero = CodedPacket::new(GenerationId::new(0), vec![0, 0], vec![1, 2]).unwrap();
        assert!(zero.is_degenerate());
        assert!(!sample().is_degenerate());
    }

    #[test]
    fn generation_ordering_and_next() {
        let g = GenerationId::new(4);
        assert!(g.next() > g);
        assert_eq!(g.next().as_u64(), 5);
        assert_eq!(g.to_string(), "gen#4");
    }
}

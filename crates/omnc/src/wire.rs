//! Byte-level wire codec for protocol messages.
//!
//! The simulator passes [`Msg`] values by clone, but a deployable protocol
//! serializes them. This module defines the framing — one tag byte followed
//! by the variant body — so that the wire sizes charged by the session
//! configuration correspond to real encodable packets, and so downstream
//! users can move messages across actual sockets.

#![deny(clippy::cast_possible_truncation)]

use net_topo::graph::NodeId;
use rlnc::{CodedPacket, GenerationId};

use crate::msg::Msg;

/// Errors from decoding a wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame was empty.
    Empty,
    /// The tag byte does not name a known message type.
    UnknownTag(u8),
    /// The body was truncated or inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Empty => write!(f, "empty frame"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

const TAG_CODED: u8 = 1;
const TAG_BLOCK: u8 = 2;
const TAG_ACK: u8 = 3;

/// Serializes a message to its wire frame.
///
/// ```
/// use omnc::msg::Msg;
/// use omnc::wire;
/// use omnc::rlnc::GenerationId;
///
/// let msg = Msg::Ack { generation: GenerationId::new(9) };
/// let frame = wire::encode(&msg);
/// assert_eq!(wire::decode(&frame).unwrap(), msg);
/// ```
pub fn encode(msg: &Msg) -> Vec<u8> {
    match msg {
        Msg::Coded(packet) => {
            let body = packet.to_bytes();
            let mut out = Vec::with_capacity(1 + body.len());
            out.push(TAG_CODED);
            out.extend_from_slice(&body);
            out
        }
        Msg::Block { seq, dst } => {
            let mut out = Vec::with_capacity(1 + 8 + 8);
            out.push(TAG_BLOCK);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(dst.index() as u64).to_le_bytes());
            out
        }
        Msg::Ack { generation } => {
            let mut out = Vec::with_capacity(1 + 8);
            out.push(TAG_ACK);
            out.extend_from_slice(&generation.as_u64().to_le_bytes());
            out
        }
    }
}

/// Parses a wire frame produced by [`encode`].
///
/// # Errors
///
/// Returns a [`WireError`] on empty, unknown-tag or truncated input.
pub fn decode(frame: &[u8]) -> Result<Msg, WireError> {
    let (&tag, body) = frame.split_first().ok_or(WireError::Empty)?;
    match tag {
        TAG_CODED => CodedPacket::from_bytes(body)
            .map(Msg::Coded)
            .map_err(|_| WireError::Malformed("coded packet body")),
        TAG_BLOCK => {
            if body.len() != 16 {
                return Err(WireError::Malformed("block body must be 16 bytes"));
            }
            let seq = read_u64(&body[0..8]).ok_or(WireError::Malformed("block seq"))?;
            let dst = read_u64(&body[8..16])
                .and_then(|d| usize::try_from(d).ok())
                .ok_or(WireError::Malformed("block dst"))?;
            Ok(Msg::Block {
                seq,
                dst: NodeId::new(dst),
            })
        }
        TAG_ACK => {
            if body.len() != 8 {
                return Err(WireError::Malformed("ack body must be 8 bytes"));
            }
            let g = read_u64(body).ok_or(WireError::Malformed("ack generation"))?;
            Ok(Msg::Ack {
                generation: GenerationId::new(g),
            })
        }
        other => Err(WireError::UnknownTag(other)),
    }
}

/// Little-endian `u64` from an exactly-8-byte slice, `None` otherwise.
fn read_u64(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_variants_roundtrip() {
        let msgs = [
            Msg::Coded(CodedPacket::new(GenerationId::new(7), vec![1, 2, 3], vec![9; 10]).unwrap()),
            Msg::Block {
                seq: 42,
                dst: NodeId::new(13),
            },
            Msg::Ack {
                generation: GenerationId::new(1000),
            },
        ];
        for m in msgs {
            assert_eq!(decode(&encode(&m)).unwrap(), m);
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert_eq!(decode(&[]), Err(WireError::Empty));
        assert_eq!(decode(&[99, 1, 2]), Err(WireError::UnknownTag(99)));
        assert!(matches!(
            decode(&[TAG_ACK, 1, 2]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(decode(&[TAG_BLOCK]), Err(WireError::Malformed(_))));
        assert!(matches!(
            decode(&[TAG_CODED, 0, 0]),
            Err(WireError::Malformed(_))
        ));
    }

    proptest! {
        #[test]
        fn coded_roundtrip_any_shape(
            generation in any::<u64>(),
            coeffs in proptest::collection::vec(any::<u8>(), 1..64),
            payload in proptest::collection::vec(any::<u8>(), 1..256),
        ) {
            let m = Msg::Coded(
                CodedPacket::new(GenerationId::new(generation), coeffs, payload).unwrap(),
            );
            prop_assert_eq!(decode(&encode(&m)).unwrap(), m);
        }

        #[test]
        fn decode_never_panics_on_fuzz(frame in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = decode(&frame); // must not panic
        }
    }
}

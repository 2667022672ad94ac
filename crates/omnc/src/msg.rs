//! The protocol message type shared by all four protocols.

#![deny(clippy::cast_possible_truncation)]

use net_topo::graph::NodeId;
use rlnc::{CodedPacket, GenerationId};

/// Messages on the air in any of the reproduced protocols.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A random-linear-coded packet (OMNC, MORE, oldMORE).
    Coded(CodedPacket),
    /// An uncoded data block travelling hop-by-hop (ETX routing).
    Block {
        /// Sequence number of the block within the session.
        seq: u64,
        /// The unicast session's final destination.
        dst: NodeId,
    },
    /// Destination acknowledgement for a decoded generation. The paper
    /// sends ACKs back "preferably using traditional best path routing";
    /// see [`crate::session::SessionShared`] for how the reproduction
    /// models them.
    Ack {
        /// The generation being acknowledged.
        generation: GenerationId,
    },
}

impl Msg {
    /// The generation a coded message belongs to, if any.
    pub fn generation(&self) -> Option<GenerationId> {
        match self {
            Msg::Coded(p) => Some(p.generation()),
            Msg::Ack { generation } => Some(*generation),
            Msg::Block { .. } => None,
        }
    }

    /// `true` for coded packets.
    pub fn is_coded(&self) -> bool {
        matches!(self, Msg::Coded(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_extraction() {
        let g = GenerationId::new(3);
        let coded = Msg::Coded(CodedPacket::new(g, vec![1, 2], vec![3, 4]).unwrap());
        assert_eq!(coded.generation(), Some(g));
        assert!(coded.is_coded());
        assert_eq!(Msg::Ack { generation: g }.generation(), Some(g));
        assert_eq!(
            Msg::Block {
                seq: 0,
                dst: NodeId::new(1)
            }
            .generation(),
            None
        );
    }
}

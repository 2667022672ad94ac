//! The simulated world of a run: which part of the mesh the engine sees,
//! and the translation between its dense node coordinates and the original
//! topology's ids. This is the one place the world is chosen — the
//! participants' sub-topology for single-session entries, the whole mesh
//! for coupled ones (see [`crate::runner`]).

use std::borrow::Cow;

use drift::{PacketTag, TraceEvent};
use net_topo::graph::{Link, NodeId, Topology};

/// How much of the mesh the engine simulates.
#[derive(Clone, Copy)]
pub(crate) enum Extent {
    /// The sessions' participants (selected forwarders or path nodes) and
    /// every link among them.
    Participants,
    /// Every node.
    WholeMesh,
}

/// The simulated world: the topology the engine runs on, in its own dense
/// node coordinates, and the mapping to and from the original mesh.
pub(crate) struct World<'a> {
    pub(crate) topo: Cow<'a, Topology>,
    /// World → original id.
    pub(crate) to_orig: Vec<NodeId>,
    /// Original → world id; `usize::MAX` for nodes outside the world.
    to_local: Vec<usize>,
}

impl<'a> World<'a> {
    /// The one place the world is chosen. An induced world re-indexes the
    /// participants densely in order of first appearance and keeps *every*
    /// original link between them (interference needs sideways links, not
    /// only the flow DAG).
    pub(crate) fn new(
        full: &'a Topology,
        extent: Extent,
        participants: impl Iterator<Item = NodeId>,
    ) -> Self {
        let Extent::Participants = extent else {
            return World {
                topo: Cow::Borrowed(full),
                to_orig: full.nodes().collect(),
                to_local: (0..full.len()).collect(),
            };
        };
        let mut to_orig = Vec::new();
        let mut to_local = vec![usize::MAX; full.len()];
        for v in participants {
            if to_local[v.index()] == usize::MAX {
                to_local[v.index()] = to_orig.len();
                to_orig.push(v);
            }
        }
        let local = |v: NodeId| Some(to_local[v.index()]).filter(|&l| l != usize::MAX);
        let links = full
            .links()
            .filter_map(|l| {
                Some(Link {
                    from: NodeId::new(local(l.from)?),
                    to: NodeId::new(local(l.to)?),
                    p: l.p,
                })
            })
            .collect();
        // `from_links` takes N(i) from the links themselves, which is wider
        // than the deployment's geometric range (EXPERIMENTS.md, "Known
        // divergence"); kept so the committed figures stand.
        let topo = Topology::from_links(to_orig.len().max(2), links)
            .expect("participants always include a linked src and dst");
        World {
            topo: Cow::Owned(topo),
            to_orig,
            to_local,
        }
    }

    /// World id of original node `v`, if it is part of the world.
    pub(crate) fn local(&self, v: NodeId) -> Option<NodeId> {
        let l = *self.to_local.get(v.index())?;
        (l != usize::MAX).then_some(NodeId::new(l))
    }

    /// World id of a session participant.
    pub(crate) fn at(&self, v: NodeId) -> NodeId {
        self.local(v).expect("every participant is in the world")
    }

    /// Original id of world node `v`.
    pub(crate) fn orig(&self, v: NodeId) -> NodeId {
        self.to_orig[v.index()]
    }

    pub(crate) fn tag_to_orig(&self, tag: Option<PacketTag>) -> Option<PacketTag> {
        tag.map(|t| PacketTag {
            origin: self.orig(t.origin),
            ..t
        })
    }

    /// A MAC event with its node ids (including the tag's coding origin)
    /// in original coordinates.
    pub(crate) fn event_to_orig(&self, mut e: TraceEvent) -> TraceEvent {
        match &mut e {
            TraceEvent::TxStart { node, tag, .. } => {
                *node = self.orig(*node);
                *tag = self.tag_to_orig(*tag);
            }
            TraceEvent::TxComplete { node, .. } | TraceEvent::Queue { node, .. } => {
                *node = self.orig(*node);
            }
            TraceEvent::Delivered { from, to, tag, .. }
            | TraceEvent::Lost { from, to, tag, .. } => {
                *from = self.orig(*from);
                *to = self.orig(*to);
                *tag = self.tag_to_orig(*tag);
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induced_worlds_reindex_participants_and_keep_sideways_links() {
        let link = |from, to| Link {
            from: NodeId::new(from),
            to: NodeId::new(to),
            p: 0.5,
        };
        // 4 -> 2 -> 0 is the flow; 2 <-> 3 is a sideways link; 1 is outside.
        let links = vec![link(4, 2), link(2, 0), link(2, 3), link(3, 2), link(1, 0)];
        let full = Topology::from_links(5, links).unwrap();
        let participants = [4, 2, 0, 3, 2].map(NodeId::new).into_iter();
        let world = World::new(&full, Extent::Participants, participants);
        assert_eq!(world.to_orig, [4, 2, 0, 3].map(NodeId::new));
        assert_eq!(world.local(NodeId::new(1)), None);
        assert_eq!(world.orig(world.at(NodeId::new(3))), NodeId::new(3));
        assert_eq!(world.topo.link_count(), 4, "all links among participants");

        let whole = World::new(&full, Extent::WholeMesh, std::iter::empty());
        assert_eq!(whole.at(NodeId::new(1)), NodeId::new(1));
        assert_eq!(whole.local(NodeId::new(5)), None);
        assert_eq!(whole.topo.link_count(), full.link_count());
    }
}

//! Arena nodes of the in-memory R\*-tree.

use cf_geom::Aabb;

/// What a node entry points to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChildRef {
    /// An internal child node (arena index).
    Node(usize),
    /// A data item stored at a leaf. The payload is an opaque `u64`; the
    /// value indexes pack record indexes or `(start, end)` record ranges
    /// into it.
    Data(u64),
}

impl ChildRef {
    /// The arena index of a node child.
    ///
    /// # Panics
    ///
    /// Panics when called on a data entry.
    pub(crate) fn node(self) -> usize {
        match self {
            ChildRef::Node(i) => i,
            ChildRef::Data(d) => panic!("expected node child, found data {d}"),
        }
    }
}

/// A single slot of a node: a bounding box and what it covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeEntry<const N: usize> {
    /// Minimum bounding rectangle of the child/data.
    pub(crate) mbr: Aabb<N>,
    /// Child node or data payload.
    pub(crate) child: ChildRef,
}

/// An R\*-tree node.
///
/// `level == 0` is a leaf (entries are data); higher levels are internal
/// (entries are children at `level - 1`).
#[derive(Debug, Clone)]
pub(crate) struct Node<const N: usize> {
    /// Height of the node above the leaves.
    pub(crate) level: u32,
    /// Occupied slots.
    pub(crate) entries: Vec<NodeEntry<N>>,
}

impl<const N: usize> Node<N> {
    /// Creates an empty node at the given level.
    pub(crate) fn new(level: u32) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// Returns `true` for leaf nodes.
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The MBR covering all entries ([`Aabb::EMPTY`] for an empty node).
    pub(crate) fn mbr(&self) -> Aabb<N> {
        Aabb::hull(self.entries.iter().map(|e| e.mbr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_ref_accessors() {
        assert_eq!(ChildRef::Node(3).node(), 3);
    }

    #[test]
    #[should_panic(expected = "expected node child")]
    fn data_is_not_a_node() {
        let _ = ChildRef::Data(1).node();
    }

    #[test]
    fn node_mbr_is_hull_of_entries() {
        let mut node: Node<1> = Node::new(0);
        assert!(node.mbr().is_empty());
        node.entries.push(NodeEntry {
            mbr: Aabb::new([0.0], [1.0]),
            child: ChildRef::Data(0),
        });
        node.entries.push(NodeEntry {
            mbr: Aabb::new([5.0], [9.0]),
            child: ChildRef::Data(1),
        });
        assert_eq!(node.mbr(), Aabb::new([0.0], [9.0]));
        assert!(node.is_leaf());
    }
}

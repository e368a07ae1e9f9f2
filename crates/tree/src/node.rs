use std::fmt;
use std::ops::Range;

use xust_intern::Sym;

/// Index of a node within a [`crate::Document`] arena.
///
/// `NodeId`s are only meaningful relative to the document that issued
/// them; mixing ids across documents is a logic error (caught by debug
/// assertions in accessors where cheap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Sentinel for "no node" in the internal link fields.
pub(crate) const NIL: u32 = u32::MAX;

impl NodeId {
    /// Raw index (stable for the lifetime of the document; detached nodes
    /// keep their slot).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_raw(raw: u32) -> Option<NodeId> {
        if raw == NIL {
            None
        } else {
            Some(NodeId(raw))
        }
    }
}

/// The payload of a node, borrowed from its document: an element (with
/// attributes) or a text node.
///
/// Attributes are kept on the element in document order, matching how
/// the SAX layer reports them; the XPath fragment X reaches them via
/// `@name` tests in qualifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// An element with its attributes in document order.
    Element {
        /// Element name (interned label — an integer compare on every
        /// hot path).
        name: Sym,
        /// Attributes in document order (interned names, literal
        /// values).
        attrs: Attrs<'a>,
    },
    /// A text node (PCDATA).
    Text(&'a str),
}

impl NodeKind<'_> {
    /// Returns the element name, or `None` for text nodes.
    pub fn name(&self) -> Option<&'static str> {
        self.name_sym().map(Sym::as_str)
    }

    /// Returns the interned element name, or `None` for text nodes.
    pub fn name_sym(&self) -> Option<Sym> {
        match self {
            NodeKind::Element { name, .. } => Some(*name),
            NodeKind::Text(_) => None,
        }
    }

    /// Returns true for element nodes.
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// Returns true for text nodes.
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }
}

/// An element's attributes, borrowed from its document: `(name, value)`
/// pairs in document order, addressed by position like a slice
/// ([`Attrs::get`]). Text nodes have none.
#[derive(Clone, Copy, Default)]
pub struct Attrs<'a> {
    rows: &'a [AttrRow],
    heap: &'a str,
}

impl<'a> Attrs<'a> {
    pub(crate) fn new(rows: &'a [AttrRow], heap: &'a str) -> Self {
        Attrs { rows, heap }
    }

    /// Number of attributes.
    pub fn len(self) -> usize {
        self.rows.len()
    }

    /// True when the element has no attributes.
    pub fn is_empty(self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th attribute in document order.
    pub fn get(self, i: usize) -> Option<(Sym, &'a str)> {
        self.rows
            .get(i)
            .map(|r| (r.name, &self.heap[r.span.range()]))
    }

    /// The value of the attribute named `name`, if present.
    pub fn value(self, name: Sym) -> Option<&'a str> {
        self.iter().find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    /// The attributes in document order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = (Sym, &'a str)> + 'a {
        let heap = self.heap;
        self.rows
            .iter()
            .map(move |r| (r.name, &heap[r.span.range()]))
    }

    /// Owned copies of the attributes — the form SAX events carry.
    pub fn to_vec(self) -> Vec<(Sym, String)> {
        self.iter().map(|(k, v)| (k, v.to_owned())).collect()
    }
}

impl PartialEq for Attrs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Attrs<'_> {}

impl fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A run of the document's byte heap (text, attribute values) or of its
/// attribute table (an element's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    /// Marks a recycled slot. It lies past any heap (whose length stays
    /// below `u32::MAX`), so reading it yields nothing.
    pub(crate) const FREED: Span = Span {
        start: u32::MAX,
        len: 0,
    };

    pub(crate) fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// One attribute: its name and the span of its value in the heap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttrRow {
    pub(crate) name: Sym,
    pub(crate) span: Span,
}

/// Internal node record: sibling/child links, the element name (`None`
/// for text), and one span — a text node's bytes in the heap, or an
/// element's rows in the attribute table. Plain data, so cloning a
/// document copies the arena in one `memcpy`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeData {
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) last_child: u32,
    pub(crate) prev_sibling: u32,
    pub(crate) next_sibling: u32,
    pub(crate) name: Option<Sym>,
    pub(crate) span: Span,
}

impl NodeData {
    pub(crate) fn new(name: Option<Sym>, span: Span) -> Self {
        NodeData {
            parent: NIL,
            first_child: NIL,
            last_child: NIL,
            prev_sibling: NIL,
            next_sibling: NIL,
            name,
            span,
        }
    }

    /// The slot is on the document's free list (recycled by `delete`/
    /// `replace`); its `NodeId` must no longer be used.
    pub(crate) fn is_freed(&self) -> bool {
        self.name.is_none() && self.span == Span::FREED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        let e = NodeKind::Element {
            name: xust_intern::intern("a"),
            attrs: Attrs::default(),
        };
        let t = NodeKind::Text("x");
        assert!(e.is_element() && !e.is_text());
        assert!(t.is_text() && !t.is_element());
        assert_eq!(e.name(), Some("a"));
        assert_eq!(t.name(), None);
    }

    #[test]
    fn from_raw_nil() {
        assert_eq!(NodeId::from_raw(NIL), None);
        assert_eq!(NodeId::from_raw(3), Some(NodeId(3)));
    }

    #[test]
    fn records_are_plain_and_small() {
        // Five links, a niche-packed optional name, one span.
        assert_eq!(std::mem::size_of::<NodeData>(), 32);
        assert_eq!(std::mem::size_of::<AttrRow>(), 12);
    }
}

use std::fmt;

use xust_sax::{escape_attr_into, escape_text_into};

use crate::document::Document;
use crate::node::{Attrs, NodeId, NodeKind};

impl Document {
    /// Serializes the whole document to a string.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        if let Some(r) = self.root() {
            self.serialize_into(r, &mut out);
        }
        out
    }

    /// Serializes the subtree rooted at `node` to a string.
    pub fn serialize_subtree(&self, node: NodeId) -> String {
        let mut out = String::new();
        self.serialize_into(node, &mut out);
        out
    }

    /// Appends the serialization of the subtree rooted at `node` to
    /// `out`, byte-identical to what [`xust_sax::SaxWriter`] emits for the
    /// same events (childless elements collapse to `/>`). One iterative
    /// walk over the `first_child`/`next_sibling`/`parent` links: no
    /// recursion, no scratch allocation, no re-validation of the bytes.
    pub fn serialize_into(&self, node: NodeId, out: &mut String) {
        self.serialize_walk(node, out, |_, _| {});
    }

    /// The walk behind [`Document::serialize_into`] and
    /// [`Serialized::build`]: `at(n, offset)` runs just before node
    /// `n`'s bytes are appended at `offset` of `out`.
    #[inline(always)]
    fn serialize_walk(&self, node: NodeId, out: &mut String, mut at: impl FnMut(NodeId, usize)) {
        let mut n = node;
        'walk: loop {
            at(n, out.len());
            match self.kind(n) {
                NodeKind::Text(t) => escape_text_into(t, out),
                NodeKind::Element { name, attrs } => {
                    write_start_tag(name.as_str(), attrs, out);
                    if let Some(c) = self.first_child(n) {
                        out.push('>');
                        n = c;
                        continue 'walk;
                    }
                    out.push_str("/>");
                }
            }
            // `n` is complete: move to its next sibling, closing every
            // ancestor that has none, until the walk is back at `node`.
            while n != node {
                if let Some(s) = self.next_sibling(n) {
                    n = s;
                    continue 'walk;
                }
                n = self.parent(n).expect("a descendant of `node` has a parent");
                self.write_end_tag_into(n, out);
            }
            return;
        }
    }

    /// Appends `node`'s open start tag — `<name` plus attributes, **no
    /// closing `>`** — to `out`, byte-identical to what
    /// [`xust_sax::SaxWriter`] emits. Fragment sinks (`xust-core`'s patch
    /// assembly) use this to frame live element tags around memoized
    /// child bytes; the caller decides between `>` and `/>`. No-op on
    /// text nodes.
    pub fn write_start_tag_into(&self, node: NodeId, out: &mut String) {
        if let NodeKind::Element { name, attrs } = self.kind(node) {
            write_start_tag(name.as_str(), attrs, out);
        }
    }

    /// Appends `node`'s end tag `</name>` to `out`. No-op on text nodes.
    pub fn write_end_tag_into(&self, node: NodeId, out: &mut String) {
        if let Some(name) = self.name(node) {
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

/// A document serialized once, with the byte offset at which every
/// reachable node's serialization starts: any subtree's bytes are then
/// one slice of the text, copied with one `push_str` instead of a walk
/// that re-escapes every value.
///
/// The index belongs to the exact document content it was built from;
/// any edit to that document makes it stale. It costs the serialized
/// length plus 4 bytes per arena slot. A node's end offset is not
/// stored: it is its next sibling's start, or else its parent's end
/// minus the parent's end tag, found by climbing at most the node's
/// depth.
pub struct Serialized {
    text: String,
    /// Per arena slot, the offset of the node's first byte in `text`
    /// (`u32::MAX` for slots the walk from the root never reached).
    starts: Vec<u32>,
}

impl Serialized {
    /// Serializes `doc` from its root, recording every node's start —
    /// the same walk as [`Document::serialize_into`]. `None` when the
    /// serialization does not fit 32-bit offsets (4 GiB or more).
    pub fn build(doc: &Document) -> Option<Serialized> {
        let mut text = String::new();
        let mut starts = vec![u32::MAX; doc.arena_len()];
        if let Some(root) = doc.root() {
            text.reserve(doc.heap_bytes());
            // An offset past `u32::MAX` truncates here, but then the
            // whole text does not fit either and the index is dropped.
            doc.serialize_walk(root, &mut text, |n, at| starts[n.index()] = at as u32);
            text.shrink_to_fit();
        }
        u32::try_from(text.len())
            .is_ok()
            .then_some(Serialized { text, starts })
    }

    /// Length of the whole serialization in bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True for an empty (rootless) document.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The serialization of the subtree rooted at `n`, equal to
    /// [`Document::serialize_subtree`]. `doc` must be the document the
    /// index was built from, unchanged, and `n` reachable from its root.
    pub fn subtree(&self, doc: &Document, n: NodeId) -> &str {
        debug_assert_eq!(
            self.starts.len(),
            doc.arena_len(),
            "index of another document"
        );
        let start = self.starts[n.index()];
        debug_assert_ne!(start, u32::MAX, "node not reachable from the root");
        &self.text[start as usize..self.end(doc, n)]
    }

    /// Where `n`'s serialization ends: the start of the first following
    /// sibling of `n` or of an ancestor, less the end tags of the
    /// ancestors climbed to reach it.
    fn end(&self, doc: &Document, mut n: NodeId) -> usize {
        let mut owed = 0;
        loop {
            if let Some(s) = doc.next_sibling(n) {
                return self.starts[s.index()] as usize - owed;
            }
            match doc.parent(n) {
                Some(p) => {
                    owed += doc.name(p).map_or(0, |name| name.len() + 3);
                    n = p;
                }
                None => return self.text.len() - owed,
            }
        }
    }
}

impl fmt::Debug for Serialized {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Serialized")
            .field("bytes", &self.text.len())
            .field("slots", &self.starts.len())
            .finish()
    }
}

/// Appends the open start tag `<name` plus escaped attributes, **no
/// closing `>`**, to `out` — the bytes [`Document::write_start_tag_into`]
/// writes, for an element that exists only as a name and attributes
/// (`xust-core`'s streamed transform output renames elements on the
/// fly).
pub fn write_start_tag(name: &str, attrs: Attrs<'_>, out: &mut String) {
    out.push('<');
    out.push_str(name);
    for (k, v) in attrs.iter() {
        out.push(' ');
        out.push_str(k.as_str());
        out.push_str("=\"");
        escape_attr_into(v, out);
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use crate::{Document, Serialized};

    #[test]
    fn index_slices_every_subtree() {
        let xml = "<a x=\"1 &lt; 2\"><b><c/>x &amp; y</b><d>y</d>z<e><f k=\"&quot;\"/></e></a>";
        let d = Document::parse(xml).unwrap();
        let ix = Serialized::build(&d).unwrap();
        let root = d.root().unwrap();
        assert_eq!(ix.subtree(&d, root), xml);
        assert_eq!(ix.len(), xml.len());
        for n in d.descendants_or_self(root) {
            assert_eq!(ix.subtree(&d, n), d.serialize_subtree(n));
        }
        assert!(Serialized::build(&Document::new()).unwrap().is_empty());
    }

    #[test]
    fn roundtrip_simple() {
        let xml = "<db><part pname=\"kb\"><sub/>t</part></db>";
        let d = Document::parse(xml).unwrap();
        assert_eq!(d.serialize(), xml);
    }

    #[test]
    fn escaping_roundtrip() {
        let xml = "<a x=\"1 &lt; 2\">3 &gt; 2 &amp; 1 &lt; 2</a>";
        let d = Document::parse(xml).unwrap();
        let out = d.serialize();
        let d2 = Document::parse(&out).unwrap();
        assert_eq!(d2.serialize(), out);
        assert!(out.contains("&lt;"));
    }

    #[test]
    fn empty_document_serializes_empty() {
        let d = Document::new();
        assert_eq!(d.serialize(), "");
    }

    #[test]
    fn serialize_subtree_only() {
        let d = Document::parse("<a><b>x</b><c/></a>").unwrap();
        let root = d.root().unwrap();
        let b = d.first_child(root).unwrap();
        assert_eq!(d.serialize_subtree(b), "<b>x</b>");
    }

    #[test]
    fn tag_helpers_match_sax_writer_bytes() {
        let d = Document::parse("<a x=\"1 &lt; 2\" y=\"q\"><b/>t</a>").unwrap();
        let root = d.root().unwrap();
        let mut open = String::new();
        d.write_start_tag_into(root, &mut open);
        assert_eq!(open, "<a x=\"1 &lt; 2\" y=\"q\"");
        let mut close = String::new();
        d.write_end_tag_into(root, &mut close);
        assert_eq!(close, "</a>");
        // Framing children with the helpers reproduces serialize() exactly.
        let b = d.first_child(root).unwrap();
        let t = d.next_sibling(b).unwrap();
        let mut framed = String::new();
        d.write_start_tag_into(root, &mut framed);
        framed.push('>');
        framed.push_str(&d.serialize_subtree(b));
        framed.push_str(&d.serialize_subtree(t));
        d.write_end_tag_into(root, &mut framed);
        assert_eq!(framed, d.serialize());
    }

    #[test]
    fn serialize_into_appends_and_stops_at_the_subtree() {
        let d = Document::parse("<a><b><c/>x</b><d>y</d></a>").unwrap();
        let root = d.root().unwrap();
        let b = d.first_child(root).unwrap();
        let mut out = String::from("pre:");
        d.serialize_into(b, &mut out);
        assert_eq!(out, "pre:<b><c/>x</b>");
        let text = d.last_child(b).unwrap();
        d.serialize_into(text, &mut out);
        assert_eq!(out, "pre:<b><c/>x</b>x");
    }

    #[test]
    fn deep_tree_serialization_iterative() {
        let mut d = Document::new();
        let root = d.create_element("n");
        d.set_root(root);
        let mut cur = root;
        for _ in 0..50_000 {
            let c = d.create_element("n");
            d.append_child(cur, c);
            cur = c;
        }
        let s = d.serialize();
        assert!(s.starts_with("<n><n>"));
        assert!(s.ends_with("</n></n>"));
    }
}

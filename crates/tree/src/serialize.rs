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
        let mut n = node;
        'walk: loop {
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
    use crate::Document;

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

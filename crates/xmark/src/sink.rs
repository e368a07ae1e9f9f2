use std::io::Write;

use xust_sax::{SaxResult, SaxWriter};
use xust_tree::{Document, NodeId};

/// Destination for generated XML: either an in-memory [`Document`] or a
/// streaming writer. Streaming is what lets the Fig. 14 experiment
/// produce documents far larger than memory, exactly like the original
/// XMark C generator.
pub trait XmlSink {
    /// Opens an element.
    fn start(&mut self, name: &str, attrs: Vec<(String, String)>);
    /// Emits character data.
    fn text(&mut self, t: &str);
    /// Closes the innermost element.
    fn end(&mut self, name: &str);
}

/// Builds a [`Document`] in memory.
pub struct TreeSink {
    doc: Document,
    stack: Vec<NodeId>,
}

impl TreeSink {
    /// Empty sink.
    pub fn new() -> TreeSink {
        TreeSink {
            doc: Document::new(),
            stack: Vec::new(),
        }
    }

    /// Returns the built document (panics on unbalanced output).
    pub fn finish(mut self) -> Document {
        assert!(self.stack.is_empty(), "unbalanced generator output");
        self.doc.shrink_to_fit();
        self.doc
    }
}

impl Default for TreeSink {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlSink for TreeSink {
    fn start(&mut self, name: &str, attrs: Vec<(String, String)>) {
        let attrs = attrs.iter().map(|(k, v)| (xust_sax::intern(k), v));
        let node = self.doc.create_element_with_attrs(name, attrs);
        match self.stack.last() {
            Some(&parent) => self.doc.append_child(parent, node),
            None => self.doc.set_root(node),
        }
        self.stack.push(node);
    }

    fn text(&mut self, t: &str) {
        if let Some(&parent) = self.stack.last() {
            // Coalesce adjacent text so the in-memory tree matches what a
            // serialize→parse roundtrip produces (parsers merge runs of
            // character data into one node).
            if let Some(last) = self.doc.last_child(parent) {
                if let Some(existing) = self.doc.text(last) {
                    let merged = format!("{existing}{t}");
                    let n = self.doc.create_text(merged);
                    self.doc.replace(last, n);
                    return;
                }
            }
            let n = self.doc.create_text(t);
            self.doc.append_child(parent, n);
        }
    }

    fn end(&mut self, _name: &str) {
        self.stack.pop();
    }
}

/// Streams serialized XML to any [`Write`] target with O(depth) memory.
pub struct WriteSink<W: Write> {
    writer: SaxWriter<W>,
    error: Option<xust_sax::SaxError>,
}

impl<W: Write> WriteSink<W> {
    /// Wraps an output writer.
    pub fn new(out: W) -> WriteSink<W> {
        WriteSink {
            writer: SaxWriter::new(out),
            error: None,
        }
    }

    /// Flushes and returns the writer (or the first deferred error).
    pub fn finish(self) -> SaxResult<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.finish()
    }

    fn record<T>(&mut self, r: SaxResult<T>) {
        if let Err(e) = r {
            if self.error.is_none() {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> XmlSink for WriteSink<W> {
    fn start(&mut self, name: &str, attrs: Vec<(String, String)>) {
        let r = self.writer.start_element(name, &attrs);
        self.record(r);
    }

    fn text(&mut self, t: &str) {
        let r = self.writer.text(t);
        self.record(r);
    }

    fn end(&mut self, name: &str) {
        let r = self.writer.end_element(name);
        self.record(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_sink_builds_document() {
        let mut s = TreeSink::new();
        s.start("a", vec![("k".into(), "v".into())]);
        s.text("hel");
        s.text("lo");
        s.start("b", vec![]);
        s.end("b");
        s.end("a");
        let doc = s.finish();
        assert_eq!(doc.serialize(), "<a k=\"v\">hello<b/></a>");
        // Adjacent text coalesced into one node, and no growth slack
        // left behind (a clone allocates exactly what it copies).
        let a = doc.root().unwrap();
        assert_eq!(doc.text(doc.first_child(a).unwrap()), Some("hello"));
        assert_eq!(doc.heap_bytes(), doc.clone().heap_bytes());
    }

    #[test]
    fn write_sink_streams() {
        let mut s = WriteSink::new(Vec::new());
        s.start("a", vec![]);
        s.text("x");
        s.end("a");
        let bytes = s.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), "<a>x</a>");
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn tree_sink_detects_unbalanced() {
        let mut s = TreeSink::new();
        s.start("a", vec![]);
        s.finish();
    }
}

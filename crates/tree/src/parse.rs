use std::fmt;
use std::io::Read;
use std::path::Path;

use xust_sax::{SaxError, SaxEvent, SaxParser};

use crate::document::Document;
use crate::node::NodeId;

/// Error raised when building a [`Document`] from XML text.
#[derive(Debug)]
pub struct TreeParseError(pub SaxError);

impl fmt::Display for TreeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error: {}", self.0)
    }
}

impl std::error::Error for TreeParseError {}

impl From<SaxError> for TreeParseError {
    fn from(e: SaxError) -> Self {
        TreeParseError(e)
    }
}

impl Document {
    /// Parses a complete XML document from a string.
    pub fn parse(xml: &str) -> Result<Document, TreeParseError> {
        Self::from_sax(SaxParser::from_str(xml))
    }

    /// Parses a complete XML document from a file.
    pub fn parse_file(path: impl AsRef<Path>) -> Result<Document, TreeParseError> {
        Self::from_sax(SaxParser::from_file(path)?)
    }

    /// Builds a document by draining a SAX parser.
    pub fn from_sax<R: Read>(mut parser: SaxParser<R>) -> Result<Document, TreeParseError> {
        let mut doc = Document::new();
        let mut stack: Vec<NodeId> = Vec::new();
        while let Some(ev) = parser.next_event()? {
            match ev {
                SaxEvent::StartDocument | SaxEvent::EndDocument => {}
                SaxEvent::StartElement { name, attrs } => {
                    let node = doc.create_element_with_attrs(name, attrs);
                    match stack.last() {
                        Some(&parent) => doc.append_child(parent, node),
                        None => doc.set_root(node),
                    }
                    stack.push(node);
                }
                SaxEvent::Text(t) => {
                    if let Some(&parent) = stack.last() {
                        let node = doc.create_text(t);
                        doc.append_child(parent, node);
                    }
                    // Whitespace outside the root is skipped by the SAX
                    // layer; any other text there is a syntax error that
                    // the parser already rejects.
                }
                SaxEvent::EndElement(_) => {
                    stack.pop();
                }
            }
        }
        doc.shrink_to_fit();
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let d = Document::parse("<db><part pname='kb'><sub/></part>text</db>").unwrap();
        let root = d.root().unwrap();
        assert_eq!(d.name(root), Some("db"));
        let kids: Vec<_> = d.children(root).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.attr(kids[0], "pname"), Some("kb"));
        assert_eq!(d.text(kids[1]), Some("text"));
    }

    #[test]
    fn parse_error_propagates() {
        assert!(Document::parse("<a><b></a>").is_err());
        assert!(Document::parse("not xml").is_err());
    }

    #[test]
    fn parse_preserves_mixed_content_order() {
        let d = Document::parse("<a>x<b/>y<c/>z</a>").unwrap();
        let root = d.root().unwrap();
        let parts: Vec<String> = d
            .children(root)
            .map(|n| match d.name(n) {
                Some(name) => format!("<{name}>"),
                None => d.text(n).unwrap().to_string(),
            })
            .collect();
        assert_eq!(parts, ["x", "<b>", "y", "<c>", "z"]);
    }

    #[test]
    fn parse_file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("xust_tree_parse_test.xml");
        std::fs::write(&path, "<r><a>1</a></r>").unwrap();
        let d = Document::parse_file(&path).unwrap();
        assert_eq!(d.serialize(), "<r><a>1</a></r>");
        std::fs::remove_file(&path).ok();
    }
}

//! The engine's data model: items, sequences, and the document store.

use std::collections::HashMap;

use xust_tree::{Document, NodeId};

/// Identifier of a document within a [`Store`].
pub type DocId = usize;

/// An XDM-style item. Node items carry their owning document so that
/// values can mix nodes from the input document(s) and from the
/// construction scratch space.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// The document node of a loaded document (what `doc("…")` returns);
    /// paths applied to it start above the root element, so `/site/…`
    /// matches the root's own label.
    DocNode(DocId),
    /// An element or text node.
    Node(DocId, NodeId),
    /// An attribute of an element (document, element, attribute index).
    Attr(DocId, NodeId, usize),
    /// A string value.
    Str(String),
    /// A numeric value.
    Num(f64),
    /// A boolean value.
    Bool(bool),
}

/// The `(name, value)` an [`Item::Attr`] points at. Its index was taken
/// from the element's attribute list, and attribute lists of query
/// inputs do not change during evaluation, so it is in range.
pub(crate) fn attr_of(store: &Store, d: DocId, n: NodeId, i: usize) -> (xust_sax::Sym, &str) {
    store
        .doc(d)
        .attrs(n)
        .get(i)
        .expect("attribute items index their element's attributes")
}

/// A sequence of items — every expression evaluates to a `Value`.
pub type Value = Vec<Item>;

/// The document store: named input documents plus one scratch document
/// receiving all constructed nodes.
#[derive(Debug, Default)]
pub struct Store {
    docs: Vec<Document>,
    by_name: HashMap<String, DocId>,
    output: Option<DocId>,
}

impl Store {
    /// Empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Registers a document under a name resolvable by `doc("name")`.
    pub fn load(&mut self, name: impl Into<String>, doc: Document) -> DocId {
        let id = self.docs.len();
        self.docs.push(doc);
        self.by_name.insert(name.into(), id);
        id
    }

    /// Adds an anonymous document (not resolvable by name).
    pub fn add_anonymous(&mut self, doc: Document) -> DocId {
        let id = self.docs.len();
        self.docs.push(doc);
        id
    }

    /// Resolves `doc("name")`.
    pub fn resolve(&self, name: &str) -> Option<DocId> {
        self.by_name.get(name).copied()
    }

    /// The scratch document for constructed nodes (created on demand).
    pub fn output_doc(&mut self) -> DocId {
        match self.output {
            Some(id) => id,
            None => {
                let id = self.docs.len();
                self.docs.push(Document::new());
                self.output = Some(id);
                id
            }
        }
    }

    /// The document with the given id.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id]
    }

    /// Mutable access to a stored document.
    pub fn doc_mut(&mut self, id: DocId) -> &mut Document {
        &mut self.docs[id]
    }

    /// Number of documents (inputs + scratch).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are loaded.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// The string value of an item (XPath atomization).
pub fn string_value(store: &Store, item: &Item) -> String {
    match item {
        Item::DocNode(d) => match store.doc(*d).root() {
            Some(r) => store.doc(*d).string_value(r),
            None => String::new(),
        },
        Item::Node(d, n) => store.doc(*d).string_value(*n),
        Item::Attr(d, n, i) => attr_of(store, *d, *n, *i).1.to_owned(),
        Item::Str(s) => s.clone(),
        Item::Num(n) => format_num(*n),
        Item::Bool(b) => b.to_string(),
    }
}

/// Formats a number the way XQuery serializes doubles that hold integers.
pub fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Effective boolean value of a sequence.
pub fn effective_boolean(v: &Value) -> bool {
    match v.as_slice() {
        [] => false,
        [Item::Bool(b)] => *b,
        [Item::Num(n)] => *n != 0.0 && !n.is_nan(),
        [Item::Str(s)] => !s.is_empty(),
        // A sequence whose first item is a node is true.
        _ => matches!(v[0], Item::Node(..) | Item::Attr(..) | Item::DocNode(..)) || v.len() > 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_resolve() {
        let mut s = Store::new();
        let d = Document::parse("<a/>").unwrap();
        let id = s.load("foo", d);
        assert_eq!(s.resolve("foo"), Some(id));
        assert_eq!(s.resolve("bar"), None);
        assert_eq!(s.doc(id).name(s.doc(id).root().unwrap()), Some("a"));
    }

    #[test]
    fn output_doc_created_once() {
        let mut s = Store::new();
        let a = s.output_doc();
        let b = s.output_doc();
        assert_eq!(a, b);
    }

    #[test]
    fn string_values() {
        let mut s = Store::new();
        let d = Document::parse(r#"<a k="v"><b>x</b>y</a>"#).unwrap();
        let id = s.load("d", d);
        let root = s.doc(id).root().unwrap();
        assert_eq!(string_value(&s, &Item::Node(id, root)), "xy");
        assert_eq!(string_value(&s, &Item::Attr(id, root, 0)), "v");
        assert_eq!(string_value(&s, &Item::Num(3.0)), "3");
        assert_eq!(string_value(&s, &Item::Num(3.5)), "3.5");
        assert_eq!(string_value(&s, &Item::Str("q".into())), "q");
    }

    #[test]
    fn ebv() {
        assert!(!effective_boolean(&vec![]));
        assert!(effective_boolean(&vec![Item::Bool(true)]));
        assert!(!effective_boolean(&vec![Item::Bool(false)]));
        assert!(!effective_boolean(&vec![Item::Num(0.0)]));
        assert!(effective_boolean(&vec![Item::Num(2.0)]));
        assert!(!effective_boolean(&vec![Item::Str("".into())]));
        assert!(effective_boolean(&vec![Item::Str("x".into())]));
        let d = Document::parse("<a/>").unwrap();
        let root = d.root().unwrap();
        assert!(effective_boolean(&vec![Item::Node(0, root)]));
    }
}

use xust_intern::{Interner, IntoSym, Sym};

use crate::iter::{Ancestors, Children, Descendants};
use crate::node::{AttrRow, Attrs, NodeData, NodeId, NodeKind, Span, NIL};

/// An XML document: a node arena plus a distinguished root element.
///
/// Editing operations implement exactly the four update primitives of the
/// paper (Section 2): `insert e into p` ([`Document::append_child`] of a
/// copied subtree), `delete p` ([`Document::detach`]),
/// `replace p with e` ([`Document::replace`]), and `rename p as l`
/// ([`Document::rename`]).
///
/// # Layout
///
/// Three flat buffers and no per-node allocation: an arena of plain node
/// records (links, name, one span), a table of attribute rows (name plus
/// value span, each element's rows contiguous), and one byte heap holding
/// every text and attribute value. Cloning a document copies the three
/// buffers; dropping one frees them. Edits that retire bytes or rows
/// (`delete`, `replace`, `set_attr`) count them as garbage, and once the
/// garbage outgrows the live data [`Document::compact`] rewrites the
/// spans. Compaction never renumbers nodes: a `NodeId` stays valid until
/// its own node is deleted.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
    attrs: Vec<AttrRow>,
    /// Text and attribute values. Spans start and end on `char`
    /// boundaries, since every write appends a whole `&str`.
    heap: String,
    root: u32,
    /// Arena slots recycled by [`Document::delete`]/[`Document::replace`];
    /// [`Document::alloc`] reuses them before growing the arena, so
    /// long-lived documents stay bounded under repeated edit cycles.
    free: Vec<u32>,
    /// Heap bytes no live node references.
    dead_bytes: usize,
    /// Attribute rows no live element references.
    dead_rows: usize,
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

impl Document {
    /// Creates an empty document (no root yet).
    pub fn new() -> Self {
        Document {
            nodes: Vec::new(),
            attrs: Vec::new(),
            heap: String::new(),
            root: NIL,
            free: Vec::new(),
            dead_bytes: 0,
            dead_rows: 0,
        }
    }

    /// Creates an empty document with room for a copy of `src`: as many
    /// node records, attribute rows and heap bytes as `src` holds. Result
    /// trees built from `src` reserve this up front.
    pub fn with_capacity_of(src: &Document) -> Self {
        Document {
            nodes: Vec::with_capacity(src.nodes.len() - src.free.len()),
            attrs: Vec::with_capacity(src.attrs.len() - src.dead_rows),
            heap: String::with_capacity(src.heap.len() - src.dead_bytes),
            ..Document::new()
        }
    }

    /// The root element, if set.
    pub fn root(&self) -> Option<NodeId> {
        NodeId::from_raw(self.root)
    }

    /// Sets the root element. The node must be detached (no parent).
    pub fn set_root(&mut self, node: NodeId) {
        debug_assert_eq!(self.nodes[node.index()].parent, NIL);
        self.root = node.0;
    }

    /// Number of slots in the arena (includes detached nodes and slots
    /// waiting on the free list).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of recycled slots currently available for reuse.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Number of nodes reachable from the root.
    pub fn node_count(&self) -> usize {
        match self.root() {
            Some(r) => self.descendants_or_self(r).count(),
            None => 0,
        }
    }

    /// Bytes the document's buffers hold, counted by capacity: node
    /// records, attribute rows, the value heap and the free list.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<NodeData>()
            + self.attrs.capacity() * size_of::<AttrRow>()
            + self.heap.capacity()
            + self.free.capacity() * size_of::<u32>()
    }

    /// Drops spare capacity from every buffer — for a document that is
    /// built once and then kept (parse, generators).
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.attrs.shrink_to_fit();
        self.heap.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    // ---- construction ----

    fn alloc(&mut self, name: Option<Sym>, span: Span) -> NodeId {
        let data = NodeData::new(name, span);
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = data;
            return NodeId(slot);
        }
        let id = self.nodes.len() as u32;
        assert!(id != NIL, "document arena full");
        self.nodes.push(data);
        NodeId(id)
    }

    /// Appends `s` to the heap, returning its span.
    fn push_bytes(&mut self, s: &str) -> Span {
        let start = self.heap.len();
        // Keeps every span (and `Span::FREED`) representable.
        assert!(
            start + s.len() < u32::MAX as usize,
            "document value heap full"
        );
        self.heap.push_str(s);
        Span {
            start: start as u32,
            len: s.len() as u32,
        }
    }

    /// Appends one attribute row, its value going to the heap.
    fn push_attr(&mut self, name: Sym, value: &str) {
        // Keeps every row span representable.
        assert!(
            self.attrs.len() < u32::MAX as usize,
            "document attribute table full"
        );
        let span = self.push_bytes(value);
        self.attrs.push(AttrRow { name, span });
    }

    /// The attribute-row span of an element whose rows are pushed from
    /// `start` on.
    fn rows_since(&self, start: usize) -> Span {
        Span {
            start: start as u32,
            len: (self.attrs.len() - start) as u32,
        }
    }

    /// Creates a detached element node.
    pub fn create_element(&mut self, name: impl IntoSym) -> NodeId {
        let rows = self.rows_since(self.attrs.len());
        self.alloc(Some(name.into_sym()), rows)
    }

    /// Creates a detached element node with attributes, in the given
    /// order.
    pub fn create_element_with_attrs<V: AsRef<str>>(
        &mut self,
        name: impl IntoSym,
        attrs: impl IntoIterator<Item = (Sym, V)>,
    ) -> NodeId {
        let start = self.attrs.len();
        for (k, v) in attrs {
            self.push_attr(k, v.as_ref());
        }
        let rows = self.rows_since(start);
        self.alloc(Some(name.into_sym()), rows)
    }

    /// Creates a detached element named `name` carrying a copy of the
    /// attributes of `src`'s element `n` (none when `n` is text) — how
    /// result trees re-emit an element under its own or a new name.
    pub fn copy_element_from(&mut self, name: Sym, src: &Document, n: NodeId) -> NodeId {
        let start = self.attrs.len();
        for (k, v) in src.attrs(n).iter() {
            self.push_attr(k, v);
        }
        let rows = self.rows_since(start);
        self.alloc(Some(name), rows)
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl AsRef<str>) -> NodeId {
        let span = self.push_bytes(text.as_ref());
        self.alloc(None, span)
    }

    // ---- accessors ----

    /// The heap bytes of a text record (empty for a recycled slot).
    fn text_of(&self, data: &NodeData) -> &str {
        self.heap.get(data.span.range()).unwrap_or_default()
    }

    /// The node's payload.
    pub fn kind(&self, node: NodeId) -> NodeKind<'_> {
        let data = &self.nodes[node.index()];
        match data.name {
            Some(name) => NodeKind::Element {
                name,
                attrs: Attrs::new(&self.attrs[data.span.range()], &self.heap),
            },
            None => NodeKind::Text(self.text_of(data)),
        }
    }

    /// Element name (None for text nodes).
    pub fn name(&self, node: NodeId) -> Option<&'static str> {
        self.name_sym(node).map(Sym::as_str)
    }

    /// Interned element name (None for text nodes) — the label the
    /// automata compare against, with no string work.
    pub fn name_sym(&self, node: NodeId) -> Option<Sym> {
        self.nodes[node.index()].name
    }

    /// True if `node` is an element.
    pub fn is_element(&self, node: NodeId) -> bool {
        self.nodes[node.index()].name.is_some()
    }

    /// True if `node` is a text node.
    pub fn is_text(&self, node: NodeId) -> bool {
        self.nodes[node.index()].name.is_none()
    }

    /// Text content of a text node (None for elements).
    pub fn text(&self, node: NodeId) -> Option<&str> {
        let data = &self.nodes[node.index()];
        match data.name {
            Some(_) => None,
            None => Some(self.text_of(data)),
        }
    }

    /// Attributes of an element (empty for text nodes).
    pub fn attrs(&self, node: NodeId) -> Attrs<'_> {
        let data = &self.nodes[node.index()];
        match data.name {
            Some(_) => Attrs::new(&self.attrs[data.span.range()], &self.heap),
            None => Attrs::default(),
        }
    }

    /// Value of the attribute `name`, if present. A label the global
    /// interner has never seen cannot name any attribute, so the miss
    /// costs one hash lookup and no scan.
    pub fn attr(&self, node: NodeId, name: &str) -> Option<&str> {
        let name = Interner::global().lookup(name)?;
        self.attr_sym(node, name)
    }

    /// Value of the attribute with interned name `name`, if present.
    pub fn attr_sym(&self, node: NodeId, name: Sym) -> Option<&str> {
        self.attrs(node).value(name)
    }

    /// Sets (or adds) an attribute on an element. The new value goes to
    /// the heap; a replaced value becomes garbage.
    pub fn set_attr(&mut self, node: NodeId, name: impl IntoSym, value: impl AsRef<str>) {
        let data = self.nodes[node.index()];
        if data.name.is_none() {
            return;
        }
        let name = name.into_sym();
        let span = self.push_bytes(value.as_ref());
        let rows = data.span.range();
        if let Some(row) = self.attrs[rows.clone()].iter_mut().find(|r| r.name == name) {
            self.dead_bytes += row.span.len as usize;
            row.span = span;
        } else {
            // An element's rows stay contiguous: unless they already end
            // the table, move them to its end before adding the new one.
            let start = if rows.end == self.attrs.len() {
                rows.start
            } else {
                self.dead_rows += rows.len();
                let start = self.attrs.len();
                self.attrs.extend_from_within(rows);
                start
            };
            self.attrs.push(AttrRow { name, span });
            self.nodes[node.index()].span = self.rows_since(start);
        }
        self.compact_if_sparse();
    }

    /// Concatenation of the *immediate* text children — the `text()` used
    /// by qualifier comparisons in the paper's QualDP case
    /// `ǫ = 's' → satn(q) := (text() = s)`.
    pub fn immediate_text(&self, node: NodeId) -> String {
        let mut out = String::new();
        for c in self.children(node) {
            if let Some(t) = self.text(c) {
                out.push_str(t);
            }
        }
        out
    }

    /// XPath string-value: concatenation of all descendant text.
    pub fn string_value(&self, node: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants_or_self(node) {
            if let Some(t) = self.text(n) {
                out.push_str(t);
            }
        }
        out
    }

    // ---- links ----

    /// Parent node, if any.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        NodeId::from_raw(self.nodes[node.index()].parent)
    }

    /// First (left-most) child.
    pub fn first_child(&self, node: NodeId) -> Option<NodeId> {
        NodeId::from_raw(self.nodes[node.index()].first_child)
    }

    /// Last (right-most) child.
    pub fn last_child(&self, node: NodeId) -> Option<NodeId> {
        NodeId::from_raw(self.nodes[node.index()].last_child)
    }

    /// Immediate right sibling.
    pub fn next_sibling(&self, node: NodeId) -> Option<NodeId> {
        NodeId::from_raw(self.nodes[node.index()].next_sibling)
    }

    /// Immediate left sibling.
    pub fn prev_sibling(&self, node: NodeId) -> Option<NodeId> {
        NodeId::from_raw(self.nodes[node.index()].prev_sibling)
    }

    /// Iterator over direct children in document order.
    pub fn children(&self, node: NodeId) -> Children<'_> {
        Children::new(self, self.first_child(node))
    }

    /// Iterator over element children only.
    pub fn element_children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node).filter(move |&c| self.is_element(c))
    }

    /// Preorder iterator over `node` and all its descendants.
    pub fn descendants_or_self(&self, node: NodeId) -> Descendants<'_> {
        Descendants::new(self, node)
    }

    /// Iterator over ancestors, nearest first.
    pub fn ancestors(&self, node: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, node)
    }

    /// Depth of the node (root is 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.ancestors(node).count()
    }

    // ---- editing (the paper's update primitives) ----

    /// Appends `child` as the *last* child of `parent` — the placement
    /// mandated by `insert e into p` ("adds e as the rightmost child").
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert_eq!(
            self.nodes[child.index()].parent,
            NIL,
            "child must be detached"
        );
        let old_last = self.nodes[parent.index()].last_child;
        self.nodes[child.index()].parent = parent.0;
        self.nodes[child.index()].prev_sibling = old_last;
        self.nodes[child.index()].next_sibling = NIL;
        if old_last == NIL {
            self.nodes[parent.index()].first_child = child.0;
        } else {
            self.nodes[old_last as usize].next_sibling = child.0;
        }
        self.nodes[parent.index()].last_child = child.0;
    }

    /// Prepends `child` as the *first* child of `parent` —
    /// `insert e as first into p`.
    pub fn prepend_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert_eq!(
            self.nodes[child.index()].parent,
            NIL,
            "child must be detached"
        );
        let old_first = self.nodes[parent.index()].first_child;
        self.nodes[child.index()].parent = parent.0;
        self.nodes[child.index()].prev_sibling = NIL;
        self.nodes[child.index()].next_sibling = old_first;
        if old_first == NIL {
            self.nodes[parent.index()].last_child = child.0;
        } else {
            self.nodes[old_first as usize].prev_sibling = child.0;
        }
        self.nodes[parent.index()].first_child = child.0;
    }

    /// Inserts `node` immediately after `reference` (which must have a
    /// parent) — `insert e after p`.
    pub fn insert_after(&mut self, reference: NodeId, node: NodeId) {
        let parent = self.nodes[reference.index()].parent;
        debug_assert_ne!(parent, NIL, "reference must have a parent");
        let next = self.nodes[reference.index()].next_sibling;
        self.nodes[node.index()].parent = parent;
        self.nodes[node.index()].prev_sibling = reference.0;
        self.nodes[node.index()].next_sibling = next;
        self.nodes[reference.index()].next_sibling = node.0;
        if next == NIL {
            self.nodes[parent as usize].last_child = node.0;
        } else {
            self.nodes[next as usize].prev_sibling = node.0;
        }
    }

    /// Inserts `node` immediately before `reference` (which must have a
    /// parent).
    pub fn insert_before(&mut self, reference: NodeId, node: NodeId) {
        let parent = self.nodes[reference.index()].parent;
        debug_assert_ne!(parent, NIL, "reference must have a parent");
        let prev = self.nodes[reference.index()].prev_sibling;
        self.nodes[node.index()].parent = parent;
        self.nodes[node.index()].prev_sibling = prev;
        self.nodes[node.index()].next_sibling = reference.0;
        self.nodes[reference.index()].prev_sibling = node.0;
        if prev == NIL {
            self.nodes[parent as usize].first_child = node.0;
        } else {
            self.nodes[prev as usize].next_sibling = node.0;
        }
    }

    /// Detaches `node` (and its subtree) from its parent — `delete p`.
    /// The slot remains in the arena but is unreachable from the root.
    pub fn detach(&mut self, node: NodeId) {
        let data = &self.nodes[node.index()];
        let (parent, prev, next) = (data.parent, data.prev_sibling, data.next_sibling);
        if prev != NIL {
            self.nodes[prev as usize].next_sibling = next;
        } else if parent != NIL {
            self.nodes[parent as usize].first_child = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sibling = prev;
        } else if parent != NIL {
            self.nodes[parent as usize].last_child = prev;
        }
        let data = &mut self.nodes[node.index()];
        data.parent = NIL;
        data.prev_sibling = NIL;
        data.next_sibling = NIL;
        if self.root == node.0 {
            self.root = NIL;
        }
    }

    /// Replaces `old` with `new` in the tree — `replace p with e`.
    /// `new` must be detached. The `old` subtree's arena slots are
    /// recycled: its `NodeId`s must not be used afterwards.
    pub fn replace(&mut self, old: NodeId, new: NodeId) {
        if self.nodes[old.index()].parent == NIL {
            // Replacing the root.
            if self.root == old.0 {
                self.root = new.0;
                self.recycle(old);
            }
            return;
        }
        self.insert_before(old, new);
        self.detach(old);
        self.recycle(old);
    }

    /// Removes `node` permanently — `delete p` — and recycles its whole
    /// subtree's arena slots for reuse by later allocations, so repeated
    /// insert/delete cycles keep the arena bounded. Unlike
    /// [`Document::detach`] (which keeps the subtree alive for
    /// re-insertion), the deleted `NodeId`s must not be used afterwards.
    pub fn delete(&mut self, node: NodeId) {
        if self.nodes[node.index()].is_freed() {
            // Already recycled: an earlier delete covered this node (the
            // target list contained an ancestor).
            return;
        }
        self.detach(node);
        self.recycle(node);
    }

    /// Pushes every slot of the (already detached) subtree at `node`
    /// onto the free list, counting its heap bytes and attribute rows as
    /// garbage.
    fn recycle(&mut self, node: NodeId) {
        if self.nodes[node.index()].is_freed() {
            return;
        }
        let subtree: Vec<NodeId> = self.descendants_or_self(node).collect();
        for n in subtree {
            let data = self.nodes[n.index()];
            match data.name {
                Some(_) => {
                    let rows = &self.attrs[data.span.range()];
                    self.dead_rows += rows.len();
                    self.dead_bytes += rows.iter().map(|r| r.span.len as usize).sum::<usize>();
                }
                None => self.dead_bytes += data.span.len as usize,
            }
            self.nodes[n.index()] = NodeData::new(None, Span::FREED);
            self.free.push(n.0);
        }
        self.compact_if_sparse();
    }

    /// Renames an element — `rename p as l`. No-op on text nodes.
    pub fn rename(&mut self, node: NodeId, new_name: impl IntoSym) {
        let data = &mut self.nodes[node.index()];
        if data.name.is_some() {
            data.name = Some(new_name.into_sym());
        }
    }

    // ---- heap compaction ----

    /// Compacts once garbage outweighs live data, in heap bytes or in
    /// attribute rows, so edit cycles keep both buffers bounded at no
    /// more than twice the live size, at amortized O(1) per retired
    /// byte.
    fn compact_if_sparse(&mut self) {
        if self.dead_bytes * 2 > self.heap.len() || self.dead_rows * 2 > self.attrs.len() {
            self.compact();
        }
    }

    /// Rewrites the heap and the attribute table to hold only what live
    /// nodes reference (detached subtrees included), updating each
    /// record's span. Node records stay where they are, so every
    /// `NodeId` keeps its node. Runs automatically as garbage builds up;
    /// public so tests can force it between edits.
    pub fn compact(&mut self) {
        let mut heap = String::with_capacity(self.heap.len() - self.dead_bytes);
        let mut attrs = Vec::with_capacity(self.attrs.len() - self.dead_rows);
        let push = |heap: &mut String, s: &str| {
            let start = heap.len() as u32;
            heap.push_str(s);
            Span {
                start,
                len: s.len() as u32,
            }
        };
        for data in self.nodes.iter_mut().filter(|d| !d.is_freed()) {
            data.span = match data.name {
                None => push(&mut heap, &self.heap[data.span.range()]),
                Some(_) => {
                    let start = attrs.len() as u32;
                    for row in &self.attrs[data.span.range()] {
                        let span = push(&mut heap, &self.heap[row.span.range()]);
                        attrs.push(AttrRow {
                            name: row.name,
                            span,
                        });
                    }
                    Span {
                        start,
                        len: data.span.len,
                    }
                }
            };
        }
        self.heap = heap;
        self.attrs = attrs;
        self.dead_bytes = 0;
        self.dead_rows = 0;
    }

    /// Compares two nodes by document order (preorder position). An
    /// ancestor precedes its descendants. Cost is O(depth + sibling
    /// distance at the divergence point) per comparison — no global
    /// index is maintained, so edits never invalidate anything.
    pub fn doc_order_cmp(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            return Ordering::Equal;
        }
        // Root-to-node ancestor chains (inclusive).
        let chain = |n: NodeId| -> Vec<NodeId> {
            let mut c: Vec<NodeId> = std::iter::successors(Some(n), |&x| self.parent(x)).collect();
            c.reverse();
            c
        };
        let ca = chain(a);
        let cb = chain(b);
        let mut k = 0;
        while k < ca.len() && k < cb.len() && ca[k] == cb[k] {
            k += 1;
        }
        match (ca.get(k), cb.get(k)) {
            // One is an ancestor of the other: the ancestor comes first.
            (None, _) => Ordering::Less,
            (_, None) => Ordering::Greater,
            (Some(&x), Some(&y)) => {
                // Siblings under ca[k-1]: whichever is reached first
                // walking the sibling list precedes.
                let mut cur = Some(x);
                while let Some(n) = cur {
                    if n == y {
                        return Ordering::Less;
                    }
                    cur = self.next_sibling(n);
                }
                Ordering::Greater
            }
        }
    }

    /// Deep-copies the subtree rooted at `src_node` of `src` into `self`,
    /// returning the new detached root of the copy. Each node costs one
    /// record plus its bytes appended to the heap — no allocation of its
    /// own.
    pub fn deep_copy_from(&mut self, src: &Document, src_node: NodeId) -> NodeId {
        let new_root = self.copy_node_from(src, src_node);
        // Iterative copy to avoid recursion depth limits: stack of
        // (source child, destination parent). Children are pushed in
        // reverse — walking the sibling chain backwards from
        // `last_child` — so they pop (and append) in document order
        // with no per-node scratch allocation.
        let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
        let push_children_rev = |stack: &mut Vec<(NodeId, NodeId)>, from: NodeId, to: NodeId| {
            let mut c = src.nodes[from.index()].last_child;
            while c != NIL {
                stack.push((NodeId(c), to));
                c = src.nodes[c as usize].prev_sibling;
            }
        };
        push_children_rev(&mut stack, src_node, new_root);
        while let Some((src_child, dst_parent)) = stack.pop() {
            let copy = self.copy_node_from(src, src_child);
            self.append_child(dst_parent, copy);
            push_children_rev(&mut stack, src_child, copy);
        }
        new_root
    }

    /// Copies one node of `src` (no children) into a detached node here.
    fn copy_node_from(&mut self, src: &Document, n: NodeId) -> NodeId {
        match src.kind(n) {
            NodeKind::Text(t) => self.create_text(t),
            NodeKind::Element { name, .. } => self.copy_element_from(name, src, n),
        }
    }

    /// Deep-copies a subtree *within* this document (needed when an insert
    /// targets many nodes: each gets a fresh copy of `e`). Copies through
    /// a scratch document, since the heap cannot be read while it grows.
    pub fn deep_copy(&mut self, node: NodeId) -> NodeId {
        let mut scratch = Document::new();
        let root = scratch.deep_copy_from(self, node);
        self.deep_copy_from(&scratch, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let root = d.create_element("db");
        d.set_root(root);
        let part = d.create_element("part");
        d.append_child(root, part);
        let pname = d.create_element("pname");
        d.append_child(part, pname);
        let t = d.create_text("keyboard");
        d.append_child(pname, t);
        (d, root, part, pname)
    }

    #[test]
    fn build_and_navigate() {
        let (d, root, part, pname) = sample();
        assert_eq!(d.root(), Some(root));
        assert_eq!(d.parent(part), Some(root));
        assert_eq!(d.first_child(root), Some(part));
        assert_eq!(d.last_child(part), Some(pname));
        assert_eq!(d.name(pname), Some("pname"));
        assert_eq!(d.node_count(), 4);
    }

    #[test]
    fn immediate_text_and_string_value() {
        let (d, root, _, pname) = sample();
        assert_eq!(d.immediate_text(pname), "keyboard");
        assert_eq!(d.immediate_text(root), "");
        assert_eq!(d.string_value(root), "keyboard");
    }

    #[test]
    fn attributes() {
        let mut d = Document::new();
        let e = d.create_element_with_attrs("a", [("id".into(), "x1")]);
        assert_eq!(d.attr(e, "id"), Some("x1"));
        assert_eq!(d.attr(e, "nope"), None);
        d.set_attr(e, "id", "y2");
        d.set_attr(e, "k", "v");
        assert_eq!(d.attr(e, "id"), Some("y2"));
        assert_eq!(d.attr(e, "k"), Some("v"));
    }

    #[test]
    fn append_maintains_sibling_chain() {
        let mut d = Document::new();
        let r = d.create_element("r");
        d.set_root(r);
        let a = d.create_element("a");
        let b = d.create_element("b");
        let c = d.create_element("c");
        d.append_child(r, a);
        d.append_child(r, b);
        d.append_child(r, c);
        let kids: Vec<_> = d.children(r).collect();
        assert_eq!(kids, vec![a, b, c]);
        assert_eq!(d.prev_sibling(b), Some(a));
        assert_eq!(d.next_sibling(b), Some(c));
        assert_eq!(d.last_child(r), Some(c));
    }

    #[test]
    fn detach_middle_child() {
        let mut d = Document::new();
        let r = d.create_element("r");
        d.set_root(r);
        let a = d.create_element("a");
        let b = d.create_element("b");
        let c = d.create_element("c");
        d.append_child(r, a);
        d.append_child(r, b);
        d.append_child(r, c);
        d.detach(b);
        let kids: Vec<_> = d.children(r).collect();
        assert_eq!(kids, vec![a, c]);
        assert_eq!(d.parent(b), None);
        assert_eq!(d.next_sibling(a), Some(c));
        assert_eq!(d.prev_sibling(c), Some(a));
    }

    #[test]
    fn detach_first_and_last() {
        let mut d = Document::new();
        let r = d.create_element("r");
        d.set_root(r);
        let a = d.create_element("a");
        let b = d.create_element("b");
        d.append_child(r, a);
        d.append_child(r, b);
        d.detach(a);
        assert_eq!(d.first_child(r), Some(b));
        d.detach(b);
        assert_eq!(d.first_child(r), None);
        assert_eq!(d.last_child(r), None);
    }

    #[test]
    fn replace_node() {
        let (mut d, _, part, _) = sample();
        let sub = d.create_element("widget");
        d.replace(part, sub);
        let root = d.root().unwrap();
        let kids: Vec<_> = d.children(root).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(d.name(kids[0]), Some("widget"));
    }

    #[test]
    fn replace_root() {
        let (mut d, root, _, _) = sample();
        let new_root = d.create_element("newdb");
        d.replace(root, new_root);
        assert_eq!(d.root(), Some(new_root));
    }

    #[test]
    fn rename_element() {
        let (mut d, _, part, _) = sample();
        d.rename(part, "component");
        assert_eq!(d.name(part), Some("component"));
    }

    #[test]
    fn rename_text_noop() {
        let mut d = Document::new();
        let t = d.create_text("x");
        d.rename(t, "y");
        assert!(d.is_text(t));
    }

    #[test]
    fn deep_copy_from_other_document() {
        let (src, _, part, _) = sample();
        let mut dst = Document::new();
        let copy = dst.deep_copy_from(&src, part);
        assert_eq!(dst.name(copy), Some("part"));
        assert!(crate::eq::deep_eq(&src, part, &dst, copy));
    }

    #[test]
    fn deep_copy_within_document() {
        let (mut d, root, part, _) = sample();
        let copy = d.deep_copy(part);
        assert!(crate::eq::deep_eq(&d, part, &d, copy));
        d.append_child(root, copy);
        assert_eq!(d.children(root).count(), 2);
    }

    #[test]
    fn insert_before_front() {
        let mut d = Document::new();
        let r = d.create_element("r");
        d.set_root(r);
        let a = d.create_element("a");
        d.append_child(r, a);
        let z = d.create_element("z");
        d.insert_before(a, z);
        let kids: Vec<_> = d.children(r).collect();
        assert_eq!(d.name(kids[0]), Some("z"));
        assert_eq!(d.first_child(r), Some(z));
    }

    #[test]
    fn depth_and_ancestors() {
        let (d, root, part, pname) = sample();
        assert_eq!(d.depth(root), 0);
        assert_eq!(d.depth(pname), 2);
        let anc: Vec<_> = d.ancestors(pname).collect();
        assert_eq!(anc, vec![part, root]);
    }

    #[test]
    fn prepend_child_orders() {
        let mut d = Document::new();
        let r = d.create_element("r");
        d.set_root(r);
        let a = d.create_element("a");
        d.prepend_child(r, a); // into empty parent
        let b = d.create_element("b");
        d.prepend_child(r, b); // in front of a
        let names: Vec<_> = d
            .children(r)
            .map(|c| d.name(c).unwrap().to_string())
            .collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(d.first_child(r), Some(b));
        assert_eq!(d.last_child(r), Some(a));
        assert_eq!(d.prev_sibling(a), Some(b));
        assert_eq!(d.next_sibling(b), Some(a));
    }

    #[test]
    fn insert_after_middle_and_end() {
        let mut d = Document::parse("<r><a/><b/></r>").unwrap();
        let r = d.root().unwrap();
        let a = d.first_child(r).unwrap();
        let b = d.last_child(r).unwrap();
        let x = d.create_element("x");
        d.insert_after(a, x); // middle
        let y = d.create_element("y");
        d.insert_after(b, y); // end — must update last_child
        let names: Vec<_> = d
            .children(r)
            .map(|c| d.name(c).unwrap().to_string())
            .collect();
        assert_eq!(names, ["a", "x", "b", "y"]);
        assert_eq!(d.last_child(r), Some(y));
        assert_eq!(d.serialize(), "<r><a/><x/><b/><y/></r>");
    }

    #[test]
    fn delete_recycles_subtree_slots() {
        let mut d = Document::parse("<r><a><b>t</b></a><c/></r>").unwrap();
        let r = d.root().unwrap();
        let a = d.first_child(r).unwrap();
        let before = d.arena_len();
        d.delete(a); // a, b, and the text node: three slots recycled
        assert_eq!(d.free_slots(), 3);
        // New allocations reuse the freed slots before growing the arena.
        let x = d.create_element("x");
        let y = d.create_text("y");
        d.append_child(r, x);
        d.append_child(x, y);
        assert_eq!(d.arena_len(), before);
        assert_eq!(d.free_slots(), 1);
        assert_eq!(d.serialize(), "<r><c/><x>y</x></r>");
    }

    #[test]
    fn replace_recycles_old_subtree() {
        let mut d = Document::parse("<r><old><deep/></old></r>").unwrap();
        let r = d.root().unwrap();
        let old = d.first_child(r).unwrap();
        let new = d.create_element("new");
        d.replace(old, new);
        assert_eq!(d.free_slots(), 2);
        assert_eq!(d.serialize(), "<r><new/></r>");
        // Replacing the root recycles the old root's subtree too.
        let new_root = d.create_element("r2");
        let r = d.root().unwrap();
        d.replace(r, new_root);
        assert_eq!(d.serialize(), "<r2/>");
        assert!(d.free_slots() >= 2);
    }

    #[test]
    fn delete_is_idempotent_under_nested_targets() {
        // `//a` style target lists can contain both an ancestor and its
        // descendant; the second delete must not double-free the slot.
        let mut d = Document::parse("<r><a><a/></a></r>").unwrap();
        let r = d.root().unwrap();
        let outer = d.first_child(r).unwrap();
        let inner = d.first_child(outer).unwrap();
        d.delete(outer);
        d.delete(inner); // already recycled: no-op
        assert_eq!(d.free_slots(), 2);
        let x = d.create_element("x");
        let y = d.create_element("y");
        d.append_child(r, x);
        d.append_child(r, y);
        // Both came from the free list; no slot was handed out twice.
        assert_ne!(x, y);
        assert_eq!(d.free_slots(), 0);
        assert_eq!(d.serialize(), "<r><x/><y/></r>");
    }

    #[test]
    fn arena_stays_bounded_across_insert_delete_cycles() {
        // The regression the free list and heap compaction exist for: a
        // long-lived document under a repeated insert→rewrite→delete
        // workload must grow neither its arena nor its value heap.
        let mut d = Document::parse("<r><keep k=\"0\">v</keep></r>").unwrap();
        let r = d.root().unwrap();
        let keep = d.first_child(r).unwrap();
        let (mut high_water, mut heap_high_water) = (0, 0);
        // Fixed-width values, so every cycle retires and adds the same
        // number of bytes.
        for cycle in 0..1_000 {
            let sub = d.create_element_with_attrs("tmp", [("id".into(), format!("c{cycle:03}"))]);
            let t = d.create_text("payload");
            d.append_child(sub, t);
            d.append_child(r, sub);
            // Rewrites retire heap bytes without freeing a slot; adding
            // an attribute to `sub` moves its rows when they do not end
            // the attribute table.
            d.set_attr(keep, "k", format!("{cycle:03}"));
            d.set_attr(sub, format!("a{}", cycle % 3), "x");
            let old_text = d.first_child(keep).unwrap();
            let new_text = d.create_text(format!("v{cycle:03}"));
            d.replace(old_text, new_text);
            if cycle < 10 {
                high_water = high_water.max(d.arena_len());
                heap_high_water = heap_high_water.max(d.heap_bytes());
            } else {
                assert_eq!(
                    d.arena_len(),
                    high_water,
                    "arena grew on cycle {cycle}: slots are leaking"
                );
                assert!(
                    d.heap_bytes() <= heap_high_water,
                    "heap grew to {} bytes on cycle {cycle} (high water {heap_high_water}): \
                     garbage is never compacted",
                    d.heap_bytes()
                );
            }
            d.delete(sub);
        }
        assert_eq!(d.serialize(), "<r><keep k=\"999\">v999</keep></r>");
    }

    #[test]
    fn compaction_keeps_ids_and_payloads() {
        let mut d = Document::parse("<r a=\"1\"><x b=\"2\">t</x><y/>u</r>").unwrap();
        let r = d.root().unwrap();
        let x = d.first_child(r).unwrap();
        let y = d.next_sibling(x).unwrap();
        d.set_attr(x, "b", "3");
        d.set_attr(r, "c", "4");
        let detached = d.create_text("kept while detached");
        d.delete(y);
        let before = d.serialize();
        d.compact();
        assert_eq!(d.serialize(), before);
        assert_eq!(d.attr(x, "b"), Some("3"));
        assert_eq!(d.attr(r, "c"), Some("4"));
        assert_eq!(d.text(detached), Some("kept while detached"));
        assert_eq!(d.name(x), Some("x"));
    }

    #[test]
    fn parsed_document_has_no_spare_capacity() {
        let d = Document::parse("<r a=\"1\"><x>some text</x><y b=\"22\">more</y></r>").unwrap();
        // A clone allocates exactly what it copies, so equal figures mean
        // parsing left no growth slack behind.
        assert_eq!(d.heap_bytes(), d.clone().heap_bytes());
    }

    #[test]
    fn doc_order_cmp_total_order() {
        use std::cmp::Ordering;
        let d = Document::parse("<r><a><b/><c><d/></c></a><e/></r>").unwrap();
        let root = d.root().unwrap();
        // Preorder traversal is the expected document order.
        let order: Vec<NodeId> = d.descendants_or_self(root).collect();
        for (i, &x) in order.iter().enumerate() {
            for (j, &y) in order.iter().enumerate() {
                let expect = i.cmp(&j);
                assert_eq!(d.doc_order_cmp(x, y), expect, "pair ({i},{j})");
            }
        }
        assert_eq!(d.doc_order_cmp(root, root), Ordering::Equal);
        // Sorting a shuffled set restores preorder.
        let mut shuffled: Vec<NodeId> = order.iter().rev().copied().collect();
        shuffled.sort_by(|&a, &b| d.doc_order_cmp(a, b));
        assert_eq!(shuffled, order);
    }
}

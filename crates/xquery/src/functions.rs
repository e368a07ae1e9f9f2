//! Built-in function library.
//!
//! Only what the paper's generated and hand-written queries need:
//! `empty`, `exists`, `not`, `count`, `local-name`, `string`, `concat`,
//! `contains`, plus two helpers used by the Naive rewriting template in
//! place of full axis support: `is-element($n)` (for `$n[self::element()]`)
//! and `children($n)` (for `$n/(*|@*|text())` — child nodes *and*
//! attributes, which the constructor re-attaches appropriately).

use crate::error::QueryError;
use crate::value::{attr_of, effective_boolean, string_value, Item, Store, Value};

/// Dispatches a built-in by name. Returns `None` if the name is unknown
/// (the caller then tries user-defined and native functions).
pub fn call_builtin(
    store: &Store,
    name: &str,
    args: &[Value],
) -> Option<Result<Value, QueryError>> {
    let r = match name {
        "empty" => arity(name, args, 1).map(|_| vec![Item::Bool(args[0].is_empty())]),
        "exists" => arity(name, args, 1).map(|_| vec![Item::Bool(!args[0].is_empty())]),
        "not" => arity(name, args, 1).map(|_| vec![Item::Bool(!effective_boolean(&args[0]))]),
        "count" => arity(name, args, 1).map(|_| vec![Item::Num(args[0].len() as f64)]),
        "true" => arity(name, args, 0).map(|_| vec![Item::Bool(true)]),
        "false" => arity(name, args, 0).map(|_| vec![Item::Bool(false)]),
        "local-name" => arity(name, args, 1).and_then(|_| match args[0].as_slice() {
            [] => Ok(vec![Item::Str(String::new())]),
            [Item::Node(d, n)] => Ok(vec![Item::Str(
                store.doc(*d).name(*n).unwrap_or("").to_string(),
            )]),
            [Item::Attr(d, n, i)] => Ok(vec![Item::Str(
                attr_of(store, *d, *n, *i).0.as_str().to_string(),
            )]),
            _ => Err(QueryError::new("local-name() needs a single node")),
        }),
        "string" => arity(name, args, 1).map(|_| {
            let s = args[0]
                .iter()
                .map(|i| string_value(store, i))
                .collect::<Vec<_>>()
                .join(" ");
            vec![Item::Str(s)]
        }),
        "concat" => {
            let mut out = String::new();
            for a in args {
                for item in a {
                    out.push_str(&string_value(store, item));
                }
            }
            Ok(vec![Item::Str(out)])
        }
        "contains" => arity(name, args, 2).map(|_| {
            let hay = args[0]
                .first()
                .map(|i| string_value(store, i))
                .unwrap_or_default();
            let needle = args[1]
                .first()
                .map(|i| string_value(store, i))
                .unwrap_or_default();
            vec![Item::Bool(hay.contains(&needle))]
        }),
        "data" => arity(name, args, 1).map(|_| {
            args[0]
                .iter()
                .map(|i| Item::Str(string_value(store, i)))
                .collect()
        }),
        "is-element" => arity(name, args, 1).map(|_| {
            let is_elem = matches!(
                args[0].as_slice(),
                [Item::Node(d, n)] if store.doc(*d).is_element(*n)
            );
            vec![Item::Bool(is_elem)]
        }),
        "is-text" => arity(name, args, 1).map(|_| {
            let is_text = matches!(
                args[0].as_slice(),
                [Item::Node(d, n)] if store.doc(*d).is_text(*n)
            );
            vec![Item::Bool(is_text)]
        }),
        "children" => arity(name, args, 1).map(|_| {
            let mut out = Vec::new();
            for item in &args[0] {
                match item {
                    Item::Node(d, n) => {
                        let doc = store.doc(*d);
                        for i in 0..doc.attrs(*n).len() {
                            out.push(Item::Attr(*d, *n, i));
                        }
                        for c in doc.children(*n) {
                            out.push(Item::Node(*d, c));
                        }
                    }
                    Item::DocNode(d) => {
                        if let Some(r) = store.doc(*d).root() {
                            out.push(Item::Node(*d, r));
                        }
                    }
                    _ => {}
                }
            }
            out
        }),
        _ => return None,
    };
    Some(r)
}

fn arity(name: &str, args: &[Value], n: usize) -> Result<(), QueryError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(QueryError::new(format!(
            "{name}() expects {n} argument(s), got {}",
            args.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_tree::Document;

    fn store() -> (Store, usize) {
        let mut s = Store::new();
        let d = Document::parse(r#"<a k="v"><b>x</b>tail</a>"#).unwrap();
        let id = s.load("d", d);
        (s, id)
    }

    fn b(v: &Value) -> bool {
        matches!(v.as_slice(), [Item::Bool(true)])
    }

    #[test]
    fn empty_exists_not_count() {
        let (s, _) = store();
        assert!(b(&call_builtin(&s, "empty", &[vec![]]).unwrap().unwrap()));
        assert!(!b(&call_builtin(&s, "empty", &[vec![Item::Num(1.0)]])
            .unwrap()
            .unwrap()));
        assert!(b(&call_builtin(&s, "exists", &[vec![Item::Num(1.0)]])
            .unwrap()
            .unwrap()));
        assert!(b(&call_builtin(&s, "not", &[vec![]]).unwrap().unwrap()));
        let c = call_builtin(&s, "count", &[vec![Item::Num(1.0), Item::Num(2.0)]])
            .unwrap()
            .unwrap();
        assert_eq!(c, vec![Item::Num(2.0)]);
    }

    #[test]
    fn local_name_and_string() {
        let (s, id) = store();
        let root = s.doc(id).root().unwrap();
        let v = call_builtin(&s, "local-name", &[vec![Item::Node(id, root)]])
            .unwrap()
            .unwrap();
        assert_eq!(v, vec![Item::Str("a".into())]);
        let v = call_builtin(&s, "string", &[vec![Item::Node(id, root)]])
            .unwrap()
            .unwrap();
        assert_eq!(v, vec![Item::Str("xtail".into())]);
    }

    #[test]
    fn children_includes_attrs_and_nodes() {
        let (s, id) = store();
        let root = s.doc(id).root().unwrap();
        let v = call_builtin(&s, "children", &[vec![Item::Node(id, root)]])
            .unwrap()
            .unwrap();
        // attribute k, element b, text tail
        assert_eq!(v.len(), 3);
        assert!(matches!(v[0], Item::Attr(..)));
    }

    #[test]
    fn is_element_and_text() {
        let (s, id) = store();
        let root = s.doc(id).root().unwrap();
        let text = s.doc(id).children(root).nth(1).unwrap();
        assert!(b(&call_builtin(
            &s,
            "is-element",
            &[vec![Item::Node(id, root)]]
        )
        .unwrap()
        .unwrap()));
        assert!(b(&call_builtin(
            &s,
            "is-text",
            &[vec![Item::Node(id, text)]]
        )
        .unwrap()
        .unwrap()));
    }

    #[test]
    fn unknown_function_none() {
        let (s, _) = store();
        assert!(call_builtin(&s, "no-such-fn", &[]).is_none());
    }

    #[test]
    fn arity_errors() {
        let (s, _) = store();
        assert!(call_builtin(&s, "empty", &[]).unwrap().is_err());
        assert!(call_builtin(&s, "contains", &[vec![]]).unwrap().is_err());
    }

    #[test]
    fn concat_and_contains() {
        let (s, _) = store();
        let v = call_builtin(
            &s,
            "concat",
            &[vec![Item::Str("a".into())], vec![Item::Str("b".into())]],
        )
        .unwrap()
        .unwrap();
        assert_eq!(v, vec![Item::Str("ab".into())]);
        let v = call_builtin(
            &s,
            "contains",
            &[
                vec![Item::Str("hello".into())],
                vec![Item::Str("ell".into())],
            ],
        )
        .unwrap()
        .unwrap();
        assert!(b(&v));
    }
}

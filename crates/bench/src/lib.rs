//! `xust-bench` — shared workload definitions and helpers for the
//! experiment harness (Section 7 of the paper).
//!
//! The workload is Fig. 11 verbatim: ten insertion transform queries that
//! differ only in their embedded XPath expressions, evaluated over XMark
//! documents. `cargo run -p xust-bench --release --bin experiments` prints
//! the tables/series behind every figure; the Criterion benches under
//! `benches/` regenerate the same comparisons with statistical rigor at
//! reduced scale.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use xust_compose::UserQuery;
use xust_core::{evaluate, two_pass_sax_str, Method, TransformQuery};
use xust_tree::Document;
use xust_xmark::{generate, generate_to_file, XmarkConfig};
use xust_xpath::parse_path;

/// The embedded XPath expressions U1–U10 of Fig. 11.
pub const WORKLOAD: [&str; 10] = [
    "/site/people/person",
    "/site/people/person[@id = \"person10\"]",
    "/site/people/person[profile/age > 20]",
    "/site/regions//item",
    "/site//description",
    "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
    "/site/open_auctions/open_auction[bidder/increase>5]/annotation[happiness < 20]/description//text",
    "/site/open_auctions/open_auction[initial > 10 and reserve >50]/bidder",
    "/site/regions//item[location =\"United States\"]",
    "/site//open_auctions/open_auction[not(@id =\"open_auction2\")]/bidder[increase > 10]",
];

/// Display name of Uᵢ (1-based).
pub fn u_name(i: usize) -> String {
    format!("U{}", i + 1)
}

/// The constant element inserted by the insertion transform queries.
pub fn insert_element() -> Document {
    Document::parse("<xust-mark><origin>bench</origin></xust-mark>").expect("static XML")
}

/// The insertion transform query for workload entry `i` (0-based).
pub fn insert_query(i: usize) -> TransformQuery {
    TransformQuery::insert(
        "xmark",
        parse_path(WORKLOAD[i]).expect("workload paths parse"),
        insert_element(),
    )
}

/// A delete variant (used by the composition pairs).
pub fn delete_query(i: usize) -> TransformQuery {
    TransformQuery::delete(
        "xmark",
        parse_path(WORKLOAD[i]).expect("workload paths parse"),
    )
}

/// A transform query over workload path `i` for any update kind — the
/// `ops` experiment behind the paper's remark that "transform queries of
/// the other types consistently yield qualitatively similar results".
/// Kinds: `insert`, `insert-first`, `insert-before`, `insert-after`,
/// `delete`, `replace`, `rename`.
pub fn op_query(i: usize, kind: &str) -> TransformQuery {
    use xust_core::InsertPos;
    let path = parse_path(WORKLOAD[i]).expect("workload paths parse");
    match kind {
        "insert" => TransformQuery::insert("xmark", path, insert_element()),
        "insert-first" => {
            TransformQuery::insert_at("xmark", path, insert_element(), InsertPos::FirstInto)
        }
        "insert-before" => {
            TransformQuery::insert_at("xmark", path, insert_element(), InsertPos::Before)
        }
        "insert-after" => {
            TransformQuery::insert_at("xmark", path, insert_element(), InsertPos::After)
        }
        "delete" => TransformQuery::delete("xmark", path),
        "replace" => TransformQuery::replace("xmark", path, insert_element()),
        "rename" => TransformQuery::rename("xmark", path, "renamed"),
        other => panic!("unknown update kind '{other}'"),
    }
}

/// A realistic k-rule policy-style multi-update over XMark, used by the
/// `multi` experiment and the extensions bench. The first `k` of four
/// rules are taken.
pub fn multi_query(k: usize) -> xust_core::MultiTransformQuery {
    use xust_core::{InsertPos, MultiTransformQuery, UpdateOp};
    let rules: Vec<(&str, UpdateOp)> = vec![
        ("/site/people/person/creditcard", UpdateOp::Delete),
        (
            "/site/regions//item",
            UpdateOp::Insert {
                elem: insert_element(),
                pos: InsertPos::FirstInto,
            },
        ),
        (
            "/site/people/person/profile",
            UpdateOp::Replace {
                elem: Document::parse("<profile>withheld</profile>").unwrap(),
            },
        ),
        (
            "/site/open_auctions/open_auction",
            UpdateOp::Rename {
                name: "auction".into(),
            },
        ),
    ];
    MultiTransformQuery::new(
        "xmark",
        rules
            .into_iter()
            .take(k)
            .map(|(p, op)| (parse_path(p).expect("rule paths parse"), op))
            .collect(),
    )
}

/// The k views of `bench_smoke`'s `multi_view` row: single-update
/// transform queries over one XMark document sharing the
/// qualifier-bearing descendant prefix `/site//open_auction[…]//` and
/// branching only on the final label (each view projects away a
/// different content class). Descendant steps keep several automaton
/// states live at every node, so each *private* pass re-pays that
/// multi-state walk — and the shared qualifier — per view; the
/// factorised pass pays the union walk once and only the per-view
/// output copies k times.
pub fn shared_view_queries(k: usize) -> Vec<TransformQuery> {
    const SUFFIXES: [&str; 8] = [
        "annotation",
        "description",
        "parlist",
        "listitem",
        "text",
        "emph",
        "keyword",
        "bold",
    ];
    (0..k)
        .map(|i| {
            let path = parse_path(&format!(
                "/site//open_auction[bidder/increase > 5]//{}",
                SUFFIXES[i % SUFFIXES.len()]
            ))
            .expect("view paths parse");
            TransformQuery::delete("xmark", path)
        })
        .collect()
}

/// The wrapped user query over workload path `i`.
pub fn user_query(i: usize) -> UserQuery {
    UserQuery::parse(&format!(
        "<result>{{ for $x in doc(\"xmark\"){} return $x }}</result>",
        WORKLOAD[i]
    ))
    .expect("workload user queries parse")
}

/// The four (transform, user) pairs of Section 7.2 / Fig. 15:
/// (U1 ins, U2), (U9 ins, U1), (U9 del, U4), (U8 del, U10).
pub fn composition_pairs() -> Vec<(&'static str, TransformQuery, UserQuery)> {
    vec![
        ("(U1,U2)", insert_query(0), user_query(1)),
        ("(U9,U1)", insert_query(8), user_query(0)),
        ("(U9,U4)", delete_query(8), user_query(3)),
        ("(U8,U10)", delete_query(7), user_query(9)),
    ]
}

/// Generates (or reuses) the XMark document for a factor.
pub fn xmark_doc(factor: f64) -> Document {
    generate(XmarkConfig::new(factor))
}

/// The mixed read/write ("hot writer + same-shard neighbours") workload
/// shared by `bench_smoke`'s CI-gated `serve_mixed` row and the
/// criterion `serve_mixed` bench — one definition so the smoke check
/// and the trend benchmark always measure the same workload.
pub struct MixedWorkload {
    /// One store shard, so every document is the hot writer's
    /// neighbour; `hot` plus [`MixedWorkload::neighbours`] loaded, the
    /// `nopeople` view registered, and every `(view, doc)` result
    /// warmed into the cache.
    pub server: xust_serve::Server,
    /// The neighbour document names.
    pub neighbours: [&'static str; 3],
    /// Write applied to `hot` on even rounds…
    pub insert: &'static str,
    /// …and its inverse for odd rounds, so the document (and the work
    /// per round) stays the same size across the run.
    pub delete: &'static str,
}

/// Builds [`MixedWorkload`]: server + documents + view, fully warmed.
pub fn mixed_workload(factor: f64) -> MixedWorkload {
    mixed_workload_with(factor, true)
}

/// [`mixed_workload`] with request tracing switched on or off — the
/// two sides of `bench_smoke`'s `obs_overhead` comparison (everything
/// else about the servers is identical).
pub fn mixed_workload_with(factor: f64, tracing: bool) -> MixedWorkload {
    use xust_serve::{Request, Server};
    let server = Server::builder()
        .threads(4)
        .shards(1)
        .tracing(tracing)
        .build();
    server.load_doc("hot", xmark_doc(factor));
    let neighbours = ["calm0", "calm1", "calm2"];
    for n in neighbours {
        server.load_doc(n, xmark_doc(factor));
    }
    server
        .register_view(
            "nopeople",
            r#"transform copy $a := doc("xmark") modify do delete $a/site/people return $a"#,
        )
        .expect("view registers");
    for doc in std::iter::once("hot").chain(neighbours) {
        server
            .handle(&Request::View {
                view: "nopeople".into(),
                doc: doc.into(),
            })
            .expect("warm-up view serves");
    }
    MixedWorkload {
        server,
        neighbours,
        insert: r#"transform copy $a := doc("hot") modify do insert <xust-mark><t>w</t></xust-mark> into $a/site return $a"#,
        delete: r#"transform copy $a := doc("hot") modify do delete $a//xust-mark return $a"#,
    }
}

/// Generates (or reuses) an XMark file on disk; returns its path and size
/// in bytes. Files are cached under the target directory keyed by factor.
pub fn xmark_file(factor: f64) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join("xust-bench-data");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let path = dir.join(format!("xmark-{factor}.xml"));
    if !path.exists() {
        generate_to_file(XmarkConfig::new(factor), &path).expect("generate file");
    }
    let size = std::fs::metadata(&path).expect("stat").len();
    (path, size)
}

/// Runs one evaluation method the way the paper's experiment would: DOM
/// methods get the pre-parsed document (Qizx's loaded store), twoPassSAX
/// gets serialized input and produces serialized output (its two parses
/// are part of its measured work). Returns the serialized result length
/// as a sanity witness.
pub fn run_method(doc: &Document, xml: &str, q: &TransformQuery, m: Method) -> usize {
    match m {
        Method::TwoPassSax => two_pass_sax_str(xml, q).expect("streaming transform").len(),
        other => evaluate(doc, q, other).expect("evaluation").arena_len(),
    }
}

/// Wall-clock one invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_parses_and_builds() {
        for i in 0..10 {
            let q = insert_query(i);
            assert_eq!(q.op.kind(), "insert");
            assert_eq!(u_name(i), format!("U{}", i + 1));
        }
        assert_eq!(composition_pairs().len(), 4);
    }

    #[test]
    fn xmark_file_cached() {
        let (p1, s1) = xmark_file(0.0004);
        let (p2, s2) = xmark_file(0.0004);
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        assert!(s1 > 1000);
    }
}

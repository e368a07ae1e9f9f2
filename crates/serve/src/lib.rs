#![warn(missing_docs)]
//! `xust-serve` — a concurrent transform-view service over the
//! *Querying XML with Update Syntax* engine.
//!
//! The paper's promise is answering queries over transformed documents
//! — security views, policy views, hypothetical "what-if" scenarios —
//! **without materializing them**. That only pays off at scale if the
//! per-query setup (parsing, selecting/filtering-NFA construction,
//! composition) happens *once* and is then shared by every concurrent
//! client. This crate is that serving layer:
//!
//! * [`ViewRegistry`] — named views (chains of transform queries, or
//!   security policies) compiled at registration;
//! * [`PreparedCache`] — ad-hoc transforms and composed user queries
//!   keyed by text, so repeat requests skip parse + automaton
//!   construction (hits/misses/compiles are counted and asserted in
//!   tests);
//! * a fixed evaluation [`Method`] per compiled transform — GENTOP, or
//!   TD-BU when a qualifier has a `//` step
//!   ([`method_for`](xust_core::method_for)); file-backed documents
//!   stream with twoPassSAX;
//! * [`ViewResultCache`] — materialized view results, kept **valid
//!   across live writes** by delta-aware maintenance: an
//!   [`UPDATE`](Server::update_doc) retains every entry the write
//!   provably cannot affect (NFA label-alphabet relevance test) and
//!   applies the delta to it in place, dropping only the rest;
//! * [`Server`] — `Arc`-shared immutable documents behind an
//!   epoch-based COW [`DocStore`], a worker [`ThreadPool`], a batched
//!   multi-document entry point, a streaming SAX path for file-backed
//!   inputs, and the live update path.
//!
//! # Quickstart
//!
//! ```
//! use xust_serve::{Request, Server};
//! use xust_tree::Document;
//!
//! let server = Server::builder().threads(2).build();
//! server.load_doc(
//!     "db",
//!     Document::parse("<db><part><pname>kb</pname><price>9</price></part></db>").unwrap(),
//! );
//! server
//!     .register_view(
//!         "public",
//!         r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
//!     )
//!     .unwrap();
//!
//! // Materialize the view…
//! let view = server
//!     .handle(&Request::View { view: "public".into(), doc: "db".into() })
//!     .unwrap();
//! assert_eq!(view.body, "<db><part><pname>kb</pname></part></db>");
//!
//! // …or query it virtually (composed, never materialized).
//! let ans = server
//!     .handle(&Request::Query {
//!         view: "public".into(),
//!         doc: "db".into(),
//!         query: r#"<out>{ for $x in doc("db")/db/part return $x }</out>"#.into(),
//!     })
//!     .unwrap();
//! assert_eq!(ans.body, "<out><part><pname>kb</pname></part></out>");
//!
//! // Write through the live update path: COW epoch bump, and the
//! // cached view result above is *maintained* (the delta never touches
//! // a label the view's automata test), not recomputed.
//! server
//!     .update_doc(
//!         "db",
//!         r#"transform copy $a := doc("db") modify do insert <stock>3</stock> into $a/db/part return $a"#,
//!     )
//!     .unwrap();
//! let after = server
//!     .handle(&Request::View { view: "public".into(), doc: "db".into() })
//!     .unwrap();
//! assert_eq!(after.body, "<db><part><pname>kb</pname><stock>3</stock></part></db>");
//! assert_eq!(server.stats().delta_retained, 1);
//! ```

pub mod cache;
pub mod error;
pub mod executor;
pub mod explain;
pub mod obs;
pub mod pipeline;
pub mod registry;
pub mod server;
pub mod session;
pub mod stats;
pub mod store;
pub mod viewcache;
pub mod wal;
mod write;

pub use cache::PreparedCache;
pub use error::ServeError;
pub use executor::{StealStats, ThreadPool};
pub use explain::{Analysis, Explanation, LinkPlan};
pub use obs::{HistogramSnapshot, LatencyHistogram, Obs, Phase, RequestTrace, Trace};
pub use pipeline::{serve_pipelined, PipelineOptions};
pub use registry::{ViewBody, ViewDef, ViewRegistry};
pub use server::{DocSource, Request, Response, Server, ServerBuilder, WalRecovery};
pub use session::StreamingSession;
pub use stats::{
    json_escape, DeltaCell, EwmaCell, Family, ServeStats, StatsSnapshot, Text, Verb, FAMILIES,
    SCALARS,
};
pub use store::{DocStore, StoreSnapshot, StoreUpdateError, VersionedDoc, WriteStamp};
pub use viewcache::{Fallback, MaintainOutcome, ViewResultCache};
pub use wal::{Wal, WalRecord, WalReplay};

// Re-exported so callers can name evaluation methods and label sets
// without depending on xust-core directly.
pub use xust_core::{LabelSet, Method};

// Re-exported so callers can consume the registration-time static
// analysis ([`Server::analyze`], [`ViewDef::analysis`]) without
// depending on xust-analyze directly.
pub use xust_analyze::ViewAnalysis;

#[cfg(test)]
mod tests {
    use super::*;
    use xust_secview::Policy;
    use xust_tree::Document;

    const XML: &str = concat!(
        "<db>",
        "<part><pname>kb</pname><supplier><sname>HP</sname><price>9</price></supplier></part>",
        "<part><pname>mouse</pname><supplier><sname>IBM</sname><price>20</price></supplier></part>",
        "</db>"
    );
    const DEL_PRICE: &str =
        r#"transform copy $a := doc("db") modify do delete $a//price return $a"#;
    const REN_PART: &str =
        r#"transform copy $a := doc("db") modify do rename $a/db/part as item return $a"#;

    fn server() -> Server {
        let s = Server::builder().threads(2).build();
        s.load_doc_str("db", XML).unwrap();
        s
    }

    #[test]
    fn transform_requests_cache_compilations() {
        let s = server();
        let req = Request::Transform {
            doc: "db".into(),
            query: DEL_PRICE.into(),
        };
        let first = s.handle(&req).unwrap();
        assert!(!first.cache_hit);
        assert!(!first.body.contains("<price>"));
        for _ in 0..5 {
            let again = s.handle(&req).unwrap();
            assert!(again.cache_hit);
            assert_eq!(again.body, first.body);
        }
        let snap = s.stats();
        assert_eq!(snap.compiles, 1, "one parse+NFA build for six requests");
        assert_eq!(snap.cache_hits, 5);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn view_chain_applies_in_order() {
        let s = server();
        s.register_view_chain("scenario", &[DEL_PRICE, REN_PART])
            .unwrap();
        let out = s
            .handle(&Request::View {
                view: "scenario".into(),
                doc: "db".into(),
            })
            .unwrap();
        assert!(out.body.contains("<item>"));
        assert!(!out.body.contains("<price>"));
        assert_eq!(s.registration_compiles(), 2);
    }

    #[test]
    fn composed_query_equals_query_over_materialized_view() {
        let s = server();
        s.register_view("public", DEL_PRICE).unwrap();
        let user = r#"<out>{ for $x in doc("db")/db/part/supplier return $x }</out>"#;
        let composed = s
            .handle(&Request::Query {
                view: "public".into(),
                doc: "db".into(),
                query: user.into(),
            })
            .unwrap();
        // Reference: materialize, then query sequentially.
        let view = s
            .handle(&Request::View {
                view: "public".into(),
                doc: "db".into(),
            })
            .unwrap();
        let doc = Document::parse(&view.body).unwrap();
        let mut engine = xust_xquery::Engine::new();
        engine.load_doc("db", doc);
        let uq = xust_compose::UserQuery::parse(user).unwrap();
        let v = engine.eval_expr(&uq.to_expr(), &[]).unwrap();
        assert_eq!(composed.body, engine.serialize_value(&v));
        // Repeat requests hit the composed cache.
        let again = s
            .handle(&Request::Query {
                view: "public".into(),
                doc: "db".into(),
                query: user.into(),
            })
            .unwrap();
        assert!(again.cache_hit);
        assert_eq!(s.stats().compositions, 1);
    }

    #[test]
    fn policies_serve_as_views() {
        let s = server();
        let policy = Policy::new("interns", "db")
            .hide("prices", "//price")
            .unwrap()
            .relabel("suppliers", "//supplier", "source")
            .unwrap();
        s.register_policy(&policy).unwrap();
        let out = s
            .handle(&Request::View {
                view: "interns".into(),
                doc: "db".into(),
            })
            .unwrap();
        assert!(!out.body.contains("<price>"));
        assert!(out.body.contains("<source>"));
        // Query over a multi-rule policy view (materialize + engine).
        let ans = s
            .handle(&Request::Query {
                view: "interns".into(),
                doc: "db".into(),
                query: r#"<r>{ for $x in doc("db")/db/part/source/sname return $x }</r>"#.into(),
            })
            .unwrap();
        assert_eq!(ans.body, "<r><sname>HP</sname><sname>IBM</sname></r>");
    }

    #[test]
    fn file_backed_documents_stream() {
        let dir = std::env::temp_dir();
        let path = dir.join("xust_serve_file_test.xml");
        std::fs::write(&path, XML).unwrap();
        let s = server();
        s.load_doc_file("disk", &path).unwrap();
        s.register_view("pub", DEL_PRICE).unwrap();
        let out = s
            .handle(&Request::View {
                view: "pub".into(),
                doc: "disk".into(),
            })
            .unwrap();
        assert_eq!(out.method, Some(Method::TwoPassSax));
        assert!(!out.body.contains("<price>"));
        // Ad-hoc transforms over files stream too.
        let t = s
            .handle(&Request::Transform {
                doc: "disk".into(),
                query: DEL_PRICE.into(),
            })
            .unwrap();
        assert_eq!(t.method, Some(Method::TwoPassSax));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_preserves_request_order() {
        let s = server();
        s.register_view("public", DEL_PRICE).unwrap();
        let batch: Vec<Request> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    Request::View {
                        view: "public".into(),
                        doc: "db".into(),
                    }
                } else {
                    Request::Transform {
                        doc: "db".into(),
                        query: REN_PART.into(),
                    }
                }
            })
            .collect();
        let results = s.execute_batch(batch);
        assert_eq!(results.len(), 16);
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().unwrap();
            if i % 2 == 0 {
                assert!(!r.body.contains("<price>"), "view at {i}");
            } else {
                assert!(r.body.contains("<item>"), "transform at {i}");
            }
        }
        assert_eq!(s.stats().batches, 1);
    }

    #[test]
    fn errors_are_reported_and_counted() {
        let s = server();
        assert!(matches!(
            s.handle(&Request::View {
                view: "nope".into(),
                doc: "db".into()
            }),
            Err(ServeError::UnknownView(_))
        ));
        assert!(matches!(
            s.handle(&Request::Transform {
                doc: "nope".into(),
                query: DEL_PRICE.into()
            }),
            Err(ServeError::UnknownDoc(_))
        ));
        assert!(matches!(
            s.handle(&Request::Transform {
                doc: "db".into(),
                query: "garbage".into()
            }),
            Err(ServeError::Parse(_))
        ));
        assert_eq!(s.stats().failures, 3);
    }

    #[test]
    fn streaming_session_matches_transform_request() {
        use xust_sax::SaxParser;
        let s = server();
        let expected = s
            .handle(&Request::Transform {
                doc: "db".into(),
                query: DEL_PRICE.into(),
            })
            .unwrap()
            .body;

        let mut session = s.begin_stream(DEL_PRICE).unwrap();
        assert!(session.cache_hit(), "transform compiled once, reused here");
        let mut p = SaxParser::from_str(XML);
        while let Some(ev) = p.next_event().unwrap() {
            session.feed(ev).unwrap();
        }
        session.begin_replay().unwrap();
        let mut out = Vec::new();
        let mut p = SaxParser::from_str(XML);
        while let Some(ev) = p.next_event().unwrap() {
            out.extend(session.replay(ev).unwrap());
        }
        assert_eq!(session.bytes_emitted(), out.len() as u64);
        let (tail, stats) = session.finish().unwrap();
        out.extend(tail);
        assert_eq!(String::from_utf8(out).unwrap(), expected);
        assert!(stats.elements > 0);
        assert_eq!(s.stats().stream_sessions, 1);
        assert_eq!(s.store().active_snapshots(), 0, "session released its pin");
    }

    #[test]
    fn batch_takes_one_snapshot_and_counts_steals() {
        let s = Server::builder().threads(4).shards(4).build();
        s.load_doc_str("db", XML).unwrap();
        let batch: Vec<Request> = (0..32)
            .map(|_| Request::Transform {
                doc: "db".into(),
                query: DEL_PRICE.into(),
            })
            .collect();
        let results = s.execute_batch(batch);
        assert!(results.iter().all(|r| r.is_ok()));
        let snap = s.stats();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batch_items, 32);
        assert_eq!(s.store().active_snapshots(), 0, "batch snapshot released");
    }

    #[test]
    fn view_latency_ewma_is_reported() {
        let s = server();
        s.register_view("public", DEL_PRICE).unwrap();
        for _ in 0..3 {
            s.handle(&Request::View {
                view: "public".into(),
                doc: "db".into(),
            })
            .unwrap();
        }
        let (n, micros) = s
            .stats()
            .view_latency
            .iter()
            .find(|(v, _, _)| v == "public")
            .map(|&(_, n, e)| (n, e))
            .unwrap();
        assert_eq!(n, 3);
        assert!(micros >= 0.0);
    }

    #[test]
    fn epochs_advance_and_old_snapshots_survive_reload() {
        let s = server();
        let before: u64 = s.store().epochs().iter().sum();
        s.load_doc_str("db", "<db><part><price>1</price></part></db>")
            .unwrap();
        let after: u64 = s.store().epochs().iter().sum();
        assert_eq!(after, before + 1, "one COW epoch per write");
        let out = s
            .handle(&Request::Transform {
                doc: "db".into(),
                query: DEL_PRICE.into(),
            })
            .unwrap();
        assert_eq!(out.body, "<db><part/></db>");
    }

    #[test]
    fn doc_and_view_listings() {
        let s = server();
        s.register_view("v1", DEL_PRICE).unwrap();
        assert_eq!(s.doc_names(), vec!["db".to_string()]);
        assert_eq!(s.view_names(), vec!["v1".to_string()]);
    }
}

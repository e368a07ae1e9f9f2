//! Pre-compiled transform queries and their evaluation method.
//!
//! Parsing a transform query and compiling its selecting/filtering NFAs
//! is pure per-query work: it depends only on the query text, never on
//! the document. [`CompiledTransform`] performs that work once, so a
//! serving layer (`xust-serve`) can hand the same compiled artifact to
//! many concurrent evaluations — the paper's automata (Sections 3.2
//! and 5) become shared, immutable plan objects.
//!
//! Compilation also fixes the in-memory evaluation method once, by a
//! static rule over the embedded X path (see [`method_for`]): the
//! method never depends on the document or on observed latency.

use xust_automata::{FilteringNfa, LabelSet, SelectingNfa};
use xust_tree::{Document, Serialized};
use xust_xpath::{Path, QualTable, Qualifier};

use crate::bottomup::{bottom_up_prebuilt, Annotations};
use crate::copy_update::copy_update;
use crate::engine::{Method, TransformError};
use crate::naive::{naive_direct, naive_xquery};
use crate::query::{parse_transform, TransformParseError, TransformQuery};
use crate::sax2pass::{LdStorage, PreparedTransform, SaxTransformError};
use crate::topdown::{native_check, top_down_into, top_down_prebuilt};

/// The in-memory evaluation method for a transform over `path`.
///
/// Section 7 ranks topDown (GENTOP) first for in-memory transforms, so
/// it is the default. The one shape where GENTOP loses badly is a
/// qualifier with a `//` step: checking it natively rescans a subtree
/// at every candidate node, a cost that grows with the document, while
/// TD-BU answers every qualifier in one bottom-up pass (Section 5's
/// linear bound). Such paths get [`Method::TwoPass`].
pub fn method_for(path: &Path) -> Method {
    let deep_qualifier = path
        .steps
        .iter()
        .any(|s| s.qualifier.as_ref().is_some_and(Qualifier::has_descendant));
    if deep_qualifier {
        Method::TwoPass
    } else {
        Method::TopDown
    }
}

/// A transform query with its automata compiled once, reusable across
/// any number of documents and threads (it is immutable after
/// construction, hence `Send + Sync`).
///
/// ```
/// use xust_core::{CompiledTransform, Method};
/// use xust_tree::Document;
///
/// let ct = CompiledTransform::parse(
///     r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
/// ).unwrap();
/// let doc = Document::parse("<db><part><price>9</price></part></db>").unwrap();
/// let out = ct.evaluate(&doc, Method::TwoPass).unwrap();
/// assert_eq!(out.serialize(), "<db><part/></db>");
/// ```
pub struct CompiledTransform {
    query: TransformQuery,
    selecting: SelectingNfa,
    filtering: FilteringNfa,
    qual_table: QualTable,
    method: Method,
    alphabet: LabelSet,
}

impl CompiledTransform {
    /// Compiles a parsed query: builds both NFAs and the qualifier table.
    pub fn compile(query: TransformQuery) -> CompiledTransform {
        let selecting = SelectingNfa::new(&query.path);
        let filtering = FilteringNfa::new(&query.path);
        let qual_table = QualTable::from_path(&query.path);
        let method = method_for(&query.path);
        let mut alphabet = LabelSet::new();
        selecting.collect_alphabet(&mut alphabet);
        filtering.collect_alphabet(&mut alphabet);
        crate::delta::qualifier_label_tests_into(&query.path, &mut alphabet);
        crate::delta::op_alphabet_into(&query.op, &mut alphabet);
        CompiledTransform {
            query,
            selecting,
            filtering,
            qual_table,
            method,
            alphabet,
        }
    }

    /// Parses concrete transform syntax and compiles it.
    pub fn parse(text: &str) -> Result<CompiledTransform, TransformParseError> {
        parse_transform(text).map(CompiledTransform::compile)
    }

    /// The underlying query.
    pub fn query(&self) -> &TransformQuery {
        &self.query
    }

    /// The in-memory evaluation method, fixed at compile time by
    /// [`method_for`].
    pub fn method(&self) -> Method {
        self.method
    }

    /// The selecting NFA `Mp`.
    pub fn selecting(&self) -> &SelectingNfa {
        &self.selecting
    }

    /// The filtering NFA `Mf`.
    pub fn filtering(&self) -> &FilteringNfa {
        &self.filtering
    }

    /// The static label footprint of this transform (NFA alphabets,
    /// `label()` tests, fragment labels, rename target, wildcard bit) —
    /// the view side of the delta relevance test (see [`crate::delta`]).
    pub fn alphabet(&self) -> &LabelSet {
        &self.alphabet
    }

    /// Evaluates against `doc` with `method`, reusing the pre-compiled
    /// automata wherever the method consumes them (TopDown, TwoPass, and
    /// the streaming two-pass; the snapshot and rewriting methods never
    /// build automata in the first place).
    pub fn evaluate(&self, doc: &Document, method: Method) -> Result<Document, TransformError> {
        match method {
            Method::CopyUpdate => Ok(copy_update(doc, &self.query)),
            Method::Naive => Ok(naive_direct(doc, &self.query)),
            Method::NaiveXQuery => {
                naive_xquery(doc, &self.query).map_err(|message| TransformError { message })
            }
            Method::TopDown => Ok(self.top_down(doc)),
            Method::TwoPass => Ok(self.two_pass(doc)),
            Method::TwoPassSax => {
                let xml = doc.serialize();
                let out = self.evaluate_stream_str(&xml).map_err(|e| TransformError {
                    message: e.to_string(),
                })?;
                if out.is_empty() {
                    return Ok(Document::new());
                }
                Document::parse(&out).map_err(|e| TransformError {
                    message: e.to_string(),
                })
            }
        }
    }

    /// Evaluates against `doc` with `method` and appends the serialized
    /// result to `out` (nothing for an empty result) — the bytes of
    /// `self.evaluate(doc, method)?.serialize()`. TopDown and TwoPass
    /// stream their output straight onto `out` in one pass, with no
    /// result tree; the other methods evaluate and then serialize.
    ///
    /// `index` is `doc`'s [`Serialized`] index (built from this very
    /// content), if the caller keeps one: the streaming methods then
    /// copy every unaffected subtree as one slice of it instead of
    /// re-serializing it node by node. Without it they walk.
    ///
    /// `out` first reserves about the document's serialized size:
    /// growing a multi-megabyte reply by doubling costs a copy per step
    /// and leaves the freed steps fragmenting the allocator's arenas.
    pub fn evaluate_into(
        &self,
        doc: &Document,
        index: Option<&Serialized>,
        method: Method,
        out: &mut String,
    ) -> Result<(), TransformError> {
        out.reserve(index.map_or_else(|| doc.heap_bytes(), Serialized::len));
        match method {
            Method::TopDown => top_down_into(
                doc,
                index,
                &self.query,
                &self.selecting,
                &mut native_check,
                out,
            ),
            Method::TwoPass => {
                let ann = self.bottom_up(doc);
                let mut check = |_: &Document, n, step, _: &Qualifier| ann.check(n, step);
                top_down_into(doc, index, &self.query, &self.selecting, &mut check, out);
            }
            _ => {
                let result = self.evaluate(doc, method)?;
                if let Some(root) = result.root() {
                    result.serialize_into(root, out);
                }
            }
        }
        Ok(())
    }

    /// GENTOP over the pre-compiled selecting NFA.
    pub fn top_down(&self, doc: &Document) -> Document {
        top_down_prebuilt(doc, &self.query, &self.selecting, &mut native_check)
    }

    /// TD-BU over both pre-compiled automata.
    pub fn two_pass(&self, doc: &Document) -> Document {
        let ann = self.bottom_up(doc);
        let mut check = |_: &Document, n, step, _: &Qualifier| ann.check(n, step);
        top_down_prebuilt(doc, &self.query, &self.selecting, &mut check)
    }

    /// TD-BU's first pass: the `bottomUp` qualifier annotations.
    fn bottom_up(&self, doc: &Document) -> Annotations {
        bottom_up_prebuilt(
            doc,
            &self.query.path,
            &self.filtering,
            self.qual_table.clone(),
        )
    }

    /// twoPassSAX over serialized input, cloning the pre-compiled
    /// automata into the [`PreparedTransform`] instead of rebuilding
    /// them.
    pub fn evaluate_stream_str(&self, xml: &str) -> Result<String, SaxTransformError> {
        use xust_sax::SaxParser;
        let mut prepared = PreparedTransform::prepare_with(
            SaxParser::from_str(xml),
            &self.query,
            LdStorage::Memory,
            self.filtering.clone(),
            self.selecting.clone(),
        )?;
        let mut out = Vec::new();
        let mut sink = crate::sax2pass::WriterSink::new(&mut out);
        prepared.replay_into(SaxParser::from_str(xml), &mut sink)?;
        Ok(String::from_utf8(out).expect("writer produces UTF-8"))
    }

    /// Opens a push-based [`TransformStream`](crate::sax2pass::TransformStream) session over the
    /// pre-compiled automata (cloned in, never rebuilt) — the engine of
    /// `xust-serve`'s streaming session mode.
    pub fn stream(&self, storage: LdStorage) -> crate::sax2pass::TransformStream {
        crate::sax2pass::TransformStream::with_automata(
            &self.query,
            storage,
            self.filtering.clone(),
            self.selecting.clone(),
        )
    }

    /// twoPassSAX over a file, with the input streamed (two independent
    /// buffered reads, never held in memory at once) and the pre-compiled
    /// automata cloned in. Only the serialized *result* is buffered, to
    /// hand back as a string.
    pub fn evaluate_stream_file(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<String, SaxTransformError> {
        use xust_sax::SaxParser;
        let path = path.as_ref();
        let mut prepared = PreparedTransform::prepare_with(
            SaxParser::from_file(path)?,
            &self.query,
            LdStorage::Memory,
            self.filtering.clone(),
            self.selecting.clone(),
        )?;
        let mut out = Vec::new();
        let mut sink = crate::sax2pass::WriterSink::new(&mut out);
        prepared.replay_into(SaxParser::from_file(path)?, &mut sink)?;
        Ok(String::from_utf8(out).expect("writer produces UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_tree::docs_eq;
    use xust_xpath::parse_path;

    const Q: &str = r#"transform copy $a := doc("db") modify do delete $a//supplier[price < 15]/price return $a"#;

    fn doc() -> Document {
        Document::parse(
            "<db><part><supplier><price>9</price></supplier></part><part><supplier><price>99</price></supplier></part></db>",
        )
        .unwrap()
    }

    #[test]
    fn method_rule_picks_two_pass_only_for_descendant_qualifiers() {
        for (path, want) in [
            ("/site/people/person", Method::TopDown),
            ("//part[pname = 'kb']/*/price", Method::TopDown),
            ("/site/regions//item[location = 'x']", Method::TopDown),
            ("//*[.//keyword]", Method::TwoPass),
            ("/site//item[a and not(b//c)]/d", Method::TwoPass),
            ("/site/a/b[c[.//d]]", Method::TwoPass),
        ] {
            assert_eq!(method_for(&parse_path(path).unwrap()), want, "{path}");
        }
        assert_eq!(
            CompiledTransform::parse(Q).unwrap().method(),
            Method::TopDown
        );
    }

    #[test]
    fn compiled_matches_engine_on_all_methods() {
        let ct = CompiledTransform::parse(Q).unwrap();
        let d = doc();
        let reference = crate::engine::evaluate_str(&d, Q, Method::CopyUpdate).unwrap();
        for m in Method::ALL {
            let got = ct.evaluate(&d, m).unwrap();
            assert!(
                docs_eq(&reference, &got),
                "{m} via CompiledTransform disagrees: {}",
                got.serialize()
            );
        }
    }

    #[test]
    fn compiled_is_reusable_across_documents() {
        let ct = CompiledTransform::parse(Q).unwrap();
        for xml in [
            "<db/>",
            "<db><supplier><price>1</price></supplier></db>",
            "<other><supplier><price>2</price></supplier></other>",
        ] {
            let d = Document::parse(xml).unwrap();
            let expect = copy_update(&d, ct.query());
            let got = ct.evaluate(&d, Method::TwoPass).unwrap();
            assert!(docs_eq(&expect, &got), "on {xml}");
        }
    }

    #[test]
    fn compiled_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledTransform>();
    }

    #[test]
    fn parse_errors_surface() {
        assert!(CompiledTransform::parse("garbage").is_err());
    }
}

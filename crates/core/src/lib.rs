#![warn(missing_docs)]
//! `xust-core` — the primary contribution of *Querying XML with Update
//! Syntax* (Fan, Cong, Bohannon; SIGMOD 2007): evaluation of **transform
//! queries**
//!
//! ```text
//! transform copy $a := doc("T") modify do u($a) return $a
//! ```
//!
//! which return the tree an update *would* produce, without touching the
//! source. Five evaluation strategies are implemented (Sections 3, 5, 6):
//!
//! | Module | Algorithm | Paper name |
//! |---|---|---|
//! | [`copy_update()`][copy_update::copy_update] | snapshot + in-place update | GalaXUpdate baseline |
//! | [`naive`] | rewrite into standard XQuery (Fig. 2) | NAIVE |
//! | [`topdown`] | selecting-NFA top-down transform (Fig. 3) | GENTOP |
//! | [`bottomup`] + [`twopass`] | filtering-NFA qualifier pass + topDown (Figs. 7, 9, 10) | TD-BU |
//! | [`sax2pass`] | both passes fused with SAX parsing (Section 6) | twoPassSAX |
//!
//! # Quickstart
//!
//! ```
//! use xust_tree::Document;
//! use xust_core::{evaluate_str, Method};
//!
//! let doc = Document::parse(
//!     "<db><part><pname>kb</pname><price>9</price></part></db>",
//! ).unwrap();
//! // Example 1.1: everything except price.
//! let view = evaluate_str(
//!     &doc,
//!     r#"transform copy $a := doc("db") modify do delete $a//price return $a"#,
//!     Method::TwoPass,
//! ).unwrap();
//! assert_eq!(view.serialize(), "<db><part><pname>kb</pname></part></db>");
//! ```

pub mod bottomup;
pub mod copy_update;
pub mod delta;
pub mod engine;
pub mod multi;
pub mod multi_sax;
pub mod multi_view;
pub mod naive;
pub mod patch;
pub mod prepared;
pub mod query;
pub mod sax2pass;
pub mod topdown;
pub mod twopass;

pub use bottomup::{bottom_up, Annotations};
pub use copy_update::{apply_update, copy_update};
pub use delta::{
    fragment_labels_into, op_alphabet_into, path_alphabet_into, qualifier_anchor_alphabet_into,
    qualifier_label_tests_into, touched_labels_into, update_alphabet, value_alphabet_into,
    RenameMapping, TouchedLabels,
};
pub use engine::{evaluate, evaluate_str, Method, TransformError};
pub use multi::{
    apply_chain, conflicting_targets, multi_snapshot, multi_top_down, parse_multi_transform,
    MultiTransformQuery,
};
pub use multi_sax::{multi_two_pass_sax, multi_two_pass_sax_files, multi_two_pass_sax_str};
pub use multi_view::{multi_view, multi_view_with_stats, MultiViewStats, SharedViewResult};
pub use naive::{naive_direct, naive_xquery, rewrite_to_xquery};
pub use patch::{site_chain, FragmentTree, Localized, PatchOutcome};
pub use prepared::{method_for, CompiledTransform};
pub use query::{parse_transform, InsertPos, TransformParseError, TransformQuery, UpdateOp};
pub use sax2pass::{
    two_pass_sax, two_pass_sax_files, two_pass_sax_str, EventSink, LdStorage, PathPrepass,
    PathSelector, PreparedPath, PreparedTransform, SaxStats, SaxTransformError, TransformStream,
    WriterSink,
};
pub use topdown::{top_down, top_down_no_prune, top_down_subtree, top_down_with};
pub use twopass::two_pass;
// Symbol interning (the label representation every layer shares).
pub use xust_intern::{intern, Interner, IntoSym, Sym};
// The label-set type the delta relevance analysis speaks.
pub use xust_automata::LabelSet;

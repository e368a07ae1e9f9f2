#![warn(missing_docs)]
//! `xust-tree` — an arena-based XML document tree.
//!
//! This is the DOM-level data model of the reproduction: every evaluation
//! algorithm except `twoPassSAX` operates on [`Document`]s. Nodes live in a
//! flat arena indexed by [`NodeId`] and are linked in
//! first-child/next-sibling form, which makes the paper's traversal
//! patterns cheap:
//!
//! * `topDown` (Fig. 3) walks `first_child`/`next_sibling` chains;
//! * `bottomUp` (Fig. 9) recurses on the *left-most child* and the
//!   *immediate right sibling*, exactly the two links we store;
//! * the copy-and-update baseline clones the arena wholesale.
//!
//! # Example
//!
//! ```
//! use xust_tree::Document;
//!
//! let doc = Document::parse("<db><part><pname>keyboard</pname></part></db>").unwrap();
//! let root = doc.root().unwrap();
//! assert_eq!(doc.name(root), Some("db"));
//! assert_eq!(doc.serialize(), "<db><part><pname>keyboard</pname></part></db>");
//! ```

mod build;
mod document;
mod eq;
mod iter;
mod node;
mod parse;
mod serialize;

pub use build::ElementBuilder;
pub use document::Document;
pub use eq::{deep_eq, docs_eq};
pub use iter::{Ancestors, Children, Descendants};
pub use node::{Attrs, NodeId, NodeKind};
pub use parse::TreeParseError;
pub use serialize::{write_start_tag, Serialized};

#![warn(missing_docs)]
//! `xust-automata` — the automaton machinery of *Querying XML with Update
//! Syntax*.
//!
//! Two automata are built from the XPath expression `p` embedded in a
//! transform query:
//!
//! * the **selecting NFA** `Mp` (Section 3.4) drives the top-down
//!   transform ([`SelectingNfa::next_states`] is Fig. 4's `nextStates`)
//!   and the composition algorithm of Section 4 (via the δ′ extensions
//!   [`SelectingNfa::next_states_wild`] / [`SelectingNfa::desc_closure`]);
//! * the **filtering NFA** `Mf` (Section 5, Fig. 8) additionally tracks
//!   qualifier paths so the bottom-up qualifier pass can prune subtrees
//!   that affect neither selection nor any needed qualifier.
//!
//! Both are linear in |p| and have the semi-linear structure the paper
//! contrasts with the tree automata of Koch \[19\] and the AFAs of
//! Gupta–Suciu \[17\]: the only cycles are the ∗ self-loops introduced by
//! `//`.
//!
//! # Example
//!
//! ```
//! use xust_xpath::parse_path;
//! use xust_automata::SelectingNfa;
//!
//! let p = parse_path("//part[pname = 'keyboard']//part").unwrap();
//! let m = SelectingNfa::new(&p);
//! assert!(m.accepts_word(&["db", "part", "sub", "part"]));
//! ```

mod alphabet;
mod filtering;
mod selecting;
mod shared;
mod stateset;

pub use alphabet::LabelSet;
pub use filtering::{FilterState, FilteringNfa};
pub use selecting::{SelState, SelectingNfa, StateId};
pub use shared::{SharedNfa, SharedState, MAX_SHARED_VIEWS};
pub use stateset::{StateIter, StateSet};

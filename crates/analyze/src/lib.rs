//! Registration-time static analysis over transform views.
//!
//! Everything in this crate reasons about *syntax only* — paths, update
//! operations, and the NFAs compiled from them — never about a concrete
//! document. That is the point: the verdicts are computed once, when a
//! view is registered (or a transform prepared), and then consumed on
//! every hot-path decision without re-deriving anything per request or
//! per write. Three analyses:
//!
//! 1. **Qualifier constant folding** ([`fold_qualifier`],
//!    [`analyze_path`]) — a three-valued evaluation of qualifiers
//!    against the step they annotate. `[label() = l]` on an `l` step is
//!    a tautology (dropped); on an `l'` step it is unsatisfiable, which
//!    makes the whole linear path dead.
//! 2. **NFA satisfiability / dead states** ([`selecting_liveness`],
//!    [`filtering_liveness`]) — reachability × co-reachability over the
//!    selecting and filtering automata, with entry into statically
//!    false-qualified states blocked. A view whose every rule has an
//!    unreachable final state can never select a node: the transform is
//!    the identity, forever.
//! 3. **Containment / equivalence** ([`path_contains`],
//!    [`views_equivalent`]) — a guarded product simulation between
//!    selecting NFAs (sound, incomplete: a qualifier on the superset
//!    side must be absent, trivially true, or structurally identical to
//!    the subset side's). Mutually contained paths with identical
//!    update effects make two views interchangeable, so they can share
//!    one result-cache entry family.
//!
//! Soundness contract: every verdict is *conservative* — a dead view
//! selects nothing on any document, and equivalent views serve
//! identical bytes on every document. A fact that cannot be established
//! syntactically is answered "unknown", never guessed.

use xust_automata::{FilteringNfa, SelState, SelectingNfa, StateId};
use xust_core::UpdateOp;
use xust_xpath::{Path, QPath, Qualifier, Step, StepKind};

mod sim;

pub use sim::path_contains;

/// Three-valued result of statically evaluating a qualifier against the
/// step it annotates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Holds for every node the step can select.
    True,
    /// Holds for no node the step can select.
    False,
    /// Depends on document content.
    Unknown,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }
}

/// Statically evaluates `q` on a node selected by a step of kind
/// `kind`. Only content-free facts fold: `[.]` always holds,
/// `[label() = l]` folds against a label step, and the connectives
/// propagate three-valued truth. Anything that reads document content
/// (`Cmp`, attribute access, non-empty qualifier paths) is `Unknown`.
pub fn fold_qualifier(q: &Qualifier, kind: &StepKind) -> Tri {
    match q {
        Qualifier::Exists(QPath { path, attr: None }) if path.is_empty() => Tri::True,
        Qualifier::Exists(_) | Qualifier::Cmp(..) => Tri::Unknown,
        Qualifier::LabelIs(l) => match kind {
            StepKind::Label(sl) if sl == l => Tri::True,
            StepKind::Label(_) => Tri::False,
            StepKind::Wildcard | StepKind::Descendant => Tri::Unknown,
        },
        Qualifier::And(a, b) => match (fold_qualifier(a, kind), fold_qualifier(b, kind)) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        },
        Qualifier::Or(a, b) => match (fold_qualifier(a, kind), fold_qualifier(b, kind)) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        },
        Qualifier::Not(a) => fold_qualifier(a, kind).not(),
    }
}

/// A qualifier after constant folding.
enum Folded {
    /// Tautology: the step may drop it.
    True,
    /// Unsatisfiable: the step (and the whole linear path) is dead.
    False,
    /// Still content-dependent; sub-terms may have been reduced.
    Kept(Qualifier),
}

/// Folds constants out of `q`, reducing connectives around them
/// (`true and q → q`, `false or q → q`, …).
fn simplify_qualifier(q: &Qualifier, kind: &StepKind) -> Folded {
    match q {
        Qualifier::And(a, b) => match (simplify_qualifier(a, kind), simplify_qualifier(b, kind)) {
            (Folded::False, _) | (_, Folded::False) => Folded::False,
            (Folded::True, x) | (x, Folded::True) => x,
            (Folded::Kept(a), Folded::Kept(b)) => Folded::Kept(Qualifier::and(a, b)),
        },
        Qualifier::Or(a, b) => match (simplify_qualifier(a, kind), simplify_qualifier(b, kind)) {
            (Folded::True, _) | (_, Folded::True) => Folded::True,
            (Folded::False, x) | (x, Folded::False) => x,
            (Folded::Kept(a), Folded::Kept(b)) => Folded::Kept(Qualifier::or(a, b)),
        },
        Qualifier::Not(a) => match simplify_qualifier(a, kind) {
            Folded::True => Folded::False,
            Folded::False => Folded::True,
            Folded::Kept(a) => Folded::Kept(Qualifier::not(a)),
        },
        leaf => match fold_qualifier(leaf, kind) {
            Tri::True => Folded::True,
            Tri::False => Folded::False,
            Tri::Unknown => Folded::Kept(leaf.clone()),
        },
    }
}

/// The result of constant-folding one path.
#[derive(Debug, Clone)]
pub struct PathAnalysis {
    /// The path with tautological qualifiers dropped and constant
    /// sub-terms reduced. Selects exactly the same nodes as the input
    /// on every document (when `satisfiable`; a dead path selects
    /// nothing either way).
    pub simplified: Path,
    /// False iff some step's qualifier is statically unsatisfiable —
    /// the path selects nothing on any document.
    pub satisfiable: bool,
    /// Qualifier (sub-)terms eliminated by folding.
    pub folded: usize,
}

/// Constant-folds every qualifier in `p`. The path is linear, so one
/// statically false qualifier kills the whole selection.
pub fn analyze_path(p: &Path) -> PathAnalysis {
    let mut satisfiable = true;
    let mut folded = 0usize;
    let steps = p
        .steps
        .iter()
        .map(|step| {
            let qualifier = match &step.qualifier {
                None => None,
                Some(q) => {
                    let before = q.size();
                    match simplify_qualifier(q, &step.kind) {
                        Folded::True => {
                            folded += before;
                            None
                        }
                        Folded::False => {
                            satisfiable = false;
                            folded += before;
                            None
                        }
                        Folded::Kept(kept) => {
                            folded += before.saturating_sub(kept.size());
                            Some(kept)
                        }
                    }
                }
            };
            Step {
                kind: step.kind.clone(),
                qualifier,
            }
        })
        .collect();
    PathAnalysis {
        simplified: Path { steps },
        satisfiable,
        folded,
    }
}

/// Live/dead state counts of one automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Liveness {
    /// Total states.
    pub total: usize,
    /// States both reachable from the start and co-reachable to an
    /// accepting configuration.
    pub live: usize,
}

impl Liveness {
    /// States that can never participate in a selection.
    pub fn dead(&self) -> usize {
        self.total - self.live
    }
}

/// True when entering `state` is statically impossible (its step's
/// qualifier folds to false).
fn sel_entry_dead(nfa: &SelectingNfa, state: StateId) -> bool {
    match (nfa.qualifier(state), nfa.states[state].step) {
        (Some(q), Some(i)) => fold_qualifier(q, &nfa.path.steps[i].kind) == Tri::False,
        _ => false,
    }
}

fn sel_successors(s: &SelState) -> impl Iterator<Item = StateId> + '_ {
    s.label_trans
        .iter()
        .map(|&(_, t)| t)
        .chain(s.star_trans)
        .chain(s.eps)
}

/// Reachability × co-reachability over the selecting NFA, with entry
/// into statically-false-qualified states blocked. Returns the liveness
/// summary and the per-state live mask. The final state being dead
/// means the path is unsatisfiable — exactly the [`analyze_path`]
/// verdict, derived automaton-side (self-loops make no difference: they
/// re-enter the same state under the same qualifier).
pub fn selecting_liveness(nfa: &SelectingNfa) -> (Liveness, Vec<bool>) {
    let n = nfa.len();
    // Forward: the automaton's edges point (weakly) forward, so one
    // ascending sweep reaches the fixpoint, like `eps_closure`.
    let mut reach = vec![false; n];
    reach[nfa.start] = true;
    for id in 0..n {
        if !reach[id] {
            continue;
        }
        for t in sel_successors(&nfa.states[id]) {
            if !sel_entry_dead(nfa, t) {
                reach[t] = true;
            }
        }
    }
    // Backward: a descending sweep for the same reason.
    let mut coreach = vec![false; n];
    coreach[nfa.final_state] = !sel_entry_dead(nfa, nfa.final_state) || nfa.is_empty();
    for id in (0..n).rev() {
        if coreach[id] {
            continue;
        }
        coreach[id] =
            sel_successors(&nfa.states[id]).any(|t| coreach[t] && !sel_entry_dead(nfa, t));
    }
    let live: Vec<bool> = (0..n).map(|i| reach[i] && coreach[i]).collect();
    let summary = Liveness {
        total: n,
        live: live.iter().filter(|&&l| l).count(),
    };
    (summary, live)
}

/// Forward reachability over the filtering NFA, with every transition
/// *out of* a selecting-mirror state whose qualifier folds false
/// blocked: past a dead step, neither the selection nor the qualifier
/// branches spawned there can influence any decision. (`Mf` has no
/// accepting state of its own — every reachable state prunes — so
/// co-reachability degenerates to reachability.)
pub fn filtering_liveness(nfa: &FilteringNfa, path: &Path) -> (Liveness, Vec<bool>) {
    let n = nfa.len();
    let exit_dead = |id: StateId| -> bool {
        match nfa.states[id].sel_step {
            Some(i) => path.steps[i]
                .qualifier
                .as_ref()
                .is_some_and(|q| fold_qualifier(q, &path.steps[i].kind) == Tri::False),
            None => false,
        }
    };
    let mut reach = vec![false; n];
    reach[nfa.start] = true;
    // Branch chains are appended after the states that spawn them, so
    // edges still point forward and one sweep suffices.
    for id in 0..n {
        if !reach[id] || exit_dead(id) {
            continue;
        }
        let s = &nfa.states[id];
        for t in s
            .label_trans
            .iter()
            .map(|&(_, t)| t)
            .chain(s.star_trans.iter().copied())
            .chain(s.eps.iter().copied())
        {
            reach[t] = true;
        }
    }
    let summary = Liveness {
        total: n,
        live: reach.iter().filter(|&&l| l).count(),
    };
    (summary, reach)
}

/// True when `a` and `b` are the same update effect: applied to the
/// same target set they produce identical documents. Fragments compare
/// by serialization (a [`xust_tree::Document`] has no structural `Eq`).
pub fn ops_equivalent(a: &UpdateOp, b: &UpdateOp) -> bool {
    match (a, b) {
        (UpdateOp::Delete, UpdateOp::Delete) => true,
        (UpdateOp::Rename { name: n1 }, UpdateOp::Rename { name: n2 }) => n1 == n2,
        (UpdateOp::Insert { elem: e1, pos: p1 }, UpdateOp::Insert { elem: e2, pos: p2 }) => {
            p1 == p2 && e1.serialize() == e2.serialize()
        }
        (UpdateOp::Replace { elem: e1 }, UpdateOp::Replace { elem: e2 }) => {
            e1.serialize() == e2.serialize()
        }
        _ => false,
    }
}

/// True when two paths select the same node set on every document:
/// syntactic equality, or mutual [`path_contains`] simulation.
pub fn paths_equivalent(a: &Path, b: &Path) -> bool {
    if a == b {
        return true;
    }
    let na = SelectingNfa::new(a);
    let nb = SelectingNfa::new(b);
    path_contains(&na, &nb) && path_contains(&nb, &na)
}

/// True when two rule lists define interchangeable views: same length,
/// and rule-by-rule equal update effects over equivalent selections.
/// (Order matters — chain links compose, multi rules apply in order.)
pub fn views_equivalent(a: &[(&Path, &UpdateOp)], b: &[(&Path, &UpdateOp)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((pa, oa), (pb, ob))| ops_equivalent(oa, ob) && paths_equivalent(pa, pb))
}

/// The full registration-time report for one view, assembled by
/// [`analyze_view`] and surfaced through the `ANALYZE` protocol verb.
#[derive(Debug, Clone, Default)]
pub struct ViewAnalysis {
    /// True when no rule can ever select a node: the view is the
    /// identity transform on every document.
    pub dead: bool,
    /// Qualifier (sub-)terms eliminated by constant folding, summed
    /// over rules.
    pub folded_qualifiers: usize,
    /// Selecting-NFA states, summed over rules.
    pub sel_states: usize,
    /// Dead selecting-NFA states (unreachable or non-co-reachable).
    pub sel_dead: usize,
    /// Filtering-NFA states, summed over rules.
    pub filt_states: usize,
    /// Dead filtering-NFA states.
    pub filt_dead: usize,
    /// Wall-clock cost of the analysis, in microseconds.
    pub micros: u64,
}

/// Runs every per-view analysis over a view body's rules. Cost is
/// O(Σ|pᵢ|) — automata are linear in the path. The caller stamps
/// `micros` (this function is timing-agnostic so it stays trivially
/// testable).
pub fn analyze_view<'a>(rules: impl Iterator<Item = (&'a Path, &'a UpdateOp)>) -> ViewAnalysis {
    let mut out = ViewAnalysis {
        dead: true,
        ..ViewAnalysis::default()
    };
    let mut any = false;
    for (path, _) in rules {
        any = true;
        let pa = analyze_path(path);
        out.folded_qualifiers += pa.folded;
        let sel = SelectingNfa::new(path);
        let (sl, _) = selecting_liveness(&sel);
        out.sel_states += sl.total;
        out.sel_dead += sl.dead();
        let filt = FilteringNfa::new(path);
        let (fl, _) = filtering_liveness(&filt, path);
        out.filt_states += fl.total;
        out.filt_dead += fl.dead();
        if pa.satisfiable {
            out.dead = false;
        }
    }
    if !any {
        out.dead = false;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_intern::intern;
    use xust_xpath::parse_path;

    fn p(s: &str) -> Path {
        parse_path(s).unwrap()
    }

    #[test]
    fn label_is_folds_against_label_steps() {
        let q = Qualifier::LabelIs("a".into());
        assert_eq!(fold_qualifier(&q, &StepKind::Label("a".into())), Tri::True);
        assert_eq!(fold_qualifier(&q, &StepKind::Label("b".into())), Tri::False);
        assert_eq!(fold_qualifier(&q, &StepKind::Wildcard), Tri::Unknown);
    }

    #[test]
    fn self_exists_is_tautological_and_connectives_propagate() {
        let t = Qualifier::Exists(QPath::self_path());
        let kind = StepKind::Label("x".into());
        assert_eq!(fold_qualifier(&t, &kind), Tri::True);
        assert_eq!(
            fold_qualifier(&Qualifier::not(t.clone()), &kind),
            Tri::False
        );
        let unk = Qualifier::Exists(QPath {
            path: p("y"),
            attr: None,
        });
        assert_eq!(
            fold_qualifier(&Qualifier::or(unk.clone(), t.clone()), &kind),
            Tri::True
        );
        assert_eq!(
            fold_qualifier(&Qualifier::and(unk.clone(), t), &kind),
            Tri::Unknown
        );
        assert_eq!(fold_qualifier(&unk, &kind), Tri::Unknown);
    }

    #[test]
    fn analyze_path_drops_tautologies_and_flags_dead_paths() {
        let live = analyze_path(&p("a[label() = a]/b"));
        assert!(live.satisfiable);
        assert!(live.folded > 0);
        assert_eq!(live.simplified, p("a/b"));

        let dead = analyze_path(&p("a[label() = b]/c"));
        assert!(!dead.satisfiable);

        let untouched = analyze_path(&p("a[b = 3]/c"));
        assert!(untouched.satisfiable);
        assert_eq!(untouched.folded, 0);
        assert_eq!(untouched.simplified, p("a[b = 3]/c"));
    }

    #[test]
    fn and_folding_keeps_the_unknown_side() {
        let mixed = analyze_path(&p("a[label() = a and b = 3]"));
        assert!(mixed.satisfiable);
        assert_eq!(mixed.simplified, p("a[b = 3]"));
    }

    #[test]
    fn liveness_of_a_live_path_is_total() {
        for src in ["a/b/c", "//x", "a//b[c]/d", "*/y"] {
            let path = p(src);
            let (sl, mask) = selecting_liveness(&SelectingNfa::new(&path));
            assert_eq!(sl.dead(), 0, "{src}");
            assert!(mask.iter().all(|&l| l), "{src}");
            let (fl, _) = filtering_liveness(&FilteringNfa::new(&path), &path);
            assert_eq!(fl.dead(), 0, "{src}");
        }
    }

    #[test]
    fn liveness_blocks_false_qualified_states() {
        let path = p("a[label() = b]/c[d]");
        let sel = SelectingNfa::new(&path);
        let (sl, mask) = selecting_liveness(&sel);
        // Start is live-reachable but not co-reachable; step states die.
        assert!(sl.dead() >= 2, "{sl:?}");
        assert!(!mask[sel.final_state]);
        let filt = FilteringNfa::new(&path);
        let (fl, _) = filtering_liveness(&filt, &path);
        // Everything past the dead `a` state — including the `d`
        // qualifier branch of `c` — is unreachable.
        assert!(fl.dead() >= 2, "{fl:?}");
    }

    #[test]
    fn equivalence_is_mutual_containment() {
        assert!(paths_equivalent(&p("a/b"), &p("a/b")));
        assert!(paths_equivalent(&p("a//b"), &p("a//b")));
        assert!(!paths_equivalent(&p("a/b"), &p("a//b")));
        assert!(!paths_equivalent(&p("a/b"), &p("a/c")));
        assert!(!paths_equivalent(&p("a/b[c]"), &p("a/b")));
        assert!(paths_equivalent(&p("a/b[c]"), &p("a/b[c]")));
    }

    #[test]
    fn ops_compare_by_effect() {
        let frag = || xust_tree::Document::parse("<note/>").unwrap();
        assert!(ops_equivalent(&UpdateOp::Delete, &UpdateOp::Delete));
        assert!(!ops_equivalent(
            &UpdateOp::Delete,
            &UpdateOp::Rename { name: intern("x") }
        ));
        assert!(ops_equivalent(
            &UpdateOp::Insert {
                elem: frag(),
                pos: Default::default()
            },
            &UpdateOp::Insert {
                elem: frag(),
                pos: Default::default()
            },
        ));
        assert!(!ops_equivalent(
            &UpdateOp::Insert {
                elem: frag(),
                pos: Default::default()
            },
            &UpdateOp::Insert {
                elem: xust_tree::Document::parse("<other/>").unwrap(),
                pos: Default::default()
            },
        ));
    }

    #[test]
    fn analyze_view_flags_dead_views_and_counts_states() {
        let rules = [(p("a[label() = b]/c"), UpdateOp::Delete)];
        let a = analyze_view(rules.iter().map(|(p, o)| (p, o)));
        assert!(a.dead);
        assert!(a.sel_dead > 0);

        let rules = [(p("a/b"), UpdateOp::Delete)];
        let a = analyze_view(rules.iter().map(|(p, o)| (p, o)));
        assert!(!a.dead);
        assert_eq!(a.sel_dead, 0);
        assert_eq!(a.sel_states, 3);
    }
}

//! AST for the XPath fragment **X** of the paper (Section 2):
//!
//! ```text
//! p ::= ε | l | * | p/p | p//p | p[q]
//! q ::= p | p = 's' | label() = l | q ∧ q | q ∨ q | ¬q
//! ```
//!
//! Two practical extensions are required by the paper's own workload
//! (Fig. 11): attribute tests (`@id = "person10"` in U2/U10) and numeric
//! comparisons (`profile/age > 20` in U3, `increase > 10` in U10). Both
//! are straightforward qualifier extensions and do not change the
//! automaton machinery.

use std::fmt;

/// An X path in the paper's normal form β₁\[q₁\]/…/βₖ\[qₖ\]: a sequence of
/// steps, each a β (label, wildcard, or descendant-or-self) with an
/// optional qualifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The steps, in root-to-leaf order.
    pub steps: Vec<Step>,
}

impl Path {
    /// The empty path ε (selects the context node).
    pub fn empty() -> Self {
        Path { steps: Vec::new() }
    }

    /// True if this is ε.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total number of syntactic nodes — the |p| of the complexity bounds.
    pub fn size(&self) -> usize {
        self.steps.iter().map(Step::size).sum::<usize>().max(1)
    }
}

/// One step β\[q\].
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The β: label test, wildcard, or descendant-or-self.
    pub kind: StepKind,
    /// Conjunction of all qualifiers written on this step
    /// (`p[q1][q2] ≡ p[q1 ∧ q2]`, normalization rule 3).
    pub qualifier: Option<Qualifier>,
}

impl Step {
    /// Step without qualifier.
    pub fn plain(kind: StepKind) -> Self {
        Step {
            kind,
            qualifier: None,
        }
    }

    /// Syntactic size of this step (1 + its qualifier's size) — the
    /// per-step contribution to |p|.
    pub fn size(&self) -> usize {
        1 + self.qualifier.as_ref().map_or(0, Qualifier::size)
    }
}

/// The β of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepKind {
    /// A label test `l` (child axis).
    Label(String),
    /// Wildcard `*` (child axis).
    Wildcard,
    /// `//` — `/descendant-or-self::node()/` as a pseudo-step, exactly how
    /// the selecting-NFA construction treats it (a ∗ self-loop plus an
    /// ε-transition).
    Descendant,
}

/// A qualifier `q`.
#[derive(Debug, Clone, PartialEq)]
pub enum Qualifier {
    /// Existence of a (relative) qualifier path: `[p]`.
    Exists(QPath),
    /// Value comparison `[p op lit]` — existential over the nodes selected
    /// by `p` (ε allowed: `[. = 's']`).
    Cmp(QPath, CmpOp, Literal),
    /// `[label() = l]`.
    LabelIs(String),
    /// Conjunction `q₁ and q₂`.
    And(Box<Qualifier>, Box<Qualifier>),
    /// Disjunction `q₁ or q₂`.
    Or(Box<Qualifier>, Box<Qualifier>),
    /// Negation `not(q)`.
    Not(Box<Qualifier>),
}

impl Qualifier {
    /// Builds `a and b`.
    pub fn and(a: Qualifier, b: Qualifier) -> Qualifier {
        Qualifier::And(Box::new(a), Box::new(b))
    }

    /// Builds `a or b`.
    pub fn or(a: Qualifier, b: Qualifier) -> Qualifier {
        Qualifier::Or(Box::new(a), Box::new(b))
    }

    /// Builds `not(a)`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Qualifier) -> Qualifier {
        Qualifier::Not(Box::new(a))
    }

    /// Syntactic size of this qualifier — its contribution to |p| and a
    /// proxy for per-node evaluation cost.
    pub fn size(&self) -> usize {
        match self {
            Qualifier::Exists(p) => p.size(),
            Qualifier::Cmp(p, _, _) => p.size() + 1,
            Qualifier::LabelIs(_) => 1,
            Qualifier::And(a, b) | Qualifier::Or(a, b) => 1 + a.size() + b.size(),
            Qualifier::Not(a) => 1 + a.size(),
        }
    }

    /// True if any path inside this qualifier (nested qualifiers
    /// included) has a `//` step — the shape whose native evaluation
    /// rescans a whole subtree at every candidate node.
    pub fn has_descendant(&self) -> bool {
        match self {
            Qualifier::Exists(p) | Qualifier::Cmp(p, _, _) => p.path.steps.iter().any(|s| {
                s.kind == StepKind::Descendant
                    || s.qualifier.as_ref().is_some_and(Qualifier::has_descendant)
            }),
            Qualifier::LabelIs(_) => false,
            Qualifier::And(a, b) | Qualifier::Or(a, b) => a.has_descendant() || b.has_descendant(),
            Qualifier::Not(a) => a.has_descendant(),
        }
    }
}

/// A path inside a qualifier: a relative X path, optionally ending in an
/// attribute access `@name`.
#[derive(Debug, Clone, PartialEq)]
pub struct QPath {
    /// The relative element path.
    pub path: Path,
    /// Trailing `@name` attribute access, if any.
    pub attr: Option<String>,
}

impl QPath {
    /// ε (the context node itself).
    pub fn self_path() -> Self {
        QPath {
            path: Path::empty(),
            attr: None,
        }
    }

    /// `@name` on the context node.
    pub fn attr_only(name: impl Into<String>) -> Self {
        QPath {
            path: Path::empty(),
            attr: Some(name.into()),
        }
    }

    fn size(&self) -> usize {
        self.path.size() + usize::from(self.attr.is_some())
    }
}

/// Comparison operators available in qualifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering between two values.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// Comparison literals: strings compare for (in)equality as strings;
/// numbers compare numerically against the node's text parsed as f64.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A string literal.
    Str(String),
    /// A numeric literal.
    Num(f64),
}

impl Literal {
    /// Compares a node's string value against this literal under `op`.
    pub fn compare(&self, text: &str, op: CmpOp) -> bool {
        match self {
            Literal::Str(s) => op.matches(text.cmp(s)),
            Literal::Num(n) => match text.trim().parse::<f64>() {
                Ok(v) => v.partial_cmp(n).map(|o| op.matches(o)).unwrap_or(false),
                Err(_) => false,
            },
        }
    }
}

// ---- Display: round-trippable concrete syntax ----

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, ".");
        }
        let mut pending_slash = false;
        for step in &self.steps {
            match &step.kind {
                StepKind::Descendant => {
                    write!(f, "//")?;
                    pending_slash = false;
                    continue;
                }
                kind => {
                    if pending_slash {
                        write!(f, "/")?;
                    }
                    write!(f, "{kind}")?;
                }
            }
            if let Some(q) = &step.qualifier {
                write!(f, "[{q}]")?;
            }
            pending_slash = true;
        }
        Ok(())
    }
}

impl fmt::Display for StepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepKind::Label(l) => write!(f, "{l}"),
            StepKind::Wildcard => write!(f, "*"),
            StepKind::Descendant => Ok(()), // rendered by Path as '//'
        }
    }
}

impl fmt::Display for Qualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Qualifier::Exists(p) => write!(f, "{p}"),
            Qualifier::Cmp(p, op, lit) => write!(f, "{p} {op} {lit}"),
            Qualifier::LabelIs(l) => write!(f, "label() = {l}"),
            Qualifier::And(a, b) => write!(f, "({a} and {b})"),
            Qualifier::Or(a, b) => write!(f, "({a} or {b})"),
            Qualifier::Not(a) => write!(f, "not({a})"),
        }
    }
}

impl fmt::Display for QPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.path.is_empty(), &self.attr) {
            (true, None) => write!(f, "."),
            (true, Some(a)) => write!(f, "@{a}"),
            (false, None) => write!(f, "{}", self.path),
            (false, Some(a)) => write!(f, "{}/@{a}", self.path),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Str(s) => write!(f, "\"{s}\""),
            Literal::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_matches() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.matches(Equal));
        assert!(!CmpOp::Eq.matches(Less));
        assert!(CmpOp::Ne.matches(Less));
        assert!(CmpOp::Le.matches(Equal));
        assert!(CmpOp::Le.matches(Less));
        assert!(!CmpOp::Lt.matches(Equal));
        assert!(CmpOp::Ge.matches(Greater));
    }

    #[test]
    fn literal_compare_string() {
        let l = Literal::Str("HP".into());
        assert!(l.compare("HP", CmpOp::Eq));
        assert!(!l.compare("IBM", CmpOp::Eq));
        assert!(l.compare("IBM", CmpOp::Ne));
    }

    #[test]
    fn literal_compare_numeric() {
        let l = Literal::Num(15.0);
        assert!(l.compare("12", CmpOp::Lt));
        assert!(l.compare(" 15 ", CmpOp::Eq));
        assert!(!l.compare("20", CmpOp::Lt));
        assert!(l.compare("20", CmpOp::Gt));
        // Non-numeric text never satisfies a numeric comparison.
        assert!(!l.compare("abc", CmpOp::Lt));
        assert!(!l.compare("abc", CmpOp::Eq));
    }

    #[test]
    fn path_size() {
        let p = Path {
            steps: vec![
                Step::plain(StepKind::Descendant),
                Step {
                    kind: StepKind::Label("part".into()),
                    qualifier: Some(Qualifier::Exists(QPath::self_path())),
                },
            ],
        };
        assert!(p.size() >= 3);
        assert_eq!(Path::empty().size(), 1);
    }

    #[test]
    fn qualifier_descendant_detection() {
        let q = |s: &str| crate::parse_qualifier(s).unwrap().has_descendant();
        for deep in [
            ".//keyword",
            "a//b = 'x'",
            "a and not(.//b)",
            "a[.//b]",
            "b or c[d[.//e]]",
        ] {
            assert!(q(deep), "{deep}");
        }
        for flat in [
            "keyword",
            "profile/age > 20",
            "@id = 'x'",
            "label() = a",
            "a[b]",
        ] {
            assert!(!q(flat), "{flat}");
        }
    }
}

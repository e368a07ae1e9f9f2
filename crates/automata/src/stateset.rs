/// A set of automaton states, bit-packed.
///
/// Selecting and filtering NFAs are linear in |p| (Section 3.4), so state
/// sets are one or two machine words for realistic queries; `nextStates`
/// becomes a handful of shifts and ORs. States 0–63 live in an inline
/// word, so sets over automata of up to 64 states never allocate — the
/// common case, where `nextStates` builds a fresh set per node. The
/// `ablation_stateset` bench compares this against a plain vector
/// representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateSet {
    /// States 0–63.
    low: u64,
    /// States from 64 on, 64 per word; empty for automata of at most 64
    /// states.
    high: Vec<u64>,
}

impl StateSet {
    /// Empty set sized for an automaton with `n` states.
    pub fn new(n: usize) -> StateSet {
        StateSet {
            low: 0,
            high: vec![0; n.div_ceil(64).saturating_sub(1)],
        }
    }

    /// Singleton set.
    pub fn singleton(n: usize, state: usize) -> StateSet {
        let mut s = StateSet::new(n);
        s.insert(state);
        s
    }

    /// The word holding `state`.
    #[inline]
    fn word_mut(&mut self, state: usize) -> &mut u64 {
        match state / 64 {
            0 => &mut self.low,
            w => &mut self.high[w - 1],
        }
    }

    /// Adds a state.
    #[inline]
    pub fn insert(&mut self, state: usize) {
        *self.word_mut(state) |= 1u64 << (state % 64);
    }

    /// Removes a state (no-op when absent).
    #[inline]
    pub fn remove(&mut self, state: usize) {
        *self.word_mut(state) &= !(1u64 << (state % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, state: usize) -> bool {
        let word = match state / 64 {
            0 => self.low,
            w => self.high[w - 1],
        };
        (word >> (state % 64)) & 1 == 1
    }

    /// True if no states are present — the pruning condition of
    /// `topDown` (Fig. 3 line 2) and `bottomUp` (Fig. 9 line 6).
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.iter().all(|&w| w == 0)
    }

    /// Number of states present.
    pub fn len(&self) -> usize {
        self.low.count_ones() as usize
            + self
                .high
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Iterates over member states in ascending order, a word at a time.
    pub fn iter(&self) -> StateIter<'_> {
        StateIter {
            word: self.low,
            base: 0,
            rest: self.high.iter(),
        }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &StateSet) {
        self.low |= other.low;
        for (a, b) in self.high.iter_mut().zip(&other.high) {
            *a |= b;
        }
    }

    /// Clears the set.
    pub fn clear(&mut self) {
        self.low = 0;
        self.high.fill(0);
    }
}

/// Iterator over a [`StateSet`]'s members in ascending order.
pub struct StateIter<'a> {
    /// Members of the current word not yet yielded.
    word: u64,
    /// State number of the current word's bit 0.
    base: usize,
    rest: std::slice::Iter<'a, u64>,
}

impl Iterator for StateIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.rest.next()?;
            self.base += 64;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains() {
        let mut s = StateSet::new(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1) && !s.contains(65));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn iteration_order() {
        let mut s = StateSet::new(130);
        for i in [5, 70, 128, 2] {
            s.insert(i);
        }
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![2, 5, 70, 128]);
    }

    #[test]
    fn empty_and_union() {
        let mut a = StateSet::new(10);
        assert!(a.is_empty());
        let b = StateSet::singleton(10, 3);
        a.union_with(&b);
        assert!(!a.is_empty());
        assert!(a.contains(3));
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn small_automata_stay_inline() {
        assert!(StateSet::new(64).high.is_empty());
        assert_eq!(StateSet::new(65).high.len(), 1);
        let mut s = StateSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        s.remove(127);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn zero_state_automaton() {
        let s = StateSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}

//! Simplex interning: a [`SimplexArena`] maps each distinct [`Simplex`] to
//! a dense `u32` key ([`SimplexId`]), so the hot paths — complex membership
//! indexes, solver carrier caches, `Δ`-image memoization — can work with
//! copyable integer keys instead of hashing and cloning whole simplices.
//!
//! Interning is append-only: ids are never reused, and `resolve` is a plain
//! slice index.

use std::collections::HashMap;
use std::fmt;

use crate::simplex::Simplex;

/// Dense key of an interned [`Simplex`] within one [`SimplexArena`].
///
/// Ids from different arenas are unrelated; keep each id with the arena
/// that issued it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimplexId(pub u32);

impl fmt::Debug for SimplexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s#{}", self.0)
    }
}

impl SimplexId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only simplex interner.
///
/// ```
/// use gact_topology::{Simplex, SimplexArena};
/// let mut arena = SimplexArena::new();
/// let a = arena.intern(&Simplex::from_iter([0u32, 1]));
/// let b = arena.intern(&Simplex::from_iter([1u32, 0]));
/// assert_eq!(a, b);
/// assert_eq!(arena.resolve(a).dim(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimplexArena {
    items: Vec<Simplex>,
    index: HashMap<Simplex, SimplexId>,
}

impl SimplexArena {
    /// An empty arena.
    pub fn new() -> Self {
        SimplexArena::default()
    }

    /// Number of distinct simplices interned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Interns a simplex, returning its id (existing id if already known).
    pub fn intern(&mut self, s: &Simplex) -> SimplexId {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        self.insert_new(s.clone())
    }

    fn insert_new(&mut self, s: Simplex) -> SimplexId {
        let id = SimplexId(
            u32::try_from(self.items.len()).expect("simplex arena overflow (> 2^32 entries)"),
        );
        self.index.insert(s.clone(), id);
        self.items.push(s);
        id
    }

    /// The id of a simplex, if it has been interned.
    #[inline]
    pub fn lookup(&self, s: &Simplex) -> Option<SimplexId> {
        self.index.get(s).copied()
    }

    /// The simplex behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this arena.
    #[inline]
    pub fn resolve(&self, id: SimplexId) -> &Simplex {
        &self.items[id.index()]
    }

    /// Iterates over `(id, simplex)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (SimplexId, &Simplex)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, s)| (SimplexId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::VertexId;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut arena = SimplexArena::new();
        let a = arena.intern(&Simplex::from_iter([0u32, 1, 2]));
        let b = arena.intern(&Simplex::from_iter([3u32]));
        let a2 = arena.intern(&Simplex::from_iter([2u32, 1, 0]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(arena.resolve(b).vertices(), &[VertexId(3)]);
        assert_eq!(arena.lookup(&Simplex::from_iter([9u32])), None);
    }

    #[test]
    fn iteration_in_interning_order() {
        let mut arena = SimplexArena::new();
        arena.intern(&Simplex::from_iter([5u32]));
        arena.intern(&Simplex::from_iter([1u32, 2]));
        let ids: Vec<u32> = arena.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}

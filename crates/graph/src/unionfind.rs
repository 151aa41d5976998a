//! Disjoint-set forest (union-find) with path halving and union by rank.

/// A disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set (with path halving).
    ///
    /// # Panics
    /// Panics when `x` is not below the element count.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merge the sets containing `a` and `b`. Returns `true` when they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// Whether `a` and `b` share a representative.
    fn same(uf: &mut UnionFind, a: usize, b: usize) -> bool {
        uf.find(a) == uf.find(b)
    }

    #[test]
    fn singletons_are_disjoint() {
        let mut uf = UnionFind::new(4);
        for x in 0..4 {
            assert_eq!(uf.find(x), x);
        }
        assert!(!same(&mut uf, 0, 1));
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(same(&mut uf, 0, 1));
        assert!(same(&mut uf, 2, 3));
        assert!(!same(&mut uf, 0, 2));
        assert!(uf.union(1, 2));
        assert!(same(&mut uf, 0, 3));
    }

    #[test]
    fn redundant_union_returns_false() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(!same(&mut uf, 1, 2));
    }

    #[test]
    fn self_union_is_noop() {
        let mut uf = UnionFind::new(2);
        assert!(!uf.union(1, 1));
        assert!(!same(&mut uf, 0, 1));
    }

    #[test]
    fn transitive_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        assert!((0..100).all(|x| uf.find(x) == root));
    }
}

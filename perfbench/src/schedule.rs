//! The seeded request schedule of the `serve-mix` workload: which class
//! and which tenant each arrival is. The class of a request is fixed by
//! the schedule, never by timing, so the class counts of a run equal the
//! plan exactly.

use sqlml_common::SplitMix64;

/// A `serve-mix` request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// The preparation query under In-SQL streaming, served from the
    /// cached transformed result (Figure 4, third bar).
    FullHit,
    /// The §5.2 follow-up query, served from the cached recode map
    /// (Figure 4, second bar).
    MapHit,
    /// The naive strategy, which never consults the cache.
    Bypass,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::FullHit, Class::MapHit, Class::Bypass];

    pub fn label(self) -> &'static str {
        match self {
            Class::FullHit => "full-hit",
            Class::MapHit => "map-hit",
            Class::Bypass => "bypass",
        }
    }
}

/// Tenants and their fair-queueing weights.
pub const TENANTS: [(&str, u32); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];

/// Requests per schedule block; every block holds the class shares
/// exactly, in a seeded order.
pub const BLOCK: usize = 10;

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub class: Class,
    /// Index into [`TENANTS`].
    pub tenant: usize,
}

/// `blocks` blocks of [`BLOCK`] arrivals. `shares[i]` is the number of
/// [`Class::ALL`]`[i]` requests per block. Within a block the classes are
/// shuffled and each tenant is drawn uniformly, both from `seed`.
pub fn plan(seed: u64, blocks: usize, shares: [usize; 3]) -> Vec<Arrival> {
    assert_eq!(shares.iter().sum::<usize>(), BLOCK, "shares fill a block");
    let mut rng = SplitMix64::new(seed);
    let mut classes = rng.fork(1);
    let mut tenants = rng.fork(2);
    let mut block: Vec<Class> = Class::ALL
        .iter()
        .zip(shares)
        .flat_map(|(&c, n)| std::iter::repeat_n(c, n))
        .collect();
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        // Fisher–Yates.
        for i in (1..BLOCK).rev() {
            let j = classes.next_below(i as u64 + 1) as usize;
            block.swap(i, j);
        }
        for &class in &block {
            let tenant = tenants.next_below(TENANTS.len() as u64) as usize;
            out.push(Arrival { class, tenant });
        }
    }
    out
}

/// How many arrivals of each class `schedule` holds, in [`Class::ALL`]
/// order.
pub fn class_counts(schedule: &[Arrival]) -> [usize; 3] {
    let mut counts = [0; 3];
    for a in schedule {
        counts[a.class as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        assert_eq!(plan(7, 20, [6, 2, 2]), plan(7, 20, [6, 2, 2]));
    }

    #[test]
    fn different_seed_different_classes_and_tenants() {
        let a = plan(7, 20, [6, 2, 2]);
        let b = plan(8, 20, [6, 2, 2]);
        let classes = |s: &[Arrival]| s.iter().map(|a| a.class).collect::<Vec<_>>();
        let tenants = |s: &[Arrival]| s.iter().map(|a| a.tenant).collect::<Vec<_>>();
        assert_ne!(classes(&a), classes(&b));
        assert_ne!(tenants(&a), tenants(&b));
    }

    #[test]
    fn every_block_holds_the_shares_exactly() {
        let s = plan(3, 50, [6, 2, 2]);
        assert_eq!(s.len(), 500);
        for block in s.chunks(BLOCK) {
            assert_eq!(class_counts(block), [6, 2, 2]);
        }
        assert_eq!(class_counts(&s), [300, 100, 100]);
        // Every tenant appears.
        for t in 0..TENANTS.len() {
            assert!(s.iter().any(|a| a.tenant == t));
        }
    }
}

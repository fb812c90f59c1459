//! Abstract domains for the static analyses: half-open byte/element
//! intervals and strided address sets. [`crate::dataflow`] tracks
//! stream lengths and sources in them; `sc-verify` also proves
//! partition plans disjoint with them.
//!
//! Two domains cover everything the stream ISA can express statically:
//!
//! * [`Interval`] — a half-open range `[lo, hi)` used both for byte
//!   address ranges (stream sources, output regions, protected graph
//!   data) and for element-count value ranges (a stream whose length is
//!   only known up to a bound is `[0, hi)` elements).
//! * [`Stride`] — a finite arithmetic progression
//!   `{base, base + stride, ...}` used for descriptor address sets and
//!   for partition write-sets (a static interleave shard is exactly a
//!   residue class, which two cores can be proven to never share without
//!   enumerating it).

use std::fmt;

/// A half-open interval `[lo, hi)`. `lo >= hi` encodes the empty
/// interval. Used for byte ranges and for element-count value ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower end.
    pub lo: u64,
    /// Exclusive upper end.
    pub hi: u64,
}

impl Interval {
    /// The interval `[lo, hi)`.
    pub fn new(lo: u64, hi: u64) -> Self {
        Interval { lo, hi }
    }

    /// The empty interval.
    pub fn empty() -> Self {
        Interval { lo: 0, hi: 0 }
    }

    /// The single point `[v, v+1)` — an exactly-known value.
    pub fn exact(v: u64) -> Self {
        Interval { lo: v, hi: v.saturating_add(1) }
    }

    /// Does the interval contain no points?
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Number of points (saturating).
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// Greatest value the interval admits (`hi - 1`), or `None` when
    /// empty. For element-count ranges this is the length upper bound.
    pub fn max(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.hi - 1)
        }
    }

    /// Do the two intervals share at least one point?
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }

    /// Is `other` entirely inside `self`?
    pub fn contains(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Interval meet (intersection).
    pub fn meet(&self, other: &Interval) -> Interval {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo >= hi {
            Interval::empty()
        } else {
            Interval { lo, hi }
        }
    }

    /// Convex hull (join): the smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Sum of two element-count ranges (saturating): the range of
    /// `x + y` for `x` in `self`, `y` in `other`. Empty absorbs.
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: (self.hi - 1).saturating_add(other.hi - 1).saturating_add(1),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[)")
        } else {
            write!(f, "[{:#x}, {:#x})", self.lo, self.hi)
        }
    }
}

/// A finite arithmetic progression `{base + k*stride : 0 <= k < count}`,
/// each element occupying `width` bytes. `stride == width` degenerates
/// to a contiguous range; `stride > width` is a strided descriptor or an
/// interleaved shard's residue class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stride {
    /// First element's address/index.
    pub base: u64,
    /// Distance between consecutive elements.
    pub stride: u64,
    /// Number of elements.
    pub count: u64,
    /// Bytes each element occupies (4 for keys, 8 for values, 1 for
    /// index-space write-sets).
    pub width: u64,
}

impl Stride {
    /// A contiguous progression: `count` elements of `width` bytes
    /// packed from `base` (stride == width).
    pub fn contiguous(base: u64, count: u64, width: u64) -> Self {
        Stride { base, stride: width, count, width }
    }

    /// No elements?
    pub fn is_empty(&self) -> bool {
        self.count == 0 || self.width == 0
    }

    /// The convex hull: the smallest interval covering every element.
    pub fn hull(&self) -> Interval {
        if self.is_empty() {
            return Interval::empty();
        }
        let last = self.base.saturating_add((self.count - 1).saturating_mul(self.stride));
        Interval { lo: self.base, hi: last.saturating_add(self.width) }
    }

    /// Structural disjointness for two progressions with the *same*
    /// stride: distinct residues modulo the stride (with element extents
    /// that do not bridge the gap) can never collide, no matter how many
    /// elements either side has. This is the static interleave proof:
    /// core `c` of `n` owning `{c, c+n, ...}` is disjoint from core `c'`
    /// for every `c != c'` without enumerating a single index.
    pub fn disjoint_residues(&self, other: &Stride) -> bool {
        if self.is_empty() || other.is_empty() {
            return true;
        }
        if self.stride != other.stride || self.stride == 0 {
            return false;
        }
        let m = self.stride;
        let ra = self.base % m;
        let rb = other.base % m;
        if ra == rb {
            return false;
        }
        // Residue gap in both directions; each element must fit inside
        // its gap so extents cannot bridge into the neighbor class.
        let fwd = (rb + m - ra) % m;
        let bwd = (ra + m - rb) % m;
        self.width <= fwd && other.width <= bwd
    }

    /// Exact membership test (used by the enumeration fallback).
    pub fn covers_point(&self, p: u64) -> bool {
        if self.is_empty() || p < self.base {
            return false;
        }
        let off = p - self.base;
        if self.stride == 0 {
            return off < self.width;
        }
        let k = off / self.stride;
        k < self.count && off - k * self.stride < self.width
    }

    /// Do two progressions share any byte? Decides exactly: the
    /// same-stride residue proof first, then hull separation, then an
    /// enumeration of the smaller progression (partition plans are at
    /// most a few thousand elements, so this stays cheap).
    pub fn overlaps(&self, other: &Stride) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if !self.hull().overlaps(&other.hull()) {
            return false;
        }
        if self.disjoint_residues(other) {
            return false;
        }
        let (small, big) = if self.count <= other.count { (self, other) } else { (other, self) };
        for k in 0..small.count {
            let lo = small.base + k * small.stride;
            for b in 0..small.width {
                if big.covers_point(lo + b) {
                    return true;
                }
            }
        }
        false
    }
}

impl fmt::Display for Stride {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{:#x} + k*{} : k < {}}} x{}B", self.base, self.stride, self.count, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let a = Interval::new(0x1000, 0x2000);
        let b = Interval::new(0x1800, 0x2800);
        assert!(a.overlaps(&b));
        assert_eq!(a.meet(&b), Interval::new(0x1800, 0x2000));
        assert_eq!(a.hull(&b), Interval::new(0x1000, 0x2800));
        assert!(!a.overlaps(&Interval::new(0x2000, 0x3000)), "adjacent is disjoint");
        assert!(Interval::empty().is_empty());
        assert!(!a.overlaps(&Interval::empty()));
        assert!(a.contains(&Interval::new(0x1100, 0x1200)));
        assert!(!a.contains(&b));
        assert_eq!(Interval::exact(7).max(), Some(7));
        assert_eq!(Interval::empty().max(), None);
    }

    #[test]
    fn interval_count_arithmetic() {
        // [0,4] + [0,6] = [0,10] as counts (stored half-open).
        let a = Interval::new(0, 5);
        let b = Interval::new(0, 7);
        assert_eq!(a.add(&b), Interval::new(0, 11));
        assert_eq!(a.add(&Interval::empty()), Interval::empty());
    }

    #[test]
    fn contiguous_stride_hull() {
        let s = Stride::contiguous(0x1000, 16, 4);
        assert_eq!(s.hull(), Interval::new(0x1000, 0x1040));
        assert!(Stride::contiguous(0x1000, 0, 4).is_empty());
    }

    #[test]
    fn residue_classes_are_disjoint() {
        // Cores 0 and 1 of 6, unit-width index write-sets.
        let c0 = Stride { base: 0, stride: 6, count: 100, width: 1 };
        let c1 = Stride { base: 1, stride: 6, count: 100, width: 1 };
        assert!(c0.disjoint_residues(&c1));
        assert!(!c0.overlaps(&c1));
        // Same residue collides.
        let c0b = Stride { base: 6, stride: 6, count: 10, width: 1 };
        assert!(!c0.disjoint_residues(&c0b));
        assert!(c0.overlaps(&c0b));
    }

    #[test]
    fn wide_elements_can_bridge_residues() {
        // 4-byte elements every 6 bytes at residues 0 and 3: 0..4 vs 3..7
        // overlap even though the residues differ.
        let a = Stride { base: 0, stride: 6, count: 8, width: 4 };
        let b = Stride { base: 3, stride: 6, count: 8, width: 4 };
        assert!(!a.disjoint_residues(&b));
        assert!(a.overlaps(&b));
        // 2-byte elements at residues 0 and 3 fit in their gaps.
        let a = Stride { base: 0, stride: 6, count: 8, width: 2 };
        let b = Stride { base: 3, stride: 6, count: 8, width: 2 };
        assert!(a.disjoint_residues(&b));
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn enumeration_fallback_decides_mixed_strides() {
        let a = Stride { base: 0, stride: 12, count: 5, width: 4 };
        let b = Stride { base: 24, stride: 8, count: 3, width: 4 };
        // a covers {0..4, 12..16, 24..28, ...}; b covers {24..28, ...}.
        assert!(a.overlaps(&b));
        let c = Stride { base: 4, stride: 12, count: 5, width: 4 };
        let d = Stride { base: 0, stride: 12, count: 5, width: 4 };
        assert!(!c.overlaps(&d));
    }
}

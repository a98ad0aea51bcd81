//! Small collections that keep their first elements out of the heap.
//!
//! A simulated round trip is a handful of tiny sequences — the one verb of
//! a single read, its one result, the one op of a blocking lookup, the four
//! child slots of a `Node4`, the ≤ 14 entries of a bucket pair. Each was a
//! `Vec`, so each cost an allocation per round trip. Both types here are
//! slices first ([`Deref`] to `[T]`): callers index and iterate them as
//! they did the `Vec`s.

use std::ops::{Deref, DerefMut};

/// An ordered collection whose only element is stored inline: the verbs of
/// a [`DoorbellBatch`](crate::DoorbellBatch) and the results of its
/// completion, the slots and outputs of a pipeline run, the level list of a
/// lookup that reads one bucket pair. A collection that never holds more
/// than one element allocates nothing; one built for more (or grown past
/// one) is a `Vec` and pays what a `Vec` would.
#[derive(Debug, Clone)]
pub struct FirstInline<T>(First<T>);

#[derive(Debug, Clone)]
enum First<T> {
    /// At most one element, no allocation.
    Inline(Option<T>),
    /// Any number of elements.
    Heap(Vec<T>),
}

impl<T> Default for FirstInline<T> {
    fn default() -> Self {
        FirstInline(First::Inline(None))
    }
}

impl<T> FirstInline<T> {
    /// An empty collection with room for `capacity` elements: nothing
    /// allocated for a capacity of at most one, a `Vec` of that capacity
    /// otherwise.
    pub fn with_capacity(capacity: usize) -> Self {
        FirstInline(if capacity > 1 {
            First::Heap(Vec::with_capacity(capacity))
        } else {
            First::Inline(None)
        })
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            First::Inline(slot @ None) => *slot = Some(item),
            First::Inline(first) => {
                self.0 = First::Heap(first.take().into_iter().chain([item]).collect());
            }
            First::Heap(v) => v.push(item),
        }
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.0 {
            First::Inline(first) => first.take(),
            First::Heap(v) => v.pop(),
        }
    }

    /// Removes every element, keeping the allocation (if any).
    pub fn clear(&mut self) {
        match &mut self.0 {
            First::Inline(first) => *first = None,
            First::Heap(v) => v.clear(),
        }
    }

    /// Keeps the elements `keep` approves, visiting each once, in order.
    pub fn retain_mut(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        match &mut self.0 {
            First::Inline(first) => {
                if first.as_mut().is_some_and(|item| !keep(item)) {
                    *first = None;
                }
            }
            First::Heap(v) => v.retain_mut(keep),
        }
    }

    /// The collection with `f` applied to every element, in order — in the
    /// same buffer where the standard library's in-place `collect` allows
    /// it (equal size and alignment).
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> FirstInline<U> {
        FirstInline(match self.0 {
            First::Inline(first) => First::Inline(first.map(f)),
            First::Heap(v) => First::Heap(v.into_iter().map(f).collect()),
        })
    }

    /// Whether the elements live in a heap allocation.
    #[cfg(test)]
    fn spilled(&self) -> bool {
        matches!(&self.0, First::Heap(v) if v.capacity() > 0)
    }
}

impl<T> Deref for FirstInline<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            First::Inline(first) => first.as_slice(),
            First::Heap(v) => v,
        }
    }
}

impl<T> DerefMut for FirstInline<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            First::Inline(first) => first.as_mut_slice(),
            First::Heap(v) => v,
        }
    }
}

impl<T> FromIterator<T> for FirstInline<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut out = FirstInline::with_capacity(iter.size_hint().0);
        iter.for_each(|item| out.push(item));
        out
    }
}

impl<T> IntoIterator for FirstInline<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (first, rest) = match self.0 {
            First::Inline(first) => (first, Vec::new()),
            First::Heap(v) => (None, v),
        };
        first.into_iter().chain(rest)
    }
}

/// A sequence of `Copy` values that lives inline up to `N` elements and in
/// a `Vec` beyond: the child slots of an inner node (`Node4` and `Node16`
/// inline, the two large kinds on the heap), the entries of a hash-table
/// bucket pair (never more than fit).
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Upto<T, N>);

#[derive(Clone)]
enum Upto<T, const N: usize> {
    /// The first `len` of `items`, no allocation.
    Inline { len: u32, items: [T; N] },
    /// More than `N` elements.
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// `len` copies of `T::default()`.
    pub fn filled(len: usize) -> Self {
        InlineVec(if len <= N {
            Upto::Inline {
                len: len as u32,
                items: [T::default(); N],
            }
        } else {
            Upto::Heap(vec![T::default(); len])
        })
    }

    /// A copy of `items`.
    pub fn from_slice(items: &[T]) -> Self {
        let mut out = InlineVec::filled(items.len());
        out.copy_from_slice(items);
        out
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Upto::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = item;
                *len += 1;
            }
            Upto::Inline { items, .. } => {
                let mut v = items.to_vec();
                v.push(item);
                self.0 = Upto::Heap(v);
            }
            Upto::Heap(v) => v.push(item),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::filled(0)
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Upto::Inline { len, items } => &items[..*len as usize],
            Upto::Heap(v) => v,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Upto::Inline { len, items } => &mut items[..*len as usize],
            Upto::Heap(v) => v,
        }
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::default();
        for item in iter {
            out.push(item);
        }
        out
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter =
        std::iter::Chain<std::iter::Take<std::array::IntoIter<T, N>>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (len, items, rest) = match self.0 {
            Upto::Inline { len, items } => (len as usize, items, Vec::new()),
            Upto::Heap(v) => (0, [T::default(); N], v),
        };
        items.into_iter().take(len).chain(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_inline_allocates_only_past_one_element() {
        let mut v = FirstInline::with_capacity(1);
        assert!(v.is_empty() && !v.spilled());
        v.push(7u8);
        assert_eq!((&*v, v.spilled()), (&[7][..], false));
        assert_eq!(v.pop(), Some(7));
        v.push(8);
        v.clear();
        assert!(v.is_empty() && !v.spilled());
        v.push(1);
        v.push(2);
        assert!(v.spilled(), "the second element moves both to a Vec");
        assert_eq!(&*v, &[1, 2]);
        assert!(FirstInline::<u8>::with_capacity(4).spilled());
        assert!(!FirstInline::<u8>::default().spilled());
    }

    /// Slots are resumed in submission order whichever of them retire.
    #[test]
    fn first_inline_keeps_order_across_retain_and_push() {
        let mut v = FirstInline::with_capacity(4);
        (1..=3).for_each(|i| v.push(i));
        v[2] += 10;
        v.retain_mut(|i| *i != 1);
        v.push(4);
        assert_eq!(v.len(), 3);
        assert_eq!(v.get_mut(0), Some(&mut 2));
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![2, 13, 4]);
        let mut v = FirstInline::with_capacity(1);
        v.push(1);
        v.retain_mut(|_| false);
        assert!(v.is_empty());
        v.push(2);
        assert!(!v.spilled(), "an emptied collection is inline again");
        assert_eq!(&*v.clone().map(|i| i + 1), &[3]);
        v.push(3);
        assert_eq!(&*v.clone().map(|i| i + 1), &[3, 4]);
        assert_eq!((v.pop(), v.pop(), v.pop()), (Some(3), Some(2), None));
    }

    #[test]
    fn first_inline_collects_inline_when_one_element_is_promised() {
        let one: FirstInline<u8> = [9].into_iter().collect();
        assert_eq!((&*one, one.spilled()), (&[9][..], false));
        let two: FirstInline<u8> = [1, 2].into_iter().collect();
        assert_eq!(&*two, &[1, 2]);
        let filtered: FirstInline<u8> = (0..9).filter(|i| *i > 6).collect();
        assert_eq!(&*filtered, &[7, 8], "an unknown count grows like a Vec");
    }

    #[test]
    fn inline_vec_spills_past_its_capacity_and_reads_as_a_slice() {
        let mut v: InlineVec<u16, 4> = InlineVec::default();
        for i in 0..4 {
            v.push(i);
        }
        assert!(matches!(v.0, Upto::Inline { len: 4, .. }));
        assert_eq!(&*v, &[0, 1, 2, 3]);
        v[1] = 9;
        v.push(4);
        assert!(matches!(v.0, Upto::Heap(_)));
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 9, 2, 3, 4]);
        assert_eq!(v.clone().into_iter().sum::<u16>(), 18);
        let z: InlineVec<u16, 4> = InlineVec::filled(3);
        assert_eq!((&*z, z.len()), (&[0, 0, 0][..], 3));
        assert!(matches!(
            InlineVec::<u16, 4>::filled(5).0,
            Upto::Heap(v) if v.len() == 5
        ));
        assert_eq!(
            z,
            [0, 0, 0].into_iter().collect(),
            "equality is by contents"
        );
        assert_eq!(format!("{z:?}"), "[0, 0, 0]");
    }
}

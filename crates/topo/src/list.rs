//! Short adjacency lists that are either borrowed from a stored table or
//! computed in place.
//!
//! Graphs stored in CSR form hand out slices of their arrays; meshes
//! compute a PE's neighbours (or a channel's members) from the width and
//! height and return them inline, so they need no table at all. [`List`]
//! covers both behind one value that dereferences to a slice: it supports
//! `len`, indexing, `iter` and every other slice method, and iterates by
//! value in a `for` loop.

use std::ops::Deref;

use crate::graph::{Neighbor, PeId};

/// A PE's neighbours in sorted PE-id order (see [`crate::Topology::neighbors`]).
/// Computed lists are a mesh PE's, so four slots suffice.
pub type Neighbors<'a> = List<'a, Neighbor, 4>;

/// A channel's members in sorted PE-id order (see
/// [`crate::Topology::channel_members`]). Computed lists are links, so two
/// slots suffice.
pub type Members<'a> = List<'a, PeId, 2>;

/// A list of at most `N` computed items, or a borrowed slice of any length.
#[derive(Debug, Clone)]
pub struct List<'a, T, const N: usize> {
    repr: Repr<'a, T, N>,
}

#[derive(Debug, Clone)]
enum Repr<'a, T, const N: usize> {
    Borrowed(&'a [T]),
    Inline { len: usize, items: [T; N] },
}

impl<'a, T: Copy + Default, const N: usize> List<'a, T, N> {
    /// A list over a stored slice.
    #[inline]
    pub(crate) fn borrowed(items: &'a [T]) -> Self {
        List {
            repr: Repr::Borrowed(items),
        }
    }

    /// An empty inline list, filled with [`List::push`].
    #[inline]
    pub(crate) fn inline() -> Self {
        List {
            repr: Repr::Inline {
                len: 0,
                items: [T::default(); N],
            },
        }
    }

    /// Append to an inline list.
    ///
    /// # Panics
    ///
    /// Panics on a borrowed list or past its capacity.
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        match &mut self.repr {
            Repr::Inline { len, items } => {
                items[*len] = item;
                *len += 1;
            }
            Repr::Borrowed(_) => unreachable!("push onto a borrowed list"),
        }
    }
}

impl<T, const N: usize> Deref for List<'_, T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Borrowed(items) => items,
            Repr::Inline { len, items } => &items[..*len],
        }
    }
}

impl<'b, T, const N: usize> IntoIterator for &'b List<'_, T, N> {
    type Item = &'b T;
    type IntoIter = std::slice::Iter<'b, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for List<'a, T, N> {
    type Item = T;
    type IntoIter = IntoIter<'a, T, N>;

    fn into_iter(self) -> Self::IntoIter {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

/// By-value iterator over a [`List`].
#[derive(Debug, Clone)]
pub struct IntoIter<'a, T, const N: usize> {
    list: List<'a, T, N>,
    next: usize,
}

impl<T: Copy, const N: usize> Iterator for IntoIter<'_, T, N> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let item = self.list.get(self.next).copied();
        self.next += 1;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

impl<T: Copy, const N: usize> ExactSizeIterator for IntoIter<'_, T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_borrowed_lists_read_alike() {
        let stored = [PeId(1), PeId(4)];
        let mut computed: Members = List::inline();
        computed.push(PeId(1));
        computed.push(PeId(4));
        let borrowed: Members = List::borrowed(&stored);
        for list in [computed, borrowed] {
            assert_eq!(&*list, &stored);
            assert_eq!(list.len(), 2);
            assert_eq!(list[1], PeId(4));
            assert_eq!(list.clone().into_iter().len(), 2);
            assert_eq!(list.into_iter().collect::<Vec<_>>(), stored.to_vec());
        }
    }

    #[test]
    #[should_panic]
    fn inline_list_is_bounded() {
        let mut list: Members = List::inline();
        for p in 0..3 {
            list.push(PeId(p));
        }
    }
}

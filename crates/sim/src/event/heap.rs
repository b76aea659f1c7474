//! The event order: a 4-ary min-heap of `u128` keys.
//!
//! Four children a node halve the depth of a binary heap, so a key
//! moves half as many levels, and the four 16-byte children a pop
//! compares at a level are 64 contiguous bytes. A pop moves the last
//! key into the root's hole and sifts it down, stopping as soon as it
//! is no later than the least child.

/// Children of node `i` are `4i + 1 ..= 4i + 4`.
const ARITY: usize = 4;

/// A min-heap of `u128`s: [`pop`](Self::pop) returns the least.
#[derive(Default)]
pub(super) struct QuadHeap {
    keys: Vec<u128>,
}

impl QuadHeap {
    pub(super) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The least key, if any.
    pub(super) fn peek(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    pub(super) fn push(&mut self, key: u128) {
        let mut hole = self.keys.len();
        self.keys.push(key);
        let keys = &mut self.keys[..];
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if keys[parent] <= key {
                break;
            }
            keys[hole] = keys[parent];
            hole = parent;
        }
        keys[hole] = key;
    }

    /// Removes and returns the least key.
    pub(super) fn pop(&mut self) -> Option<u128> {
        let last = self.keys.pop()?;
        let Some(&least) = self.keys.first() else {
            return Some(last);
        };
        let keys = &mut self.keys[..];
        let len = keys.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            let (child, key) = if let Some(&[k0, k1, k2, k3]) = keys.get(first..first + ARITY) {
                let (a, ka) = if k1 < k0 { (1, k1) } else { (0, k0) };
                let (b, kb) = if k3 < k2 { (3, k3) } else { (2, k2) };
                let (i, k) = if kb < ka { (b, kb) } else { (a, ka) };
                (first + i, k)
            } else if first < len {
                // The last group, one to three children.
                let i = (first + 1..len).fold(first, |m, i| if keys[i] < keys[m] { i } else { m });
                (i, keys[i])
            } else {
                break;
            };
            if last <= key {
                break;
            }
            keys[hole] = key;
            hole = child;
        }
        keys[hole] = last;
        Some(least)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Pops everything, checking each key against the model's least.
    fn drain(heap: &mut QuadHeap, model: &mut Vec<u128>) {
        model.sort_unstable_by(|a, b| b.cmp(a));
        while let Some(want) = model.pop() {
            assert_eq!(heap.peek(), Some(want));
            assert_eq!(heap.pop(), Some(want));
            assert_eq!(heap.len(), model.len());
        }
        assert_eq!((heap.pop(), heap.peek()), (None, None));
    }

    #[test]
    fn every_size_drains_in_order() {
        // Sizes 1..=320, at depths up to four: the sift-down meets a
        // last group of one, of two and of three children over a
        // thousand times each on the way.
        let mut rng = Rng::new(7);
        for n in 1..=320 {
            let (mut heap, mut model) = (QuadHeap::default(), Vec::new());
            for _ in 0..n {
                // Small values so that equal keys occur too.
                let key = u128::from(rng.below(64));
                heap.push(key);
                model.push(key);
            }
            drain(&mut heap, &mut model);
        }
    }

    #[test]
    fn random_push_pop_mixes_match_a_sorted_vec() {
        let mut rng = Rng::new(42);
        for round in 0..200 {
            let (mut heap, mut model) = (QuadHeap::default(), Vec::<u128>::new());
            // Grow to up to ~400 keys, popping a quarter of the time,
            // then shrink, so every length is met both ways.
            let cap = 1 + rng.below(400) as usize;
            let wide = round % 2 == 0;
            while model.len() < cap {
                if rng.below(4) == 0 {
                    model.sort_unstable();
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(heap.pop(), want);
                } else {
                    let key = if wide {
                        u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
                    } else {
                        u128::from(rng.below(1_000))
                    };
                    heap.push(key);
                    model.push(key);
                }
                assert_eq!(heap.len(), model.len());
            }
            drain(&mut heap, &mut model);
        }
    }
}

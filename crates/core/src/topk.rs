//! A bounded best-k list.
//!
//! Algorithm 1 keeps "a list L of size k … updated after each iteration;
//! the new team is added to L if its cost is smaller than the last team in
//! L". This is exactly that list, generic over what it keeps.

/// Keeps the `k` items with the smallest keys seen so far.
///
/// Insertion is `O(k)` (a shifted insert into a sorted `Vec`), which for
/// the paper's `k ≤ 10` beats any heap bookkeeping.
#[derive(Clone, Debug)]
pub struct BoundedTopK<T> {
    capacity: usize,
    items: Vec<(f64, T)>,
}

impl<T> BoundedTopK<T> {
    /// A list keeping the best `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedTopK {
            capacity,
            items: Vec::with_capacity(capacity.min(64)),
        }
    }

    /// Offers an item; it is kept only if its key is among the `k`
    /// smallest. NaN keys are rejected outright.
    pub fn offer(&mut self, key: f64, value: T) -> bool {
        if self.capacity == 0 || key.is_nan() {
            return false;
        }
        if self.items.len() == self.capacity
            && key >= self.items.last().expect("non-empty at capacity").0
        {
            return false;
        }
        let pos = self.items.partition_point(|&(k, _)| k <= key);
        self.items.insert(pos, (key, value));
        if self.items.len() > self.capacity {
            self.items.pop();
        }
        true
    }

    /// Number of kept items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are kept.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Consumes the list, returning `(key, value)` ascending by key.
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut l = BoundedTopK::new(3);
        for (k, v) in [(5.0, 'a'), (1.0, 'b'), (4.0, 'c'), (2.0, 'd'), (9.0, 'e')] {
            l.offer(k, v);
        }
        let got: Vec<char> = l.into_sorted().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, vec!['b', 'd', 'c']);
    }

    #[test]
    fn rejects_when_full_and_worse() {
        let mut l = BoundedTopK::new(2);
        assert!(l.offer(1.0, ()));
        assert!(l.offer(2.0, ()));
        assert!(!l.offer(3.0, ()), "worse than the kept tail");
        assert!(l.offer(0.5, ()));
        let keys: Vec<f64> = l.into_sorted().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0.5, 1.0]);
    }

    #[test]
    fn equal_keys_preserve_insertion_order() {
        let mut l = BoundedTopK::new(3);
        l.offer(1.0, 'x');
        l.offer(1.0, 'y');
        l.offer(1.0, 'z');
        let got: Vec<char> = l.into_sorted().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, vec!['x', 'y', 'z'], "stable for ties");
    }

    #[test]
    fn zero_capacity_accepts_nothing() {
        let mut l = BoundedTopK::new(0);
        assert!(!l.offer(1.0, ()));
        assert!(l.is_empty());
    }

    #[test]
    fn nan_keys_rejected() {
        let mut l = BoundedTopK::new(2);
        assert!(!l.offer(f64::NAN, ()));
        assert!(l.is_empty());
    }
}

//! Small fully-associative buffer with true-LRU replacement.

/// End marker of the recency list.
const NIL: u32 = u32::MAX;

/// A fully-associative buffer keyed by `u64` with true-LRU replacement:
/// the shape of the BTB designs' victim, prefetch and overflow buffers.
///
/// Lines sit unordered in parallel arrays, threaded on a doubly linked
/// recency list (most recent at `head`, least recent at `tail`). A hit or
/// an insert costs one scan of the key array plus a constant number of
/// link updates; nothing shifts, and the victim is always `tail`. The
/// replacement order is exactly that of a one-set
/// [`crate::SetAssocCache`] with the same number of ways.
///
/// # Example
///
/// ```
/// use confluence_uarch::LruBuffer;
///
/// let mut buf = LruBuffer::new(2);
/// buf.insert(1, 'a');
/// buf.insert(2, 'b');
/// assert_eq!(buf.lookup(1), Some(&'a')); // 2 is now least recent
/// buf.insert(3, 'c');
/// assert_eq!(buf.remove(2), None);
/// assert_eq!(buf.remove(1), Some('a'));
/// ```
#[derive(Clone, Debug)]
pub struct LruBuffer<V> {
    keys: Vec<u64>,
    values: Vec<V>,
    /// Recency links per slot, toward `head` and toward `tail`.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    ways: usize,
}

impl<V> LruBuffer<V> {
    /// Creates an empty buffer of `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or does not fit the `u32` recency links.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0, "an LRU buffer needs at least one way");
        assert!(ways < NIL as usize, "recency links are u32 slot indices");
        LruBuffer {
            keys: Vec::with_capacity(ways),
            values: Vec::with_capacity(ways),
            prev: Vec::with_capacity(ways),
            next: Vec::with_capacity(ways),
            head: NIL,
            tail: NIL,
            ways,
        }
    }

    #[inline]
    fn position(&self, key: u64) -> Option<usize> {
        // Eight keys per step with no early exit inside a step, so the
        // compares vectorize.
        let mut chunks = self.keys.chunks_exact(8);
        for (c, chunk) in chunks.by_ref().enumerate() {
            let mut hits = 0u32;
            for (i, &k) in chunk.iter().enumerate() {
                hits |= u32::from(k == key) << i;
            }
            if hits != 0 {
                return Some(c * 8 + hits.trailing_zeros() as usize);
            }
        }
        let done = self.keys.len() - chunks.remainder().len();
        chunks
            .remainder()
            .iter()
            .position(|&k| k == key)
            .map(|i| done + i)
    }

    #[inline]
    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.prev[i], self.next[i]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
    }

    #[inline]
    fn push_front(&mut self, i: usize) {
        self.prev[i] = NIL;
        self.next[i] = self.head;
        match self.head {
            NIL => self.tail = i as u32,
            h => self.prev[h as usize] = i as u32,
        }
        self.head = i as u32;
    }

    /// Makes slot `i` the most recently used line.
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.head != i as u32 {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Looks up `key`, making it the most recently used line on a hit.
    #[inline]
    pub fn lookup(&mut self, key: u64) -> Option<&V> {
        let i = self.position(key)?;
        self.touch(i);
        Some(&self.values[i])
    }

    /// Inserts `key` as the most recently used line. A resident key gets
    /// the new payload; otherwise a full buffer drops its least recently
    /// used line.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) {
        let i = match self.position(key) {
            Some(i) => i,
            None if self.keys.len() < self.ways => {
                self.keys.push(key);
                self.values.push(value);
                self.prev.push(NIL);
                self.next.push(NIL);
                self.push_front(self.keys.len() - 1);
                return;
            }
            None => {
                let lru = self.tail as usize;
                self.keys[lru] = key;
                lru
            }
        };
        self.values[i] = value;
        self.touch(i);
    }

    /// Removes `key`, returning its payload.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.position(key)?;
        Some(self.remove_slot(i))
    }

    /// Keeps only the lines whose key satisfies `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let mut i = 0;
        while i < self.keys.len() {
            if keep(self.keys[i]) {
                i += 1;
            } else {
                self.remove_slot(i);
            }
        }
    }

    /// Unlinks slot `i` and fills the hole with the last slot.
    fn remove_slot(&mut self, i: usize) -> V {
        self.unlink(i);
        let last = self.keys.len() - 1;
        if i != last {
            let (p, n) = (self.prev[last], self.next[last]);
            self.prev[i] = p;
            self.next[i] = n;
            match p {
                NIL => self.head = i as u32,
                p => self.next[p as usize] = i as u32,
            }
            match n {
                NIL => self.tail = i as u32,
                n => self.prev[n as usize] = i as u32,
            }
        }
        self.prev.swap_remove(i);
        self.next.swap_remove(i);
        self.keys.swap_remove(i);
        self.values.swap_remove(i)
    }

    /// Removes every line.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most to least recently used.
    #[cfg(test)]
    fn recency(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = self.head;
        while i != NIL {
            out.push(self.keys[i as usize]);
            i = self.next[i as usize];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssocCache;
    use confluence_types::DetRng;

    /// Random insert / lookup / remove / retain traffic must leave the
    /// buffer holding exactly what a one-set `SetAssocCache` holds, in the
    /// same recency order.
    #[test]
    fn matches_one_set_cache_under_random_traffic() {
        for ways in [1, 2, 8, 64] {
            let mut rng = DetRng::seed_from(ways as u64);
            let mut buf = LruBuffer::new(ways);
            let mut cache = SetAssocCache::new(1, ways).unwrap();
            for step in 0..20_000u64 {
                let key = rng.below(ways as u64 * 2);
                match rng.below(8) {
                    0..=3 => {
                        buf.insert(key, step);
                        cache.insert(key, step);
                    }
                    4..=5 => assert_eq!(buf.lookup(key), cache.lookup(key)),
                    6 => assert_eq!(buf.remove(key), cache.invalidate(key)),
                    _ => {
                        // Drop one residue class of keys, as a sweep does.
                        let (m, r) = (5, rng.below(5));
                        buf.retain(|k| k % m != r);
                        let doomed: Vec<u64> = cache
                            .iter()
                            .map(|(k, _)| k)
                            .filter(|k| k % m == r)
                            .collect();
                        for k in doomed {
                            cache.invalidate(k);
                        }
                    }
                }
                // Same lines in the same recency order (the cache keeps its
                // set most recent first).
                let cache_mru_first: Vec<u64> = cache.iter().map(|(k, _)| k).collect();
                assert_eq!(buf.recency(), cache_mru_first, "ways {ways}, step {step}");
            }
        }
    }

    #[test]
    fn full_buffer_evicts_least_recently_used() {
        let mut buf = LruBuffer::new(3);
        buf.insert(1, ());
        buf.insert(2, ());
        buf.insert(3, ());
        buf.lookup(1);
        buf.insert(2, ()); // re-insert refreshes, no eviction
        buf.insert(4, ()); // evicts 3
        assert_eq!(buf.remove(3), None);
        assert!(buf.lookup(1).is_some() && buf.lookup(2).is_some() && buf.lookup(4).is_some());
    }
}

//! An ordered key-value store substrate.
//!
//! Plays the role Berkeley DB plays under JanusGraph in the paper's
//! evaluation: an ordered map from byte keys to byte values with prefix
//! scans. In-memory, guarded by a single reader-writer lock (one lock for
//! the whole store — part of why the Janus-like baseline scales poorly
//! under concurrency in Figure 6).

use std::collections::BTreeMap;
use std::ops::Bound;

use parking_lot::RwLock;

/// An ordered byte-key/byte-value store.
#[derive(Debug, Default)]
pub struct KvStore {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl KvStore {
    pub(crate) fn new() -> KvStore {
        KvStore::default()
    }

    pub(crate) fn put(&self, key: Vec<u8>, value: Vec<u8>) {
        self.map.write().insert(key, value);
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.read().get(key).cloned()
    }

    #[cfg(test)]
    pub(crate) fn delete(&self, key: &[u8]) -> bool {
        self.map.write().remove(key).is_some()
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, key: &[u8]) -> bool {
        self.map.read().contains_key(key)
    }

    /// Visit values under a prefix without materializing keys.
    pub(crate) fn for_each_prefix(&self, prefix: &[u8], mut f: impl FnMut(&[u8], &[u8])) {
        let map = self.map.read();
        for (k, v) in map
            .range((Bound::Included(prefix.to_vec()), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
        {
            f(k, v);
        }
    }

    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Total bytes stored (keys + values) — the "disk usage" accounting for
    /// Table 3.
    pub(crate) fn total_bytes(&self) -> usize {
        let map = self.map.read();
        map.iter().map(|(k, v)| k.len() + v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let kv = KvStore::new();
        kv.put(b"a".to_vec(), b"1".to_vec());
        kv.put(b"b".to_vec(), b"2".to_vec());
        assert_eq!(kv.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(kv.get(b"z"), None);
        assert!(kv.contains(b"b"));
        assert!(kv.delete(b"a"));
        assert!(!kv.delete(b"a"));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn overwrite_replaces() {
        let kv = KvStore::new();
        kv.put(b"k".to_vec(), b"v1".to_vec());
        kv.put(b"k".to_vec(), b"v2".to_vec());
        assert_eq!(kv.get(b"k"), Some(b"v2".to_vec()));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn prefix_scans_are_bounded() {
        let kv = KvStore::new();
        kv.put(b"v:1".to_vec(), b"a".to_vec());
        kv.put(b"v:2".to_vec(), b"b".to_vec());
        kv.put(b"w:1".to_vec(), b"c".to_vec());
        let mut hits = Vec::new();
        kv.for_each_prefix(b"v:", |k, _| hits.push(k.to_vec()));
        assert_eq!(hits, vec![b"v:1".to_vec(), b"v:2".to_vec()]);
        let mut n = 0;
        kv.for_each_prefix(b"w:", |_, _| n += 1);
        assert_eq!(n, 1);
        kv.for_each_prefix(b"x:", |_, _| panic!("no key under x:"));
    }

    #[test]
    fn byte_accounting() {
        let kv = KvStore::new();
        kv.put(b"ab".to_vec(), b"cdef".to_vec());
        assert_eq!(kv.total_bytes(), 6);
    }
}

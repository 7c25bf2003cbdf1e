//! The recipe cache: reuse one decoded tree and restore recipe across
//! fields, timesteps, and readers that share a mesh.
//!
//! zMesh's recipe is a pure function of `(tree structure, policy,
//! grouping)`, and the tree a pure function of the structure bytes.
//! Decoding the tree and building the recipe each cost a pass over every
//! cell; cloning an `Arc` costs nothing. Multi-field and time-series
//! workloads hit the same tree structure over and over, so the cache keys
//! tree and recipe together by a hash of the serialized structure and hands
//! out shared references — the paper's "recipe amortization" made explicit
//! across pipeline calls. A reader looks the structure up before it
//! decodes anything, so a warm open decodes no tree and builds no recipe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use zmesh::{GroupingMode, OrderingPolicy, RestoreRecipe, StreamKeys};
use zmesh_amr::{AmrError, AmrTree};

/// FNV-1a over the serialized tree structure, one little-endian 8-byte
/// word per step (a short last word zero-filled; the key's
/// `structure_len` tells such a tail from real zeros) — stable,
/// dependency-free, and 64 bits is plenty for a cache key *because hits
/// are verified*: the entry keeps the structure bytes it was built from
/// and a lookup compares them before handing the recipe out, so a hash
/// collision costs exactly one rebuild instead of silently returning the
/// wrong permutation (see [`RecipeCache::get_or_build`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(0x1000_0000_01b3);
    let mut words = bytes.chunks_exact(8);
    let mut h = (&mut words).fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        mix(h, u64::from_le_bytes(w.try_into().expect("8-byte word")))
    });
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    structure_hash: u64,
    structure_len: usize,
    policy: OrderingPolicy,
    grouping: GroupingMode,
}

/// The cache key of `structure` under `policy` and `grouping`.
fn cache_key(structure: &[u8], policy: OrderingPolicy, grouping: GroupingMode) -> Key {
    Key {
        structure_hash: fnv1a(structure),
        structure_len: structure.len(),
        policy,
        grouping,
    }
}

/// A cached tree and recipe plus the exact structure bytes they were
/// built from (kept so hits can be verified instead of trusting the 64-bit
/// hash).
#[derive(Debug, Clone)]
struct Entry {
    structure: Arc<[u8]>,
    tree: Arc<AmrTree>,
    recipe: Arc<RestoreRecipe>,
}

/// What a lookup hands back: the entry's tree and recipe, whether it was a
/// hit, and on a keyed miss the build's [`StreamKeys`].
struct Lookup {
    tree: Arc<AmrTree>,
    recipe: Arc<RestoreRecipe>,
    hit: bool,
    keys: Option<StreamKeys>,
}

/// Hit/miss counters of a [`RecipeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a recipe (and, for a reader, decode the
    /// tree).
    pub misses: u64,
    /// Lookups whose key matched but whose structure bytes did not (a
    /// 64-bit hash collision); counted as misses too, since the recipe was
    /// rebuilt.
    pub collisions: u64,
    /// Times the cache recovered from a poisoned mutex (a panic in another
    /// thread while it held the lock). Each recovery drops every cached
    /// recipe, so later lookups rebuild instead of crashing.
    pub poison_recoveries: u64,
    /// Recipes currently cached.
    pub entries: usize,
}

/// Cached recipes plus their FIFO insertion order.
type CacheMap = (HashMap<Key, Entry>, Vec<Key>);

/// A bounded, thread-safe cache of decoded trees and their restore
/// recipes, keyed by tree structure, ordering policy, and grouping mode.
#[derive(Debug)]
pub struct RecipeCache {
    map: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    poison_recoveries: AtomicU64,
    capacity: usize,
}

impl Default for RecipeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl RecipeCache {
    /// Default capacity: generous for multi-field/time-series runs where a
    /// handful of distinct (structure, policy) pairs are live at once.
    pub const DEFAULT_CAPACITY: usize = 16;

    /// Cache with [`RecipeCache::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Cache evicting in insertion order beyond `capacity` recipes.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            map: Mutex::new((HashMap::new(), Vec::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            capacity,
        }
    }

    /// Locks the map, recovering from poisoning: a panic in another thread
    /// while it held the lock must not take down every later reader. The
    /// panicking thread may have left the map/order pair mid-update, so
    /// the recovered cache is **cleared** — dropping cached recipes is
    /// always safe (they get rebuilt), serving a half-updated map is not.
    fn lock_map(&self) -> MutexGuard<'_, CacheMap> {
        match self.map.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.map.clear_poison();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                let mut guard = poisoned.into_inner();
                guard.0.clear();
                guard.1.clear();
                guard
            }
        }
    }

    /// Returns the recipe for `(tree, policy, grouping)`, building and
    /// caching it on first use. `structure` must be `tree`'s serialized
    /// structure (callers have it at hand; passing it avoids re-serializing
    /// on every lookup). The boolean reports whether this was a cache hit.
    ///
    /// A hit is only returned when the cached entry's structure bytes are
    /// **equal** to `structure` — the 64-bit key hash alone is never
    /// trusted. On a genuine hash collision the recipe is rebuilt for the
    /// caller's tree, the colliding entry is replaced, and the lookup
    /// counts as a miss (plus a collision in [`CacheStats`]).
    pub fn get_or_build(
        &self,
        tree: &Arc<AmrTree>,
        structure: &[u8],
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> (Arc<RestoreRecipe>, bool) {
        let key = cache_key(structure, policy, grouping);
        let found = self.lookup_with(key, structure, tree, false);
        (found.recipe, found.hit)
    }

    /// [`RecipeCache::get_or_build`] for a writer: on a miss it also hands
    /// back what the build's walk knows of every stream point
    /// ([`RestoreRecipe::build_keyed`]), so the chunk plan need not walk
    /// the tree again. `None` on a hit.
    pub(crate) fn get_or_build_with_keys(
        &self,
        tree: &Arc<AmrTree>,
        structure: &[u8],
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> (Arc<RestoreRecipe>, bool, Option<StreamKeys>) {
        let key = cache_key(structure, policy, grouping);
        let found = self.lookup_with(key, structure, tree, true);
        (found.recipe, found.hit, found.keys)
    }

    /// The tree and recipe of `structure` for a reader, decoding the tree
    /// ([`AmrTree::from_structure_bytes`]) and building the recipe only on
    /// a miss. A hit hands out the tree the entry was built over, so a
    /// warm open decodes nothing. A reader plans no chunks, so its build
    /// records no [`StreamKeys`].
    pub(crate) fn get_or_decode(
        &self,
        structure: &[u8],
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> Result<(Arc<AmrTree>, Arc<RestoreRecipe>, bool), AmrError> {
        let key = cache_key(structure, policy, grouping);
        let decode = || AmrTree::from_structure_bytes(structure).map(Arc::new);
        let found = self.lookup(key, structure, decode, false)?;
        Ok((found.tree, found.recipe, found.hit))
    }

    /// [`RecipeCache::lookup`] over a tree the caller already holds.
    fn lookup_with(&self, key: Key, structure: &[u8], tree: &Arc<AmrTree>, keyed: bool) -> Lookup {
        let given = || Ok::<_, std::convert::Infallible>(Arc::clone(tree));
        match self.lookup(key, structure, given, keyed) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// The lookup behind every entry point, with the key precomputed (so
    /// tests can force a key collision without searching for real FNV
    /// collisions) and the tree obtained from `tree` only on a miss. A
    /// `keyed` miss builds with [`RestoreRecipe::build_keyed`] and hands
    /// the keys out; any other miss builds the recipe alone.
    fn lookup<E>(
        &self,
        key: Key,
        structure: &[u8],
        tree: impl FnOnce() -> Result<Arc<AmrTree>, E>,
        keyed: bool,
    ) -> Result<Lookup, E> {
        let mut collided = false;
        if let Some(entry) = self.lock_map().0.get(&key) {
            if entry.structure[..] == *structure {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Lookup {
                    tree: Arc::clone(&entry.tree),
                    recipe: Arc::clone(&entry.recipe),
                    hit: true,
                    keys: None,
                });
            }
            // Same 64-bit hash, same length, different bytes: a real
            // collision. Fall through and rebuild for the caller's tree.
            collided = true;
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        // Decode and build outside the lock: each walks every cell, the
        // cost this cache exists to amortize.
        let tree = tree()?;
        let (recipe, keys) = if keyed {
            let (recipe, keys) = RestoreRecipe::build_keyed(&tree, key.policy, key.grouping);
            (recipe, Some(keys))
        } else {
            (RestoreRecipe::build(&tree, key.policy, key.grouping), None)
        };
        let recipe = Arc::new(recipe);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Entry {
            structure: structure.into(),
            tree: Arc::clone(&tree),
            recipe: Arc::clone(&recipe),
        };
        let mut guard = self.lock_map();
        let (map, order) = &mut *guard;
        if collided || !map.contains_key(&key) {
            if !map.contains_key(&key) && map.len() >= self.capacity {
                let evict = order.remove(0);
                map.remove(&evict);
            }
            if map.insert(key, entry).is_none() {
                order.push(key);
            }
        }
        Ok(Lookup {
            tree,
            recipe,
            hit: false,
            keys,
        })
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            entries: self.lock_map().0.len(),
        }
    }

    /// Drops every cached recipe (counters are kept).
    pub fn clear(&self) {
        let mut guard = self.lock_map();
        guard.0.clear();
        guard.1.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmesh_amr::Dim;

    fn tree(side: usize) -> Arc<AmrTree> {
        Arc::new(AmrTree::uniform(Dim::D2, [side, side, 1]).unwrap())
    }

    #[test]
    fn second_lookup_hits_and_shares_the_recipe() {
        let cache = RecipeCache::new();
        let t = tree(8);
        let s = t.structure_bytes();
        let (a, hit_a) =
            cache.get_or_build(&t, &s, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        let (b, hit_b) =
            cache.get_or_build(&t, &s, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                collisions: 0,
                poison_recoveries: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn only_a_miss_hands_out_the_build_keys() {
        let cache = RecipeCache::new();
        let t = tree(8);
        let s = t.structure_bytes();
        let (policy, grouping) = (OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        let (_, hit, keys) = cache.get_or_build_with_keys(&t, &s, policy, grouping);
        assert!(!hit);
        assert_eq!(
            keys,
            Some(RestoreRecipe::build_keyed(&t, policy, grouping).1)
        );
        let (_, hit, keys) = cache.get_or_build_with_keys(&t, &s, policy, grouping);
        assert!(hit && keys.is_none());
        let level = OrderingPolicy::LevelOrder;
        let (_, hit, keys) = cache.get_or_build_with_keys(&t, &s, level, grouping);
        assert!(!hit && keys.is_some_and(|k| k.curve.is_none()));
        // A reader's miss and a plain build key nothing, and build the
        // same recipe the keyed build would.
        let z = OrderingPolicy::ZOrder;
        let decode = || AmrTree::from_structure_bytes(&s).map(Arc::new);
        let read = cache
            .lookup(cache_key(&s, z, grouping), &s, decode, false)
            .unwrap();
        assert!(!read.hit && read.keys.is_none());
        assert_eq!(*read.recipe, RestoreRecipe::build_keyed(&t, z, grouping).0);
        let plain = cache.lookup_with(cache_key(&s, z, GroupingMode::Chained), &s, &t, false);
        assert!(!plain.hit && plain.keys.is_none());
    }

    #[test]
    fn a_warm_decode_shares_the_first_tree() {
        let cache = RecipeCache::new();
        let t = tree(8);
        let s = t.structure_bytes();
        let (policy, grouping) = (OrderingPolicy::Hilbert, GroupingMode::Chained);
        let (cold, recipe, hit) = cache.get_or_decode(&s, policy, grouping).unwrap();
        assert!(!hit);
        assert_eq!(cold.cells(), t.cells());
        let (warm, again, hit) = cache.get_or_decode(&s, policy, grouping).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm) && Arc::ptr_eq(&recipe, &again));
        // A writer's lookup over its own tree is served the same recipe.
        let (from_writer, hit) = cache.get_or_build(&t, &s, policy, grouping);
        assert!(hit && Arc::ptr_eq(&from_writer, &recipe));
        // Structure bytes that do not decode cache nothing.
        let bad = &s[..s.len() - 1];
        assert!(cache.get_or_decode(bad, policy, grouping).is_err());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn distinct_policies_and_structures_do_not_collide() {
        let cache = RecipeCache::new();
        let t8 = tree(8);
        let t4 = tree(4);
        let (s8, s4) = (t8.structure_bytes(), t4.structure_bytes());
        let (a, _) = cache.get_or_build(&t8, &s8, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        let (b, _) = cache.get_or_build(&t8, &s8, OrderingPolicy::ZOrder, GroupingMode::LeafOnly);
        let (c, _) = cache.get_or_build(&t4, &s4, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.len(), c.len());
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn hash_collision_rebuilds_instead_of_returning_the_wrong_recipe() {
        // Two different trees whose serialized structures we *pretend*
        // hash identically (forged key): the verified-hit path must spot
        // the byte mismatch, rebuild for the caller's tree, and count a
        // collision — never hand tree A's recipe to tree B.
        let cache = RecipeCache::new();
        let t8 = tree(8);
        let t4 = tree(4);
        let (s8, s4) = (t8.structure_bytes(), t4.structure_bytes());
        let forged = Key {
            structure_hash: 0xdead_beef,
            structure_len: 0, // shared by construction: lengths differ too
            policy: OrderingPolicy::Hilbert,
            grouping: GroupingMode::LeafOnly,
        };
        let a = cache.lookup_with(forged, &s8, &t8, false);
        let b = cache.lookup_with(forged, &s4, &t4, false);
        let (hit_a, hit_b, a, b) = (a.hit, b.hit, a.recipe, b.recipe);
        assert!(!hit_a);
        assert!(!hit_b, "collision must not be reported as a hit");
        assert_eq!(a.len(), t8.leaf_count());
        assert_eq!(b.len(), t4.leaf_count(), "got the colliding tree's recipe");
        let stats = cache.stats();
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(
            stats.entries, 1,
            "colliding entry is replaced, not duplicated"
        );
        // The replacement now serves t4 as a verified hit.
        let c = cache.lookup_with(forged, &s4, &t4, false);
        assert!(c.hit && Arc::ptr_eq(&c.tree, &t4));
    }

    #[test]
    fn a_trailing_partial_word_enters_the_key() {
        // Lengths that leave 1..=7 bytes after the last whole word, and
        // structures that differ only in the last of those bytes (or only
        // in length): each must miss the other, not collide.
        let t = tree(8);
        let (policy, grouping) = (OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        for len in (0..24).filter(|len| len % 8 != 0) {
            let mut a: Vec<u8> = (0..len).map(|i| (i * 37 + 1) as u8).collect();
            let mut b = a.clone();
            *b.last_mut().unwrap() ^= 0x80;
            assert_ne!(fnv1a(&a), fnv1a(&b), "len {len}");
            let cache = RecipeCache::new();
            for s in [&a, &b] {
                let found = cache.lookup_with(cache_key(s, policy, grouping), s, &t, false);
                assert!(!found.hit, "len {len}");
            }
            a.push(0);
            let found = cache.lookup_with(cache_key(&a, policy, grouping), &a, &t, false);
            assert!(!found.hit, "len {len} + a zero byte");
            let stats = cache.stats();
            assert_eq!((stats.misses, stats.collisions), (3, 0), "len {len}");
        }
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_propagating() {
        let cache = Arc::new(RecipeCache::new());
        let t = tree(8);
        let s = t.structure_bytes();
        // Warm the cache so there is something to lose.
        cache.get_or_build(&t, &s, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);

        // Poison the mutex: a thread panics while holding the lock.
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().unwrap();
            panic!("deliberate panic while holding the cache lock");
        })
        .join();
        assert!(cache.map.is_poisoned());

        // Every entry point must keep working. The poisoned map was
        // cleared, so the first lookup is a rebuild, the second a hit.
        let (a, hit) = cache.get_or_build(&t, &s, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        assert!(!hit, "recovery clears the cache, so this must rebuild");
        assert_eq!(a.len(), t.leaf_count());
        let (_, hit) = cache.get_or_build(&t, &s, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        assert!(hit);
        let stats = cache.stats();
        assert!(stats.poison_recoveries >= 1);
        assert_eq!(stats.entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(!cache.map.is_poisoned());
    }

    #[test]
    fn capacity_bounds_the_cache() {
        let cache = RecipeCache::with_capacity(2);
        for side in [2usize, 4, 8, 16] {
            let t = tree(side);
            let s = t.structure_bytes();
            cache.get_or_build(&t, &s, OrderingPolicy::ZOrder, GroupingMode::LeafOnly);
        }
        assert_eq!(cache.stats().entries, 2);
        // Most recent entry survives FIFO eviction.
        let t = tree(16);
        let s = t.structure_bytes();
        let (_, hit) = cache.get_or_build(&t, &s, OrderingPolicy::ZOrder, GroupingMode::LeafOnly);
        assert!(hit);
    }
}

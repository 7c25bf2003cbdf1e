//! The recipe cache: reuse one restore recipe across fields, timesteps,
//! and readers that share a mesh.
//!
//! zMesh's recipe is a pure function of `(tree structure, policy,
//! grouping)`. Building it costs a walk over every cell; cloning
//! an `Arc` costs nothing. Multi-field and time-series workloads hit the
//! same tree structure over and over, so the cache keys recipes by a hash
//! of the serialized structure and hands out shared references — the
//! paper's "recipe amortization" made explicit across pipeline calls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use zmesh::{GroupingMode, OrderingPolicy, RestoreRecipe};
use zmesh_amr::AmrTree;

/// FNV-1a over the serialized tree structure — stable, dependency-free,
/// and 64 bits is plenty for a cache key *because hits are verified*: the
/// entry keeps the structure bytes it was built from and a lookup compares
/// them before handing the recipe out, so a hash collision costs exactly
/// one rebuild instead of silently returning the wrong permutation (see
/// [`RecipeCache::get_or_build`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
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

/// A cached recipe plus the exact structure bytes it was built from (kept
/// so hits can be verified instead of trusting the 64-bit hash).
#[derive(Debug, Clone)]
struct Entry {
    structure: Arc<[u8]>,
    recipe: Arc<RestoreRecipe>,
}

/// Hit/miss counters of a [`RecipeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a recipe.
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

/// A bounded, thread-safe cache of restore recipes keyed by tree
/// structure, ordering policy, and grouping mode.
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
        tree: &AmrTree,
        structure: &[u8],
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> (Arc<RestoreRecipe>, bool) {
        let (recipe, hit, _) = self.lookup(cache_key(structure, policy, grouping), tree, structure);
        (recipe, hit)
    }

    /// [`RecipeCache::get_or_build`] for a writer: on a miss it also hands
    /// back the stream points' curve keys from the build's walk
    /// ([`RestoreRecipe::build_keyed`]), so the chunk plan need not walk
    /// the tree again. `None` on a hit and under level order.
    pub(crate) fn get_or_build_with_keys(
        &self,
        tree: &AmrTree,
        structure: &[u8],
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> (Arc<RestoreRecipe>, bool, Option<Vec<u64>>) {
        self.lookup(cache_key(structure, policy, grouping), tree, structure)
    }

    /// The lookup behind both entry points, with the key precomputed (so
    /// tests can force a key collision without searching for real FNV
    /// collisions).
    fn lookup(
        &self,
        key: Key,
        tree: &AmrTree,
        structure: &[u8],
    ) -> (Arc<RestoreRecipe>, bool, Option<Vec<u64>>) {
        let mut collided = false;
        if let Some(entry) = self.lock_map().0.get(&key) {
            if entry.structure[..] == *structure {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(&entry.recipe), true, None);
            }
            // Same 64-bit hash, same length, different bytes: a real
            // collision. Fall through and rebuild for the caller's tree.
            collided = true;
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        // Build outside the lock: the build walks every cell, the cost
        // this cache exists to amortize.
        let (recipe, keys) = RestoreRecipe::build_keyed(tree, key.policy, key.grouping);
        let recipe = Arc::new(recipe);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Entry {
            structure: structure.into(),
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
        (recipe, false, keys)
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

    fn tree(side: usize) -> AmrTree {
        AmrTree::uniform(Dim::D2, [side, side, 1]).unwrap()
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
        assert_eq!(keys, RestoreRecipe::build_keyed(&t, policy, grouping).1);
        let (_, hit, keys) = cache.get_or_build_with_keys(&t, &s, policy, grouping);
        assert!(hit && keys.is_none());
        let level = OrderingPolicy::LevelOrder;
        let (_, hit, keys) = cache.get_or_build_with_keys(&t, &s, level, grouping);
        assert!(!hit && keys.is_none());
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
        let (a, hit_a, _) = cache.lookup(forged, &t8, &s8);
        let (b, hit_b, _) = cache.lookup(forged, &t4, &s4);
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
        let (_, hit_c, _) = cache.lookup(forged, &t4, &s4);
        assert!(hit_c);
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

//! The store catalog: every `*.zms` under one directory, opened once —
//! plus the per-store **health state machine** behind degraded-mode
//! serving.
//!
//! Opening a store parses and CRC-checks the footer, rebuilds the tree,
//! and regenerates the restore recipe — work worth paying exactly once
//! per store, not per request. The catalog does that on startup and on
//! explicit refresh (`GET /catalog?refresh=1`), holding each store as a
//! ready [`StoreReader`] over a ranged [`FileSource`]. All readers share
//! one process-wide [`RecipeCache`] (structure-identical stores reuse one
//! recipe) and one size-bounded decoded-chunk [`ChunkCache`].
//!
//! Each opened reader gets a fresh, unique `store_key` for the chunk
//! cache. A refresh that reopens a changed file therefore never observes
//! stale cached chunks — entries under the old key simply age out of the
//! LRU.
//!
//! A file that fails to open stays in the catalog as a broken entry
//! carrying its error message: it is listed (so operators see it) and
//! requests against it are quarantined instead of vanishing as a 404.
//!
//! ## Health states
//!
//! Health lives *beside* the entry map (keyed by store id), so a refresh
//! that swaps an entry does not silently forget that the store was
//! misbehaving:
//!
//! ```text
//!            CRC damage observed            open / torn / persistent-I/O
//! Healthy ──────────────────────► Degraded ──────────────────────────┐
//!    ▲  ▲                            │                               ▼
//!    │  │                            └──────────────────────► Quarantined
//!    │  └── clean reopen on refresh (file replaced)                  │
//!    └────────────────── clean background probe ◄────────────────────┘
//!                        (decorrelated-jitter backoff)
//! ```
//!
//! * **Degraded** — a query hit chunk-level CRC damage. Queries keep
//!   being served, re-run under [`zmesh_store::ReadPolicy::Salvage`];
//!   the daemon reports what was repaired or lost per response.
//! * **Quarantined** — the store failed at container level (failed
//!   open, torn commit, I/O error that outlasted the retry budget).
//!   Queries answer `503` with a `Retry-After` reflecting the actual
//!   probe backoff; [`Catalog::probe_quarantined`] re-opens the file in
//!   the background and reinstates the store on a clean probe.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant, SystemTime};

use rand::Rng;

use zmesh_store::{
    ByteSource, ChunkCache, ChunkCacheStats, FileSource, RecipeCache, StoreError, StoreReader,
};

#[cfg(feature = "testing")]
use zmesh_store::faultinject::{FaultSource, FaultSpec, FaultStats};

/// Default decoded-chunk LRU budget: 64 MiB of f64 payload.
pub const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// First probe delay after a store is quarantined.
pub const PROBE_BACKOFF_BASE: Duration = Duration::from_millis(250);
/// Ceiling on the decorrelated-jitter probe backoff.
pub const PROBE_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// The byte source every catalog reader runs over: a plain ranged file,
/// or (testing builds only) the same file wrapped in a deterministic
/// [`FaultSource`] driven by the daemon's `--fault-plan`.
pub enum ServeSource {
    /// Normal operation: positioned reads against the store file.
    Plain(FileSource),
    /// Chaos harness: every read goes through the fault plan first.
    #[cfg(feature = "testing")]
    Fault(FaultSource<FileSource>),
}

impl ServeSource {
    /// Injection counters, when this source is fault-wrapped.
    #[cfg(feature = "testing")]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault().map(FaultSource::stats)
    }

    /// The fault wrapper, when this source has one.
    #[cfg(feature = "testing")]
    pub fn fault(&self) -> Option<&FaultSource<FileSource>> {
        match self {
            ServeSource::Plain(_) => None,
            ServeSource::Fault(f) => Some(f),
        }
    }
}

impl ByteSource for ServeSource {
    fn len(&self) -> u64 {
        match self {
            ServeSource::Plain(s) => s.len(),
            #[cfg(feature = "testing")]
            ServeSource::Fault(s) => s.len(),
        }
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        match self {
            ServeSource::Plain(s) => s.read_at(offset, buf),
            #[cfg(feature = "testing")]
            ServeSource::Fault(s) => s.read_at(offset, buf),
        }
    }

    fn bytes_read(&self) -> u64 {
        match self {
            ServeSource::Plain(s) => s.bytes_read(),
            #[cfg(feature = "testing")]
            ServeSource::Fault(s) => s.bytes_read(),
        }
    }

    fn read_calls(&self) -> u64 {
        match self {
            ServeSource::Plain(s) => s.read_calls(),
            #[cfg(feature = "testing")]
            ServeSource::Fault(s) => s.read_calls(),
        }
    }
}

/// One `*.zms` file under the catalog directory.
pub struct CatalogEntry {
    /// Catalog id: the file stem (`run_0042.zms` → `run_0042`).
    pub id: String,
    /// Absolute or directory-relative path of the file.
    pub path: PathBuf,
    /// File size at open time.
    pub file_bytes: u64,
    /// Modification time at open time (drives refresh invalidation).
    pub mtime: Option<SystemTime>,
    /// The opened reader, or the open error (kept so requests can report
    /// why the store is unavailable).
    pub store: Result<OpenedStore, StoreError>,
}

/// A successfully opened store plus its chunk-cache identity.
pub struct OpenedStore {
    /// Ranged reader; shared read-only across all worker threads.
    pub reader: StoreReader<ServeSource>,
    /// This open's unique key into the shared decoded-chunk cache.
    pub store_key: u64,
}

/// Per-store serving state. `Healthy` stores have no record at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving strict reads normally.
    Healthy,
    /// Chunk-level damage observed; queries run under salvage.
    Degraded,
    /// Container-level failure; queries answer `503` until a clean probe.
    Quarantined,
}

impl HealthState {
    /// Lower-case label for JSON output.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
        }
    }
}

/// Snapshot of one store's health for routing and the `/catalog` view.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current state.
    pub state: HealthState,
    /// What pushed the store out of `Healthy`, when anything did.
    pub reason: Option<String>,
    /// For quarantined stores: time until the next scheduled probe —
    /// what `Retry-After` should advertise.
    pub retry_after: Duration,
}

/// Internal per-store record (absent ⇔ healthy).
struct HealthRecord {
    state: HealthState,
    reason: String,
    /// Last chosen probe delay (decorrelated jitter feeds on it).
    backoff: Duration,
    next_probe: Instant,
}

/// Directory scan + shared caches + health map. Cheap to share: lookups
/// clone an `Arc<CatalogEntry>` out of the read-locked map.
pub struct Catalog {
    dir: PathBuf,
    recipes: RecipeCache,
    chunks: Arc<ChunkCache>,
    stores: RwLock<BTreeMap<String, Arc<CatalogEntry>>>,
    next_key: AtomicU64,
    health: Mutex<BTreeMap<String, HealthRecord>>,
    /// Transient-read retries accumulated by readers that have since
    /// been dropped (refresh replacement, probe reinstatement). Live
    /// readers report their own counters; [`Catalog::io_retries`] is the
    /// sum of both, so the metric never goes backwards.
    retired_retries: AtomicU64,
    #[cfg(feature = "testing")]
    fault_plan: Option<FaultSpec>,
}

impl Catalog {
    /// Creates a catalog over `dir` with a decoded-chunk budget of
    /// `cache_bytes`, then performs the initial scan.
    pub fn open(dir: impl Into<PathBuf>, cache_bytes: u64) -> std::io::Result<Self> {
        let catalog = Self {
            dir: dir.into(),
            recipes: RecipeCache::new(),
            chunks: Arc::new(ChunkCache::new(cache_bytes)),
            stores: RwLock::new(BTreeMap::new()),
            next_key: AtomicU64::new(0),
            health: Mutex::new(BTreeMap::new()),
            retired_retries: AtomicU64::new(0),
            #[cfg(feature = "testing")]
            fault_plan: None,
        };
        catalog.refresh()?;
        Ok(catalog)
    }

    /// [`Catalog::open`] with a fault plan: every store whose id the plan
    /// matches is opened over a [`FaultSource`]. Chaos harness only.
    #[cfg(feature = "testing")]
    pub fn open_with_faults(
        dir: impl Into<PathBuf>,
        cache_bytes: u64,
        plan: Option<FaultSpec>,
    ) -> std::io::Result<Self> {
        let mut catalog = Self {
            dir: dir.into(),
            recipes: RecipeCache::new(),
            chunks: Arc::new(ChunkCache::new(cache_bytes)),
            stores: RwLock::new(BTreeMap::new()),
            next_key: AtomicU64::new(0),
            health: Mutex::new(BTreeMap::new()),
            retired_retries: AtomicU64::new(0),
            fault_plan: None,
        };
        catalog.fault_plan = plan.filter(|p| p.is_active());
        catalog.refresh()?;
        Ok(catalog)
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared decoded-chunk cache.
    pub fn chunk_cache(&self) -> &Arc<ChunkCache> {
        &self.chunks
    }

    /// Decoded-chunk cache counters.
    pub fn chunk_stats(&self) -> ChunkCacheStats {
        self.chunks.stats()
    }

    /// Recipe cache counters.
    pub fn recipe_stats(&self) -> zmesh_store::CacheStats {
        self.recipes.stats()
    }

    /// Looks up a store by id.
    pub fn get(&self, id: &str) -> Option<Arc<CatalogEntry>> {
        self.stores
            .read()
            .expect("catalog lock poisoned")
            .get(id)
            .cloned()
    }

    /// All entries, id-ordered.
    pub fn entries(&self) -> Vec<Arc<CatalogEntry>> {
        self.stores
            .read()
            .expect("catalog lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of listed stores (including broken ones).
    pub fn len(&self) -> usize {
        self.stores.read().expect("catalog lock poisoned").len()
    }

    /// Whether the scan found no stores at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transient-read retries across the catalog's lifetime: live
    /// readers' counters plus everything folded in from dropped readers.
    pub fn io_retries(&self) -> u64 {
        let live: u64 = self
            .entries()
            .iter()
            .filter_map(|e| e.store.as_ref().ok())
            .map(|o| o.reader.retry_stats().retries)
            .sum();
        live + self.retired_retries.load(Ordering::Relaxed)
    }

    /// One store's health snapshot (no record ⇔ healthy).
    pub fn health(&self, id: &str) -> HealthReport {
        let map = self.health.lock().expect("health lock poisoned");
        match map.get(id) {
            None => HealthReport {
                state: HealthState::Healthy,
                reason: None,
                retry_after: Duration::ZERO,
            },
            Some(rec) => HealthReport {
                state: rec.state,
                reason: Some(rec.reason.clone()),
                retry_after: rec.next_probe.saturating_duration_since(Instant::now()),
            },
        }
    }

    /// `(degraded, quarantined)` store counts — the `/healthz` gauges.
    pub fn health_counts(&self) -> (usize, usize) {
        let map = self.health.lock().expect("health lock poisoned");
        let degraded = map
            .values()
            .filter(|r| r.state == HealthState::Degraded)
            .count();
        (degraded, map.len() - degraded)
    }

    /// Records chunk-level damage: `Healthy → Degraded`. Never downgrades
    /// a quarantined store. Returns whether the state actually changed.
    pub fn mark_degraded(&self, id: &str, reason: &str) -> bool {
        let mut map = self.health.lock().expect("health lock poisoned");
        if map.contains_key(id) {
            return false;
        }
        map.insert(
            id.to_string(),
            HealthRecord {
                state: HealthState::Degraded,
                reason: reason.to_string(),
                backoff: Duration::ZERO,
                next_probe: Instant::now(),
            },
        );
        true
    }

    /// Records a container-level failure: `* → Quarantined`, first probe
    /// after [`PROBE_BACKOFF_BASE`].
    pub fn quarantine(&self, id: &str, reason: &str) {
        let mut map = self.health.lock().expect("health lock poisoned");
        let rec = map.entry(id.to_string()).or_insert(HealthRecord {
            state: HealthState::Quarantined,
            reason: String::new(),
            backoff: Duration::ZERO,
            next_probe: Instant::now(),
        });
        if rec.state != HealthState::Quarantined {
            rec.backoff = Duration::ZERO;
        }
        rec.state = HealthState::Quarantined;
        rec.reason = reason.to_string();
        if rec.backoff.is_zero() {
            rec.backoff = PROBE_BACKOFF_BASE;
            rec.next_probe = Instant::now() + rec.backoff;
        }
    }

    /// Clears a store's health record (back to `Healthy`).
    pub fn reinstate(&self, id: &str) {
        self.health.lock().expect("health lock poisoned").remove(id);
    }

    /// Probes every quarantined store whose backoff has elapsed: re-opens
    /// the file from scratch; a clean open replaces the catalog entry and
    /// reinstates the store, a failed one reschedules the probe with
    /// decorrelated jitter (`next = min(cap, uniform(base, 3·prev))`).
    /// Returns the number of probes attempted. File opens run with no
    /// lock held.
    pub fn probe_quarantined(&self) -> usize {
        let now = Instant::now();
        let due: Vec<String> = {
            let map = self.health.lock().expect("health lock poisoned");
            map.iter()
                .filter(|(_, r)| r.state == HealthState::Quarantined && r.next_probe <= now)
                .map(|(id, _)| id.clone())
                .collect()
        };
        for id in &due {
            let Some(entry) = self.get(id) else {
                // The file left the catalog; nothing to watch anymore.
                self.reinstate(id);
                continue;
            };
            match self.open_entry(id.clone(), entry.path.clone()) {
                Ok(fresh) if fresh.store.is_ok() => {
                    self.install(fresh);
                    self.reinstate(id);
                }
                other => {
                    let reason = match &other {
                        Ok(fresh) => match &fresh.store {
                            Err(e) => e.to_string(),
                            Ok(_) => unreachable!("guarded above"),
                        },
                        Err(e) => e.to_string(),
                    };
                    let mut map = self.health.lock().expect("health lock poisoned");
                    if let Some(rec) = map.get_mut(id) {
                        let lo = PROBE_BACKOFF_BASE;
                        let hi = (rec.backoff * 3).max(lo).min(PROBE_BACKOFF_CAP);
                        let jittered = if hi > lo {
                            let span = (hi - lo).as_millis() as u64;
                            lo + Duration::from_millis(rand::thread_rng().gen_range(0..span + 1))
                        } else {
                            lo
                        };
                        rec.backoff = jittered;
                        rec.next_probe = Instant::now() + jittered;
                        rec.reason = reason;
                    }
                }
            }
        }
        due.len()
    }

    /// Rescans the directory: new files are opened, files whose
    /// `(len, mtime)` changed are reopened under a fresh chunk-cache key,
    /// unchanged files keep their existing reader, removed files drop
    /// out. Returns the number of (re)opened stores.
    ///
    /// **Never stalls concurrent queries**: the directory scan and every
    /// store open happen with *no lock held* (the old map is cloned out
    /// under the read lock first); the write lock is taken exactly once,
    /// for an O(1) map swap at the end. A refresh of a large catalog can
    /// take seconds of open work without a single query blocking on it.
    ///
    /// A changed file that reopens cleanly also clears the store's
    /// health record — `zmesh repair` + refresh is a recovery path.
    /// Concurrent refreshes are safe but may both open a changed file;
    /// the map insert is last-writer-wins and the loser's reader is just
    /// dropped.
    pub fn refresh(&self) -> std::io::Result<usize> {
        let old: BTreeMap<String, Arc<CatalogEntry>> =
            self.stores.read().expect("catalog lock poisoned").clone();
        let mut fresh = BTreeMap::new();
        let mut opened = 0;
        let mut reopened_ok: Vec<String> = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("zms") {
                continue;
            }
            let Some(id) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                continue;
            };
            let meta = std::fs::metadata(&path).ok();
            let file_bytes = meta.as_ref().map_or(0, |m| m.len());
            let mtime = meta.and_then(|m| m.modified().ok());
            if let Some(existing) = old.get(&id) {
                let unchanged = existing.path == path
                    && existing.file_bytes == file_bytes
                    && existing.mtime == mtime
                    && existing.store.is_ok();
                if unchanged {
                    fresh.insert(id, Arc::clone(existing));
                    continue;
                }
            }
            let entry = Arc::new(CatalogEntry {
                id: id.clone(),
                path: path.clone(),
                file_bytes,
                mtime,
                store: self.open_store(&id, &path),
            });
            opened += 1;
            if entry.store.is_ok() {
                reopened_ok.push(id.clone());
            }
            fresh.insert(id, entry);
        }
        // Readers being replaced or removed take their retry counters
        // with them; fold those into the retired sum first.
        for (id, entry) in &old {
            let survives = fresh.get(id).is_some_and(|f| Arc::ptr_eq(f, entry));
            if !survives {
                if let Ok(opened) = entry.store.as_ref() {
                    self.retire_reader(&opened.reader);
                }
            }
        }
        {
            let mut health = self.health.lock().expect("health lock poisoned");
            for id in &reopened_ok {
                health.remove(id);
            }
            // Drop records for stores no longer listed.
            health.retain(|id, _| fresh.contains_key(id));
        }
        *self.stores.write().expect("catalog lock poisoned") = fresh;
        Ok(opened)
    }

    /// Opens one store file into a ready entry (no locks held).
    fn open_entry(&self, id: String, path: PathBuf) -> std::io::Result<Arc<CatalogEntry>> {
        let meta = std::fs::metadata(&path).ok();
        let file_bytes = meta.as_ref().map_or(0, |m| m.len());
        let mtime = meta.and_then(|m| m.modified().ok());
        let store = self.open_store(&id, &path);
        Ok(Arc::new(CatalogEntry {
            id,
            path,
            file_bytes,
            mtime,
            store,
        }))
    }

    /// Swaps one entry into the map, folding the replaced reader's retry
    /// counter into the retired sum.
    fn install(&self, entry: Arc<CatalogEntry>) {
        let mut map = self.stores.write().expect("catalog lock poisoned");
        if let Some(old) = map.insert(entry.id.clone(), entry) {
            if let Ok(opened) = old.store.as_ref() {
                self.retire_reader(&opened.reader);
            }
        }
    }

    fn retire_reader(&self, reader: &StoreReader<ServeSource>) {
        self.retired_retries
            .fetch_add(reader.retry_stats().retries, Ordering::Relaxed);
    }

    /// Opens `path` as a reader over the shared caches, wrapping it in
    /// the fault plan when one is active for this id.
    fn open_store(&self, id: &str, path: &Path) -> Result<OpenedStore, StoreError> {
        let store_key = self.next_key.fetch_add(1, Ordering::Relaxed);
        self.open_source_for(id, path)
            .and_then(|src| StoreReader::open_source_with_cache(src, &self.recipes))
            .map(|reader| OpenedStore {
                reader: reader.with_chunk_cache(Arc::clone(&self.chunks), store_key),
                store_key,
            })
    }

    #[cfg(feature = "testing")]
    fn open_source_for(&self, id: &str, path: &Path) -> Result<ServeSource, StoreError> {
        let file = FileSource::open(path)?;
        match &self.fault_plan {
            Some(plan) if plan.applies_to(id) => {
                Ok(ServeSource::Fault(FaultSource::new(file, plan.clone())))
            }
            _ => Ok(ServeSource::Plain(file)),
        }
    }

    #[cfg(not(feature = "testing"))]
    fn open_source_for(&self, _id: &str, path: &Path) -> Result<ServeSource, StoreError> {
        FileSource::open(path).map(ServeSource::Plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmesh::CompressionConfig;
    use zmesh_amr::{datasets, StorageMode};
    use zmesh_store::{persist_store, Query, StoreWriter};

    fn pack_into(dir: &Path, name: &str) {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields: Vec<(&str, &zmesh_amr::AmrField)> =
            ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
        let store = StoreWriter::new(CompressionConfig::zmesh_default())
            .write(&fields)
            .expect("pack");
        persist_store(&store.bytes, &dir.join(name)).expect("persist");
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zmesh_serve_catalog_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn scans_opens_and_queries_through_the_shared_caches() {
        let dir = tempdir("scan");
        pack_into(&dir, "alpha.zms");
        pack_into(&dir, "beta.zms");
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let catalog = Catalog::open(&dir, DEFAULT_CACHE_BYTES).expect("open catalog");
        assert_eq!(catalog.len(), 2);
        let alpha = catalog.get("alpha").expect("alpha listed");
        let opened = alpha.store.as_ref().expect("alpha opens");
        let q = Query::bbox([0, 0, 0], [7, 7, 0]);
        let first = opened.reader.query("density", &q).expect("query");
        let second = opened.reader.query("density", &q).expect("query again");
        assert_eq!(first.values, second.values);
        let stats = catalog.chunk_stats();
        assert!(stats.hits > 0, "repeat query must hit the chunk cache");

        // Two structure-identical stores share one restore recipe.
        let recipe = catalog.recipe_stats();
        assert_eq!(recipe.misses, 1, "one recipe build for both stores");
        assert!(recipe.hits >= 1);

        // Distinct store keys were handed out.
        let beta = catalog.get("beta").expect("beta listed");
        assert_ne!(
            opened.store_key,
            beta.store.as_ref().expect("beta opens").store_key
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_keeps_unchanged_reopens_changed_and_drops_removed() {
        let dir = tempdir("refresh");
        pack_into(&dir, "keep.zms");
        pack_into(&dir, "gone.zms");
        let catalog = Catalog::open(&dir, DEFAULT_CACHE_BYTES).expect("open catalog");
        let keep_key = catalog
            .get("keep")
            .unwrap()
            .store
            .as_ref()
            .expect("opens")
            .store_key;

        // Unchanged file keeps its reader; removed file drops out; a new
        // file appears.
        std::fs::remove_file(dir.join("gone.zms")).unwrap();
        pack_into(&dir, "new.zms");
        catalog.refresh().expect("refresh");
        assert!(catalog.get("gone").is_none());
        assert!(catalog.get("new").is_some());
        assert_eq!(
            catalog
                .get("keep")
                .unwrap()
                .store
                .as_ref()
                .expect("opens")
                .store_key,
            keep_key,
            "unchanged store must keep its reader and cache key"
        );

        // A truncated (corrupt) file becomes a broken entry, still listed.
        let bytes = std::fs::read(dir.join("keep.zms")).unwrap();
        std::fs::write(dir.join("keep.zms"), &bytes[..bytes.len() / 2]).unwrap();
        catalog.refresh().expect("refresh");
        let broken = catalog.get("keep").expect("still listed");
        assert!(broken.store.is_err(), "truncated store records its error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_does_not_stall_concurrent_queries() {
        // The lock-ordering claim behind `refresh`: scan + opens happen
        // with no lock held, so queries on other threads keep being
        // answered while a refresh (re)opens stores. Run a refresh storm
        // against query threads and require every query to succeed —
        // with the map swap being the only write-locked step, no query
        // can observe a half-built catalog or block behind an open.
        let dir = tempdir("nostall");
        for i in 0..4 {
            pack_into(&dir, &format!("s{i}.zms"));
        }
        let catalog = Arc::new(Catalog::open(&dir, DEFAULT_CACHE_BYTES).expect("open catalog"));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut threads = Vec::new();
        for t in 0..3 {
            let catalog = Arc::clone(&catalog);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let q = Query::bbox([0, 0, 0], [7, 7, 0]);
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = format!("s{}", t % 4);
                    let entry = catalog.get(&id).expect("store listed");
                    let opened = entry.store.as_ref().expect("store open");
                    opened.reader.query("density", &q).expect("query");
                    answered += 1;
                }
                answered
            }));
        }
        // Each iteration dirties one file so the refresh really reopens
        // (the expensive path), not just rescans.
        for i in 0..10 {
            let name = format!("s{}.zms", i % 4);
            pack_into(&dir, &name);
            catalog.refresh().expect("refresh");
        }
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            let answered = t.join().expect("query thread");
            assert!(answered > 0, "query thread made progress");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_transitions_and_probe_recovery() {
        let dir = tempdir("health");
        pack_into(&dir, "vol.zms");
        let catalog = Catalog::open(&dir, DEFAULT_CACHE_BYTES).expect("open catalog");
        assert_eq!(catalog.health("vol").state, HealthState::Healthy);
        assert_eq!(catalog.health_counts(), (0, 0));

        assert!(catalog.mark_degraded("vol", "chunk crc"));
        assert!(!catalog.mark_degraded("vol", "again"), "already degraded");
        assert_eq!(catalog.health("vol").state, HealthState::Degraded);
        assert_eq!(catalog.health_counts(), (1, 0));

        // Quarantine overrides degraded; degraded never overrides it back.
        catalog.quarantine("vol", "torn");
        assert!(!catalog.mark_degraded("vol", "crc"));
        let report = catalog.health("vol");
        assert_eq!(report.state, HealthState::Quarantined);
        assert_eq!(report.reason.as_deref(), Some("torn"));
        assert!(report.retry_after <= PROBE_BACKOFF_CAP);
        assert_eq!(catalog.health_counts(), (0, 1));

        // Damage the file so probes keep failing, then wait out the
        // backoff: the probe must fire, fail, and reschedule.
        let clean = std::fs::read(dir.join("vol.zms")).unwrap();
        std::fs::write(dir.join("vol.zms"), &clean[..clean.len() - 16]).unwrap();
        std::thread::sleep(PROBE_BACKOFF_BASE + Duration::from_millis(50));
        assert_eq!(catalog.probe_quarantined(), 1, "backoff elapsed");
        assert_eq!(catalog.health("vol").state, HealthState::Quarantined);

        // Heal the file; the next due probe reinstates the store.
        std::fs::write(dir.join("vol.zms"), &clean).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            catalog.probe_quarantined();
            if catalog.health("vol").state == HealthState::Healthy {
                break;
            }
            assert!(Instant::now() < deadline, "probe never reinstated");
            std::thread::sleep(Duration::from_millis(25));
        }
        let entry = catalog.get("vol").expect("listed");
        assert!(entry.store.is_ok(), "probe replaced the broken entry");
        let q = Query::bbox([0, 0, 0], [7, 7, 0]);
        entry
            .store
            .as_ref()
            .unwrap()
            .reader
            .query("density", &q)
            .expect("reinstated store serves");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "testing")]
    #[test]
    fn fault_plan_wraps_matching_stores_only() {
        let dir = tempdir("faultplan");
        pack_into(&dir, "blast.zms");
        pack_into(&dir, "calm.zms");
        let plan = FaultSpec::parse("seed=3,transient=200,burst=1,match=blast").unwrap();
        let catalog =
            Catalog::open_with_faults(&dir, DEFAULT_CACHE_BYTES, Some(plan)).expect("open catalog");
        let faulty = catalog.get("blast").unwrap();
        let calm = catalog.get("calm").unwrap();
        let faulty = faulty.store.as_ref().expect("opens under retry");
        assert!(
            faulty.reader.source().fault_stats().is_some(),
            "matching store is fault-wrapped"
        );
        assert!(calm
            .store
            .as_ref()
            .expect("opens")
            .reader
            .source()
            .fault_stats()
            .is_none());
        // Queries still succeed (burst 1 < default 3 attempts) and the
        // retries show up in the catalog-wide counter.
        let q = Query::bbox([0, 0, 0], [7, 7, 0]);
        for _ in 0..16 {
            faulty.reader.query("density", &q).expect("retry covers");
        }
        assert!(catalog.io_retries() > 0, "injected faults were retried");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

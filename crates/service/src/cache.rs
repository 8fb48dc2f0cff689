//! The compiled-artifact cache.
//!
//! Every caller-visible quantity a job needs before its first state
//! advance — the lowered statevector op stream, the MPS compilation, the
//! lowered Pauli-frame program with its noiseless reference, and the
//! plan's prefix tree — is memoized here under *stable content hashes*
//! ([`ptsbe_circuit::hash`]), so repeat jobs skip compile and plan work
//! entirely. Entries carry their warm state too: each statevector/MPS
//! entry owns the [`StatePool`] the tree executor forks from, so a warm
//! cache also means an allocation-free tree walk.
//!
//! Correctness note: cached artifacts are *inputs* to executors whose
//! outputs are bitwise functions of (artifact, plan, seed) alone — pool
//! recycling and tree reuse are proven result-neutral by the core test
//! suites — so cache state can never change job output, only job cost.
//! The hit/miss counters ([`CacheStats`]) are the observable the service
//! acceptance tests pin: a warm repeat job increments hits only.
//!
//! The cache can run under a **byte budget**
//! ([`CompileCache::with_budget`]): each entry carries an approximate
//! size (amplitude planes dominate, so the accounting is
//! `O(2^n · size_of::<T>)` for statevector entries and analogous
//! working-set estimates for the rest), and inserting past the budget
//! evicts globally least-recently-used entries — never the one just
//! inserted, so a budget smaller than a single artifact still serves.
//! Eviction is output-neutral by the same argument as warmth: an
//! evicted artifact is recompiled on next use, byte-identically.

use ptsbe_circuit::hash::combine;
use ptsbe_circuit::{FusionStats, NoisyCircuit, StableHasher};
use ptsbe_core::{MpsBackend, PtsPlan, PtsPlanTree, StatePool, SvBackend};
use ptsbe_math::Scalar;
use ptsbe_rng::PhiloxRng;
use ptsbe_stabilizer::FrameSampler;
use ptsbe_statevector::{SamplingStrategy, StateVector};
use ptsbe_tensornet::{Mps, MpsConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A cached statevector compilation: the backend (holding the lowered
/// `Compiled` stream), its fusion report, and a warm fork pool.
pub struct SvEntry<T: Scalar> {
    /// Compiled backend (shared by every executor the router picks).
    pub backend: SvBackend<T>,
    /// Fusion report captured at compile time.
    pub fusion: FusionStats,
    /// Warm state arena for pooled tree walks.
    pub pool: StatePool<StateVector<T>>,
}

/// A cached MPS compilation plus its warm fork pool.
pub struct MpsEntry<T: Scalar> {
    /// Compiled MPS backend.
    pub backend: MpsBackend<T>,
    /// Warm state arena for pooled tree walks.
    pub pool: StatePool<Mps<T>>,
    /// Identity-assignment truncation probe, run at most once per entry
    /// (`None` inside = the circuit has no identity assignment to
    /// probe). The router uses it to enforce cumulative truncation
    /// budgets before any shot is spent.
    pub probe: std::sync::OnceLock<Option<ptsbe_core::backend::TruncationStats>>,
}

/// A cached Pauli-frame lowering: the bulk sampler (program + noiseless
/// reference) and whether that reference was measurement-deterministic —
/// the sampler's exactness condition, which the router requires before
/// choosing the frame engine.
pub struct FrameEntry {
    /// The bulk sampler (immutable after construction; `sample` is
    /// `&self`).
    pub sampler: FrameSampler,
    /// True when no reference measurement was intrinsically random.
    pub deterministic: bool,
}

/// Cache hit/miss counters, by artifact kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries evicted to stay under the byte budget (0 when unbounded).
    pub evictions: u64,
    /// Approximate bytes of resident artifacts (per-entry accounting).
    pub resident_bytes: u64,
    /// Statevector compilation hits/misses.
    pub sv_hits: u64,
    /// Statevector compilation misses (compiles performed).
    pub sv_misses: u64,
    /// MPS compilation hits/misses.
    pub mps_hits: u64,
    /// MPS compilation misses.
    pub mps_misses: u64,
    /// Frame-program hits/misses.
    pub frame_hits: u64,
    /// Frame-program misses (lower + reference run performed).
    pub frame_misses: u64,
    /// Plan-tree hits/misses.
    pub tree_hits: u64,
    /// Plan-tree misses (tree builds performed).
    pub tree_misses: u64,
}

impl CacheStats {
    /// Total compile-artifact hits (sv + mps + frame).
    pub fn compile_hits(&self) -> u64 {
        self.sv_hits + self.mps_hits + self.frame_hits
    }

    /// Total compile-artifact misses.
    pub fn compile_misses(&self) -> u64 {
        self.sv_misses + self.mps_misses + self.frame_misses
    }

    /// Overall hit rate across every artifact kind (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.compile_hits() + self.tree_hits;
        let total = hits + self.compile_misses() + self.tree_misses;
        if total == 0 {
            return 0.0;
        }
        hits as f64 / total as f64
    }
}

/// Structural routing predicates of a circuit — a pure function of
/// circuit content, so it is cached by content hash: Pauli-mixture
/// detection alone walks every channel branch against the 1-/2-qubit
/// Pauli products, which a warm repeat job must not redo.
#[derive(Debug, Clone, Copy)]
pub struct CircuitTraits {
    /// Every coherent gate is Clifford.
    pub is_clifford: bool,
    /// Every noise channel is a Pauli mixture.
    pub all_pauli_channels: bool,
    /// The circuit contains a reset op.
    pub has_reset: bool,
    /// Measured bits per record.
    pub n_measured: usize,
}

/// Stable content hash of a plan (trajectory assignments + shot budgets)
/// — the second half of the plan-tree cache key.
pub fn plan_hash(plan: &PtsPlan) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(plan.trajectories.len());
    for t in &plan.trajectories {
        h.write_usize(t.shots);
        h.write_usize(t.choices.len());
        for &c in &t.choices {
            h.write_usize(c);
        }
    }
    h.finish()
}

/// The compiled-artifact cache at one working precision `T`.
///
/// Keys mix the circuit content hash with every compilation parameter
/// (fusion toggle, MPS config, the precision's byte width), so distinct
/// pipelines never collide. Misses build *outside* the map lock — two
/// racing first-submitters may both compile, and the first insert wins —
/// so a slow compile never blocks unrelated cache traffic.
pub struct CompileCache<T: Scalar> {
    sv: Shelf<SvEntry<T>>,
    mps: Shelf<MpsEntry<T>>,
    frame: Shelf<FrameEntry>,
    trees: Shelf<PtsPlanTree>,
    traits: Mutex<HashMap<u64, CircuitTraits>>,
    /// Byte ceiling across every shelf (`None` = unbounded).
    budget: Option<usize>,
    /// Monotonic recency clock; every hit or insert takes a tick.
    clock: AtomicU64,
    resident_bytes: AtomicUsize,
    evictions: AtomicU64,
    sv_hits: AtomicU64,
    sv_misses: AtomicU64,
    mps_hits: AtomicU64,
    mps_misses: AtomicU64,
    frame_hits: AtomicU64,
    frame_misses: AtomicU64,
    tree_hits: AtomicU64,
    tree_misses: AtomicU64,
}

/// Lock with poison healing. Cache maps are only ever mutated through
/// short, non-panicking critical sections (pure map/counter updates;
/// compiles run *outside* the lock), so a poisoned flag can only come
/// from a panic unwinding *through* a guard on some other path — the
/// protected state itself is consistent. Healing keeps one panicking
/// worker from turning every later cache access into a second panic;
/// job-scoped state with real mid-operation invariants takes the typed
/// [`ServiceError::Internal`](crate::ServiceError) route instead.
fn lock_healed<X>(m: &Mutex<X>) -> std::sync::MutexGuard<'_, X> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One cached artifact plus its LRU bookkeeping.
struct Slot<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A keyed artifact family under one lock.
struct Shelf<V> {
    map: Mutex<HashMap<u64, Slot<V>>>,
}

impl<V> Shelf<V> {
    fn new() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    fn get(&self, key: u64, clock: &AtomicU64) -> Option<Arc<V>> {
        let mut m = lock_healed(&self.map);
        m.get_mut(&key).map(|slot| {
            slot.last_used = clock.fetch_add(1, Ordering::Relaxed);
            Arc::clone(&slot.value)
        })
    }

    /// Insert `value` under `key`, charging `bytes` to `resident`.
    /// Two racing first-compilers may both build; the first insert wins
    /// and the loser's artifact is dropped (and never charged).
    fn put(
        &self,
        key: u64,
        value: Arc<V>,
        bytes: usize,
        clock: &AtomicU64,
        resident: &AtomicUsize,
    ) -> Arc<V> {
        let tick = clock.fetch_add(1, Ordering::Relaxed);
        let mut m = lock_healed(&self.map);
        match m.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                o.get_mut().last_used = tick;
                Arc::clone(&o.get().value)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                resident.fetch_add(bytes, Ordering::Relaxed);
                Arc::clone(
                    &v.insert(Slot {
                        value,
                        bytes,
                        last_used: tick,
                    })
                    .value,
                )
            }
        }
    }

    /// Fold this shelf's LRU candidate into `best`
    /// (`(shelf_tag, key, last_used, bytes)`), skipping `protect`.
    fn scan_lru(&self, tag: u8, protect: (u8, u64), best: &mut Option<(u8, u64, u64, usize)>) {
        for (&k, slot) in lock_healed(&self.map).iter() {
            if (tag, k) == protect {
                continue;
            }
            if best.is_none_or(|(_, _, lu, _)| slot.last_used < lu) {
                *best = Some((tag, k, slot.last_used, slot.bytes));
            }
        }
    }

    /// Drop `key`, returning its charged bytes.
    fn evict(&self, key: u64) -> Option<usize> {
        lock_healed(&self.map).remove(&key).map(|s| s.bytes)
    }

    fn len(&self) -> usize {
        lock_healed(&self.map).len()
    }
}

impl<T: Scalar> Default for CompileCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> CompileCache<T> {
    /// Unbounded cache.
    pub fn new() -> Self {
        Self::with_budget(None)
    }

    /// Cache capped at roughly `budget` bytes of resident artifacts
    /// (`None` = unbounded). The accounting is the per-entry
    /// approximation described in the module docs; live `Arc` handles
    /// held by in-flight jobs keep evicted artifacts alive until the
    /// job finishes, so the budget bounds the *cache's* retention, not
    /// peak process memory.
    pub fn with_budget(budget: Option<usize>) -> Self {
        Self {
            sv: Shelf::new(),
            mps: Shelf::new(),
            frame: Shelf::new(),
            trees: Shelf::new(),
            traits: Mutex::new(HashMap::new()),
            budget,
            clock: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            sv_hits: AtomicU64::new(0),
            sv_misses: AtomicU64::new(0),
            mps_hits: AtomicU64::new(0),
            mps_misses: AtomicU64::new(0),
            frame_hits: AtomicU64::new(0),
            frame_misses: AtomicU64::new(0),
            tree_hits: AtomicU64::new(0),
            tree_misses: AtomicU64::new(0),
        }
    }

    /// Evict globally-LRU entries until the budget holds, never
    /// touching `protect` (the entry the caller just inserted — a
    /// budget smaller than one artifact must still serve it).
    fn enforce_budget(&self, protect: (u8, u64)) {
        let Some(budget) = self.budget else { return };
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            let mut victim = None;
            self.sv.scan_lru(0, protect, &mut victim);
            self.mps.scan_lru(1, protect, &mut victim);
            self.frame.scan_lru(2, protect, &mut victim);
            self.trees.scan_lru(3, protect, &mut victim);
            let Some((tag, key, _, _)) = victim else {
                break;
            };
            let freed = match tag {
                0 => self.sv.evict(key),
                1 => self.mps.evict(key),
                2 => self.frame.evict(key),
                _ => self.trees.evict(key),
            };
            match freed {
                Some(bytes) => {
                    self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // A racing enforce already removed it; re-scan.
                None => continue,
            }
        }
    }

    fn precision_tag() -> u64 {
        std::mem::size_of::<T>() as u64
    }

    // Per-entry size accounting: deliberately approximate but *stable*
    // (a pure function of compile inputs), dominated by the amplitude
    // working set each entry anchors — one pooled statevector for sv
    // entries, the bond tensors for MPS, the lowered program for frames,
    // the node table for plan trees.

    fn sv_entry_bytes(n_qubits: usize) -> usize {
        (2usize << n_qubits) * std::mem::size_of::<T>() + 1024
    }

    fn mps_entry_bytes(n_qubits: usize, config: &MpsConfig) -> usize {
        4 * n_qubits * config.max_bond * config.max_bond * std::mem::size_of::<T>() + 1024
    }

    fn frame_entry_bytes(nc: &NoisyCircuit) -> usize {
        256 * nc.n_qubits() + 64 * nc.sites().len() + 4096
    }

    fn tree_entry_bytes(tree: &PtsPlanTree) -> usize {
        128 * tree.n_nodes() + 256
    }

    /// Statevector compilation for `nc` (content hash `circuit_hash`)
    /// with the given fusion toggle.
    ///
    /// # Errors
    /// Compile failures (mid-circuit measurement, reset) as strings.
    pub fn sv(
        &self,
        nc: &NoisyCircuit,
        circuit_hash: u64,
        fuse: bool,
    ) -> Result<Arc<SvEntry<T>>, String> {
        let key = combine(
            circuit_hash,
            combine(Self::precision_tag(), u64::from(fuse)),
        );
        if let Some(hit) = self.sv.get(key, &self.clock) {
            self.sv_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.sv_misses.fetch_add(1, Ordering::Relaxed);
        let backend = ptsbe_telemetry::spanned(ptsbe_telemetry::Stage::Compile, || {
            SvBackend::<T>::new_with_fusion(nc, SamplingStrategy::Auto, fuse)
                .map_err(|e| format!("statevector compile failed: {e}"))
        })?;
        let entry = Arc::new(SvEntry {
            fusion: backend.fusion_stats(),
            backend,
            pool: StatePool::new(),
        });
        let bytes = Self::sv_entry_bytes(nc.n_qubits());
        let out = self
            .sv
            .put(key, entry, bytes, &self.clock, &self.resident_bytes);
        self.enforce_budget((0, key));
        Ok(out)
    }

    /// MPS compilation for `nc` under `config`.
    ///
    /// # Errors
    /// Compile failures as strings.
    pub fn mps(
        &self,
        nc: &NoisyCircuit,
        circuit_hash: u64,
        config: MpsConfig,
        fuse: bool,
    ) -> Result<Arc<MpsEntry<T>>, String> {
        // Every MpsConfig field participates: two jobs that differ only
        // in a truncation budget produce different states, so they must
        // never share a compiled entry or its warm pool.
        let mut h = StableHasher::new();
        h.write_u64(Self::precision_tag());
        h.write_usize(config.max_bond);
        h.write_f64(config.cutoff);
        h.write_f64(config.trunc_per_update);
        h.write_f64(config.trunc_budget);
        h.write_u8(u8::from(fuse));
        let key = combine(circuit_hash, h.finish());
        if let Some(hit) = self.mps.get(key, &self.clock) {
            self.mps_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.mps_misses.fetch_add(1, Ordering::Relaxed);
        let backend = ptsbe_telemetry::spanned(ptsbe_telemetry::Stage::Compile, || {
            MpsBackend::<T>::new_with_fusion(nc, config, Default::default(), fuse)
                .map_err(|e| format!("mps compile failed: {e}"))
        })?;
        let entry = Arc::new(MpsEntry {
            backend,
            pool: StatePool::new(),
            probe: std::sync::OnceLock::new(),
        });
        let bytes = Self::mps_entry_bytes(nc.n_qubits(), &config);
        let out = self
            .mps
            .put(key, entry, bytes, &self.clock, &self.resident_bytes);
        self.enforce_budget((1, key));
        Ok(out)
    }

    /// Pauli-frame lowering + noiseless reference for `nc`. The reference
    /// tableau run draws from a Philox stream keyed by the circuit hash,
    /// so the cached reference — and every sample stream derived from it
    /// — is a pure function of circuit content.
    ///
    /// # Errors
    /// Conversion failures (non-Clifford gate, non-Pauli channel, reset,
    /// too many measured bits) as strings.
    pub fn frame(&self, nc: &NoisyCircuit, circuit_hash: u64) -> Result<Arc<FrameEntry>, String> {
        let key = circuit_hash;
        if let Some(hit) = self.frame.get(key, &self.clock) {
            self.frame_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.frame_misses.fetch_add(1, Ordering::Relaxed);
        if nc.measured_qubits().len() > 128 {
            return Err("frame sampler records are limited to 128 measured bits".to_string());
        }
        let mut rng = PhiloxRng::new(circuit_hash, 0);
        let sampler = ptsbe_telemetry::spanned(ptsbe_telemetry::Stage::Compile, || {
            FrameSampler::new(nc, &mut rng).map_err(|e| format!("frame lowering failed: {e}"))
        })?;
        let deterministic = !sampler.reference_was_random();
        let entry = Arc::new(FrameEntry {
            sampler,
            deterministic,
        });
        let bytes = Self::frame_entry_bytes(nc);
        let out = self
            .frame
            .put(key, entry, bytes, &self.clock, &self.resident_bytes);
        self.enforce_budget((2, key));
        Ok(out)
    }

    /// Structural routing predicates of `nc`, memoized by content hash.
    pub fn traits(&self, nc: &NoisyCircuit, circuit_hash: u64) -> CircuitTraits {
        if let Some(hit) = lock_healed(&self.traits).get(&circuit_hash) {
            return *hit;
        }
        let computed = CircuitTraits {
            is_clifford: nc.is_clifford(),
            all_pauli_channels: nc.all_pauli_channels(),
            has_reset: nc.has_reset(),
            n_measured: nc.measured_qubits().len(),
        };
        *lock_healed(&self.traits)
            .entry(circuit_hash)
            .or_insert(computed)
    }

    /// The prefix tree of `plan` against the circuit with hash
    /// `circuit_hash`.
    pub fn plan_tree(&self, circuit_hash: u64, plan: &PtsPlan) -> Arc<PtsPlanTree> {
        let key = combine(circuit_hash, plan_hash(plan));
        if let Some(hit) = self.trees.get(key, &self.clock) {
            self.tree_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.tree_misses.fetch_add(1, Ordering::Relaxed);
        let tree = ptsbe_telemetry::spanned(ptsbe_telemetry::Stage::Plan, || {
            Arc::new(PtsPlanTree::from_plan(plan))
        });
        let bytes = Self::tree_entry_bytes(&tree);
        let out = self
            .trees
            .put(key, tree, bytes, &self.clock, &self.resident_bytes);
        self.enforce_budget((3, key));
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed) as u64,
            sv_hits: self.sv_hits.load(Ordering::Relaxed),
            sv_misses: self.sv_misses.load(Ordering::Relaxed),
            mps_hits: self.mps_hits.load(Ordering::Relaxed),
            mps_misses: self.mps_misses.load(Ordering::Relaxed),
            frame_hits: self.frame_hits.load(Ordering::Relaxed),
            frame_misses: self.frame_misses.load(Ordering::Relaxed),
            tree_hits: self.tree_hits.load(Ordering::Relaxed),
            tree_misses: self.tree_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of resident artifacts across every kind (observability).
    pub fn resident(&self) -> usize {
        self.sv.len() + self.mps.len() + self.frame.len() + self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_core::{PlannedTrajectory, ProbabilisticPts, PtsSampler};

    fn noisy_bell(p: f64) -> NoisyCircuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(p))
            .apply(&c)
    }

    #[test]
    fn sv_hit_and_miss_counters() {
        let cache = CompileCache::<f64>::new();
        let nc = noisy_bell(0.1);
        let h = nc.content_hash();
        let a = cache.sv(&nc, h, true).unwrap();
        let b = cache.sv(&nc, h, true).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat compile must be the same entry");
        // Fusion toggle is part of the key.
        let c = cache.sv(&nc, h, false).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!((stats.sv_hits, stats.sv_misses), (1, 2));
    }

    #[test]
    fn mps_key_covers_every_config_field() {
        use ptsbe_tensornet::MpsConfig;
        let cache = CompileCache::<f64>::new();
        let nc = noisy_bell(0.1);
        let h = nc.content_hash();
        let base = MpsConfig::new(16);
        let a = cache.mps(&nc, h, base, true).unwrap();
        let b = cache.mps(&nc, h, base, true).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical config must hit");
        // Jobs differing *only* in a truncation budget must not share a
        // compiled entry: the budget changes the states the entry's warm
        // pool would fork.
        let variants = [
            base.with_max_bond(32),
            base.with_cutoff(1e-9),
            MpsConfig::adaptive(16, 1e-6, 0.0).with_cutoff(base.cutoff),
            MpsConfig::adaptive(16, 0.0, 1e-3).with_cutoff(base.cutoff),
        ];
        for (i, cfg) in variants.iter().enumerate() {
            let v = cache.mps(&nc, h, *cfg, true).unwrap();
            assert!(
                !Arc::ptr_eq(&a, &v),
                "variant {i} ({cfg:?}) collided with the base entry"
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.mps_hits, stats.mps_misses), (1, 5));
    }

    #[test]
    fn tree_keyed_by_circuit_and_plan() {
        let cache = CompileCache::<f64>::new();
        let nc = noisy_bell(0.1);
        let mut rng = PhiloxRng::new(5, 0);
        let plan = ProbabilisticPts {
            n_samples: 10,
            shots_per_trajectory: 5,
            dedup: true,
        }
        .sample_plan(&nc, &mut rng);
        let h = nc.content_hash();
        let t1 = cache.plan_tree(h, &plan);
        let t2 = cache.plan_tree(h, &plan);
        assert!(Arc::ptr_eq(&t1, &t2));
        let mut other = plan.clone();
        other.trajectories.push(PlannedTrajectory {
            choices: nc.identity_assignment().unwrap(),
            shots: 1,
        });
        let t3 = cache.plan_tree(h, &other);
        assert!(!Arc::ptr_eq(&t1, &t3), "different plans must not collide");
        let stats = cache.stats();
        assert_eq!((stats.tree_hits, stats.tree_misses), (1, 2));
    }

    #[test]
    fn frame_entry_flags_determinism() {
        let cache = CompileCache::<f64>::new();
        let nc = noisy_bell(0.1); // H makes the reference random
        let e = cache.frame(&nc, nc.content_hash()).unwrap();
        assert!(!e.deterministic);

        let mut c = Circuit::new(1);
        c.x(0).measure_all();
        let det = NoiseModel::new()
            .with_default_1q(channels::bit_flip(0.2))
            .apply(&c);
        let e = cache.frame(&det, det.content_hash()).unwrap();
        assert!(e.deterministic);

        let mut c = Circuit::new(1);
        c.t(0).measure_all();
        let bad = NoisyCircuit::from_circuit(c);
        assert!(cache.frame(&bad, bad.content_hash()).is_err());
    }

    #[test]
    fn budgeted_cache_evicts_lru_and_recompiles() {
        // Budget fits exactly one 2-qubit sv entry (1088 B accounted).
        let cache = CompileCache::<f64>::with_budget(Some(1100));
        let a = noisy_bell(0.1);
        let b = noisy_bell(0.2);
        let (ha, hb) = (a.content_hash(), b.content_hash());
        let ea = cache.sv(&a, ha, true).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        let eb = cache.sv(&b, hb, true).unwrap();
        // Inserting b blew the budget: a (the LRU) went, b survives.
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident(), 1);
        let eb2 = cache.sv(&b, hb, true).unwrap();
        assert!(Arc::ptr_eq(&eb, &eb2), "survivor must stay warm");
        // a recompiles (a fresh miss), evicting b in turn.
        let ea2 = cache.sv(&a, ha, true).unwrap();
        assert!(!Arc::ptr_eq(&ea, &ea2), "evicted entry must recompile");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!((stats.sv_hits, stats.sv_misses), (1, 3));
        assert!(stats.resident_bytes <= 1100, "{stats:?}");

        // A budget below a single artifact still serves it: the entry
        // just inserted is never the eviction victim.
        let tiny = CompileCache::<f64>::with_budget(Some(1));
        assert!(tiny.sv(&a, ha, true).is_ok());
        assert_eq!(tiny.resident(), 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CompileCache::<f64>::new();
        for p in [0.1, 0.2, 0.3, 0.4] {
            let nc = noisy_bell(p);
            cache.sv(&nc, nc.content_hash(), true).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.resident(), 4);
        assert_eq!(stats.resident_bytes, 4 * 1088);
    }

    #[test]
    fn plan_hash_sensitive_to_shots_and_choices() {
        let a = PtsPlan {
            trajectories: vec![PlannedTrajectory {
                choices: vec![0, 1],
                shots: 5,
            }],
        };
        let mut b = a.clone();
        b.trajectories[0].shots = 6;
        assert_ne!(plan_hash(&a), plan_hash(&b));
        let mut c = a.clone();
        c.trajectories[0].choices = vec![1, 0];
        assert_ne!(plan_hash(&a), plan_hash(&c));
        assert_eq!(plan_hash(&a), plan_hash(&a.clone()));
    }
}

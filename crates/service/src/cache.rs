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

use crate::lock_healed;
use ptsbe_circuit::hash::combine;
use ptsbe_circuit::{FusionStats, NoisyCircuit, StableHasher};
use ptsbe_core::{MpsBackend, PtsPlan, PtsPlanTree, StatePool, SvBackend};
use ptsbe_math::Scalar;
use ptsbe_rng::PhiloxRng;
use ptsbe_stabilizer::FrameSampler;
use ptsbe_statevector::{SamplingStrategy, StateVector};
use ptsbe_telemetry::{spanned, Stage};
use ptsbe_tensornet::{Mps, MpsConfig};
use std::collections::hash_map::{Entry, HashMap};
use std::convert::Infallible;
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
/// (MPS config, the precision's byte width), so distinct
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
}

/// One cached artifact plus its LRU bookkeeping.
struct Slot<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A keyed artifact family under one lock, with its own hit/miss
/// counters.
struct Shelf<V> {
    /// Which shelf this is, so an eviction candidate can name its home.
    tag: u8,
    map: Mutex<HashMap<u64, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Shelf<V> {
    fn new(tag: u8) -> Self {
        Self {
            tag,
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fold this shelf's LRU candidate into `best`
    /// (`(shelf_tag, key, last_used)`), skipping `protect`.
    fn scan_lru(&self, protect: (u8, u64), best: &mut Option<(u8, u64, u64)>) {
        for (&k, slot) in lock_healed(&self.map).iter() {
            if (self.tag, k) == protect {
                continue;
            }
            if best.is_none_or(|(_, _, lu)| slot.last_used < lu) {
                *best = Some((self.tag, k, slot.last_used));
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
            sv: Shelf::new(0),
            mps: Shelf::new(1),
            frame: Shelf::new(2),
            trees: Shelf::new(3),
            traits: Mutex::new(HashMap::new()),
            budget,
            clock: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Evict globally-LRU entries until the budget holds, never
    /// touching `protect` (the entry the caller just inserted — a
    /// budget smaller than one artifact must still serve it).
    fn enforce_budget(&self, protect: (u8, u64)) {
        let Some(budget) = self.budget else { return };
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            let mut victim = None;
            self.sv.scan_lru(protect, &mut victim);
            self.mps.scan_lru(protect, &mut victim);
            self.frame.scan_lru(protect, &mut victim);
            self.trees.scan_lru(protect, &mut victim);
            let Some((tag, key, _)) = victim else {
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

    /// The one lookup path of every shelf. A hit refreshes the entry's
    /// recency; a miss runs `build` (which returns the artifact and the
    /// bytes to charge for it) *outside* the map lock under a `stage`
    /// span, inserts, and evicts down to the budget. Two racing
    /// first-builders may both build: the first insert wins and the
    /// loser's artifact is dropped, never charged.
    fn get_or_build<V, E>(
        &self,
        shelf: &Shelf<V>,
        key: u64,
        stage: Stage,
        build: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<Arc<V>, E> {
        if let Some(slot) = lock_healed(&shelf.map).get_mut(&key) {
            slot.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
            shelf.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&slot.value));
        }
        shelf.misses.fetch_add(1, Ordering::Relaxed);
        let (value, bytes) = spanned(stage, build)?;
        let last_used = self.clock.fetch_add(1, Ordering::Relaxed);
        let out = match lock_healed(&shelf.map).entry(key) {
            Entry::Occupied(mut o) => {
                o.get_mut().last_used = last_used;
                Arc::clone(&o.get().value)
            }
            Entry::Vacant(v) => {
                self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
                let value = Arc::new(value);
                v.insert(Slot {
                    value: Arc::clone(&value),
                    bytes,
                    last_used,
                });
                value
            }
        };
        self.enforce_budget((shelf.tag, key));
        Ok(out)
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

    /// Statevector compilation for `nc` (content hash `circuit_hash`).
    ///
    /// # Errors
    /// Compile failures (mid-circuit measurement, reset) as strings.
    pub fn sv(&self, nc: &NoisyCircuit, circuit_hash: u64) -> Result<Arc<SvEntry<T>>, String> {
        let key = combine(circuit_hash, Self::precision_tag());
        self.get_or_build(&self.sv, key, Stage::Compile, || {
            let backend = SvBackend::<T>::new(nc, SamplingStrategy::Auto)
                .map_err(|e| format!("statevector compile failed: {e}"))?;
            let entry = SvEntry {
                fusion: backend.fusion_stats(),
                backend,
                pool: StatePool::new(),
            };
            Ok((entry, Self::sv_entry_bytes(nc.n_qubits())))
        })
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
        let key = combine(circuit_hash, h.finish());
        self.get_or_build(&self.mps, key, Stage::Compile, || {
            let backend = MpsBackend::<T>::new(nc, config, Default::default())
                .map_err(|e| format!("mps compile failed: {e}"))?;
            let entry = MpsEntry {
                backend,
                pool: StatePool::new(),
                probe: std::sync::OnceLock::new(),
            };
            Ok((entry, Self::mps_entry_bytes(nc.n_qubits(), &config)))
        })
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
        self.get_or_build(&self.frame, circuit_hash, Stage::Compile, || {
            let mut rng = PhiloxRng::new(circuit_hash, 0);
            let sampler = FrameSampler::new(nc, &mut rng)
                .map_err(|e| format!("frame lowering failed: {e}"))?;
            let entry = FrameEntry {
                deterministic: !sampler.reference_was_random(),
                sampler,
            };
            Ok((entry, Self::frame_entry_bytes(nc)))
        })
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
        let Ok(tree) = self.get_or_build(&self.trees, key, Stage::Plan, || {
            let tree = PtsPlanTree::from_plan(plan);
            let bytes = Self::tree_entry_bytes(&tree);
            Ok::<_, Infallible>((tree, bytes))
        });
        tree
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed) as u64,
            sv_hits: self.sv.hits.load(Ordering::Relaxed),
            sv_misses: self.sv.misses.load(Ordering::Relaxed),
            mps_hits: self.mps.hits.load(Ordering::Relaxed),
            mps_misses: self.mps.misses.load(Ordering::Relaxed),
            frame_hits: self.frame.hits.load(Ordering::Relaxed),
            frame_misses: self.frame.misses.load(Ordering::Relaxed),
            tree_hits: self.trees.hits.load(Ordering::Relaxed),
            tree_misses: self.trees.misses.load(Ordering::Relaxed),
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
        let a = cache.sv(&nc, h).unwrap();
        let b = cache.sv(&nc, h).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat compile must be the same entry");
        let stats = cache.stats();
        assert_eq!((stats.sv_hits, stats.sv_misses), (1, 1));
    }

    #[test]
    fn mps_key_covers_every_config_field() {
        use ptsbe_tensornet::MpsConfig;
        let cache = CompileCache::<f64>::new();
        let nc = noisy_bell(0.1);
        let h = nc.content_hash();
        let base = MpsConfig::new(16);
        let a = cache.mps(&nc, h, base).unwrap();
        let b = cache.mps(&nc, h, base).unwrap();
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
            let v = cache.mps(&nc, h, *cfg).unwrap();
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

        // A record is one u128: the sampler refuses a 129th bit.
        let mut c = Circuit::new(1);
        for _ in 0..129 {
            c.measure(&[0]);
        }
        let wide = NoisyCircuit::from_circuit(c);
        assert!(cache.frame(&wide, wide.content_hash()).is_err());
    }

    #[test]
    fn budgeted_cache_evicts_lru_and_recompiles() {
        // Budget fits exactly one 2-qubit sv entry (1088 B accounted).
        let cache = CompileCache::<f64>::with_budget(Some(1100));
        let a = noisy_bell(0.1);
        let b = noisy_bell(0.2);
        let (ha, hb) = (a.content_hash(), b.content_hash());
        let ea = cache.sv(&a, ha).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        let eb = cache.sv(&b, hb).unwrap();
        // Inserting b blew the budget: a (the LRU) went, b survives.
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident(), 1);
        let eb2 = cache.sv(&b, hb).unwrap();
        assert!(Arc::ptr_eq(&eb, &eb2), "survivor must stay warm");
        // a recompiles (a fresh miss), evicting b in turn.
        let ea2 = cache.sv(&a, ha).unwrap();
        assert!(!Arc::ptr_eq(&ea, &ea2), "evicted entry must recompile");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!((stats.sv_hits, stats.sv_misses), (1, 3));
        assert!(stats.resident_bytes <= 1100, "{stats:?}");

        // A budget below a single artifact still serves it: the entry
        // just inserted is never the eviction victim.
        let tiny = CompileCache::<f64>::with_budget(Some(1));
        assert!(tiny.sv(&a, ha).is_ok());
        assert_eq!(tiny.resident(), 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CompileCache::<f64>::new();
        for p in [0.1, 0.2, 0.3, 0.4] {
            let nc = noisy_bell(p);
            cache.sv(&nc, nc.content_hash()).unwrap();
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

//! Deterministic fault injection.
//!
//! Every recovery path in the service — chunk retry, escaped-panic requeue,
//! transient-sink retry, engine degradation, deadline enforcement — is
//! exercised by *reproducible* faults, not luck. A [`FaultConfig`]
//! describes which faults fire and how often; whether a given fault
//! fires at a given point is a pure function of
//! `(fault seed, job seed, chunk index, attempt)` through a dedicated
//! Philox stream, so a faulted run is bitwise repeatable and entirely
//! independent of scheduling: the same chunks panic on the same
//! attempts no matter which worker picks them up or when.
//!
//! Faults come from two places, in precedence order:
//!
//! 1. [`ServiceConfig::faults`](crate::ServiceConfig::faults) — an
//!    explicit per-service config (tests pin exact fault shapes here);
//! 2. the `PTSBE_FAULTS` environment variable — a comma-separated list
//!    of preset names (`panic-storm`, `slow-chunk`, `sink-flake`,
//!    `worker-kill`), applied to every service whose config leaves
//!    `faults` unset. This is how the CI fault matrix runs the whole
//!    service suite under injected faults without touching a line of
//!    test code.
//!
//! Injected panics carry the [`InjectedFault`] payload and are silenced
//! by a process-wide panic-hook shim (installed once, on first faulted
//! service start), so a panic-storm run does not bury real failures in
//! noise. Real panics print exactly as before.
//!
//! Every preset is *recoverable by construction* under the default
//! [`RetryPolicy`](crate::service::RetryPolicy): injected chunk panics
//! and worker kills stop firing below the default retry limit, so a
//! fault-injected run of a valid job must deliver dataset bytes
//! identical to the fault-free run — the property the fault suite and
//! the CI fault matrix pin.

use ptsbe_dataset::{DatasetHeader, RecordSink, TrajectoryRecord};
use ptsbe_rng::{PhiloxRng, Rng};
use std::io;
use std::time::Duration;

/// Marker payload carried by injected panics so the panic hook can
/// silence them (and tests can tell injected from organic panics).
#[derive(Debug)]
pub struct InjectedFault(pub &'static str);

/// Salts separating the per-fault-kind Philox streams.
const SALT_PANIC_EARLY: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_PANIC_LATE: u64 = 0xbf58_476d_1ce4_e5b9;
const SALT_DELAY: u64 = 0x94d0_49bb_1331_11eb;
const SALT_SINK: u64 = 0x2545_f491_4f6c_dd1d;
const SALT_KILL: u64 = 0xd6e8_feb8_6659_fd93;
const SALT_MPS_FATAL: u64 = 0xff51_afd7_ed55_8ccd;

/// Deterministic fault plan for a service. All probabilities are in
/// `[0, 1]`; a fault kind with probability `0.0` never fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into every fault decision (so two fault plans with
    /// the same rates but different seeds pick different victims).
    pub seed: u64,
    /// Probability that a chunk execution attempt panics.
    pub chunk_panic: f64,
    /// Attempts at/above this index never panic — guarantees recovery
    /// when it is at most the retry limit.
    pub panic_max_attempts: u32,
    /// Of the panicking attempts, the fraction that panic *after* the
    /// chunk's records were computed ("partial panic": all the work,
    /// none of the delivery — the retry must still be byte-identical).
    pub partial_panic: f64,
    /// Probability that a chunk attempt is artificially delayed.
    pub chunk_delay: f64,
    /// The artificial delay applied when `chunk_delay` fires.
    pub delay: Duration,
    /// Probability that a record's first sink write fails transiently
    /// (`ErrorKind::Interrupted`, before any byte is written).
    pub sink_flake: f64,
    /// Probability that a chunk attempt panics *outside* the chunk's
    /// retry guard, exercising the worker loop's catch-and-requeue path.
    pub worker_kill: f64,
    /// Attempts at/above this index never kill the worker.
    pub kill_max_attempts: u32,
    /// Probability that an MPS-tree chunk execution fails *fatally* — a
    /// structural, non-retryable error, the real-world shape of an
    /// engine blowing up at runtime — exercising graceful degradation
    /// onto a dense fallback. Keyed per chunk (not per attempt): a
    /// fatal engine failure does not heal on retry. Not part of any
    /// preset: degradation changes the executing engine, so it is
    /// exempt from the presets' byte-identity contract.
    pub mps_fatal: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0xFA17,
            chunk_panic: 0.0,
            panic_max_attempts: 0,
            partial_panic: 0.0,
            chunk_delay: 0.0,
            delay: Duration::ZERO,
            sink_flake: 0.0,
            worker_kill: 0.0,
            kill_max_attempts: 0,
            mps_fatal: 0.0,
        }
    }
}

impl FaultConfig {
    /// Every chunk's first two attempts panic (half of them after the
    /// records were computed); attempt 2 always succeeds — inside the
    /// default retry limit of 3.
    pub fn panic_storm() -> Self {
        Self {
            chunk_panic: 1.0,
            panic_max_attempts: 2,
            partial_panic: 0.5,
            ..Self::default()
        }
    }

    /// Every chunk is delayed 2 ms — exercises deadline enforcement and
    /// reorder-buffer pressure without changing any output.
    pub fn slow_chunk() -> Self {
        Self {
            chunk_delay: 1.0,
            delay: Duration::from_millis(2),
            ..Self::default()
        }
    }

    /// 30% of records fail their first sink write transiently; the
    /// emitter's bounded transient retry absorbs every one.
    pub fn sink_flake() -> Self {
        Self {
            sink_flake: 0.3,
            ..Self::default()
        }
    }

    /// 25% of chunks panic outside the retry guard on the first attempt;
    /// the worker catches it, requeues the chunk with its attempt
    /// ordinal bumped, and keeps serving.
    pub fn worker_kill() -> Self {
        Self {
            worker_kill: 0.25,
            kill_max_attempts: 1,
            ..Self::default()
        }
    }

    /// Parse a comma-separated preset list (`panic-storm,sink-flake`).
    /// Presets merge by taking each field's maximum, so combinations
    /// stack. Empty input and `off`/`none` mean "no faults".
    ///
    /// # Errors
    /// Names that match no preset.
    pub fn parse(s: &str) -> Result<Option<Self>, String> {
        let mut merged: Option<Self> = None;
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let preset = match name {
                "off" | "none" => continue,
                "panic-storm" => Self::panic_storm(),
                "slow-chunk" => Self::slow_chunk(),
                "sink-flake" => Self::sink_flake(),
                "worker-kill" => Self::worker_kill(),
                other => {
                    return Err(format!(
                        "unknown fault preset '{other}' (expected panic-storm, slow-chunk, \
                         sink-flake, worker-kill, or a comma-separated combination)"
                    ))
                }
            };
            merged = Some(match merged {
                None => preset,
                Some(m) => m.merge(preset),
            });
        }
        Ok(merged)
    }

    /// The `PTSBE_FAULTS` environment override (unset/empty/unknown
    /// names mean no faults; unknown names are reported on stderr
    /// rather than silently ignored).
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("PTSBE_FAULTS").ok()?;
        match Self::parse(&raw) {
            Ok(cfg) => cfg,
            Err(msg) => {
                eprintln!("PTSBE_FAULTS ignored: {msg}");
                None
            }
        }
    }

    fn merge(self, other: Self) -> Self {
        Self {
            seed: self.seed,
            chunk_panic: self.chunk_panic.max(other.chunk_panic),
            panic_max_attempts: self.panic_max_attempts.max(other.panic_max_attempts),
            partial_panic: self.partial_panic.max(other.partial_panic),
            chunk_delay: self.chunk_delay.max(other.chunk_delay),
            delay: self.delay.max(other.delay),
            sink_flake: self.sink_flake.max(other.sink_flake),
            worker_kill: self.worker_kill.max(other.worker_kill),
            kill_max_attempts: self.kill_max_attempts.max(other.kill_max_attempts),
            mps_fatal: self.mps_fatal.max(other.mps_fatal),
        }
    }

    /// True when any fault kind can fire.
    pub fn active(&self) -> bool {
        self.chunk_panic > 0.0
            || self.chunk_delay > 0.0
            || self.sink_flake > 0.0
            || self.worker_kill > 0.0
            || self.mps_fatal > 0.0
    }

    /// One deterministic Bernoulli draw for `(salt, job_seed, ordinal,
    /// attempt)`. The draw is its own Philox stream, so fault decisions
    /// never perturb (or depend on) execution randomness.
    fn decide(&self, salt: u64, job_seed: u64, ordinal: u64, attempt: u32, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut rng = PhiloxRng::new(
            self.seed ^ job_seed.rotate_left(17) ^ salt,
            (ordinal << 8) | u64::from(attempt & 0xff),
        );
        rng.next_f64() < p
    }

    /// Should this chunk attempt panic *before* executing?
    pub(crate) fn panic_early(&self, job_seed: u64, chunk: u64, attempt: u32) -> bool {
        attempt < self.panic_max_attempts
            && self.decide(SALT_PANIC_EARLY, job_seed, chunk, attempt, self.chunk_panic)
            && !self.panic_late(job_seed, chunk, attempt)
    }

    /// Should this chunk attempt panic *after* computing its records
    /// (the "partial panic": work done, delivery lost)?
    pub(crate) fn panic_late(&self, job_seed: u64, chunk: u64, attempt: u32) -> bool {
        attempt < self.panic_max_attempts
            && self.decide(SALT_PANIC_EARLY, job_seed, chunk, attempt, self.chunk_panic)
            && self.decide(
                SALT_PANIC_LATE,
                job_seed,
                chunk,
                attempt,
                self.partial_panic,
            )
    }

    /// Artificial latency for this chunk attempt, if any.
    pub(crate) fn chunk_delay(&self, job_seed: u64, chunk: u64, attempt: u32) -> Option<Duration> {
        self.decide(SALT_DELAY, job_seed, chunk, attempt, self.chunk_delay)
            .then_some(self.delay)
    }

    /// Should this chunk attempt kill its worker thread?
    pub(crate) fn kill_worker(&self, job_seed: u64, chunk: u64, attempt: u32) -> bool {
        attempt < self.kill_max_attempts
            && self.decide(SALT_KILL, job_seed, chunk, attempt, self.worker_kill)
    }

    /// Should this MPS-tree chunk fail fatally (structurally)?
    pub(crate) fn mps_fatal_chunk(&self, job_seed: u64, chunk: u64) -> bool {
        self.decide(SALT_MPS_FATAL, job_seed, chunk, 0, self.mps_fatal)
    }

    /// Should this record's first sink write fail transiently?
    fn flake_write(&self, job_seed: u64, record_ordinal: u64) -> bool {
        self.decide(SALT_SINK, job_seed, record_ordinal, 0, self.sink_flake)
    }
}

/// Panic with the injected-fault payload (silenced by the hook below).
pub(crate) fn raise(kind: &'static str) -> ! {
    std::panic::panic_any(InjectedFault(kind))
}

/// Install (once, process-wide) a panic-hook shim that swallows
/// [`InjectedFault`] panics and delegates everything else to the
/// previous hook — a panic-storm run must not bury real failures in
/// thousands of intentional backtraces.
pub(crate) fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

/// A [`RecordSink`] wrapper that injects transient write failures.
///
/// A flaky record's *first* write returns `ErrorKind::Interrupted`
/// before any byte reaches the inner sink; the retry then passes
/// through. Flake decisions are keyed by the record's write ordinal —
/// records reach the sink in plan order (the emitter's contract), so
/// the faulted byte stream is deterministic and, because the failure
/// precedes any write, identical to the fault-free stream.
pub(crate) struct FaultSink {
    inner: Box<dyn RecordSink>,
    cfg: FaultConfig,
    job_seed: u64,
    next_record: u64,
    current_flaked: bool,
}

impl FaultSink {
    pub(crate) fn new(inner: Box<dyn RecordSink>, cfg: FaultConfig, job_seed: u64) -> Self {
        Self {
            inner,
            cfg,
            job_seed,
            next_record: 0,
            current_flaked: false,
        }
    }
}

impl RecordSink for FaultSink {
    fn begin(&mut self, header: &DatasetHeader) -> io::Result<()> {
        self.inner.begin(header)
    }

    fn write(&mut self, record: &TrajectoryRecord) -> io::Result<()> {
        if !self.current_flaked && self.cfg.flake_write(self.job_seed, self.next_record) {
            self.current_flaked = true;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient sink failure",
            ));
        }
        self.inner.write(record)?;
        self.next_record += 1;
        self.current_flaked = false;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultConfig {
            chunk_panic: 0.5,
            panic_max_attempts: 4,
            ..FaultConfig::default()
        };
        let b = FaultConfig { seed: 99, ..a };
        let mut diverged = false;
        for chunk in 0..64u64 {
            for attempt in 0..4u32 {
                assert_eq!(
                    a.panic_early(7, chunk, attempt) || a.panic_late(7, chunk, attempt),
                    a.panic_early(7, chunk, attempt) || a.panic_late(7, chunk, attempt),
                    "same inputs must decide identically"
                );
                if (a.panic_early(7, chunk, attempt) || a.panic_late(7, chunk, attempt))
                    != (b.panic_early(7, chunk, attempt) || b.panic_late(7, chunk, attempt))
                {
                    diverged = true;
                }
            }
        }
        assert!(
            diverged,
            "different fault seeds must pick different victims"
        );
    }

    #[test]
    fn panic_attempt_ceiling_guarantees_recovery() {
        let cfg = FaultConfig::panic_storm();
        for chunk in 0..32u64 {
            assert!(
                cfg.panic_early(3, chunk, 0) || cfg.panic_late(3, chunk, 0),
                "storm must hit attempt 0"
            );
            assert!(
                !cfg.panic_early(3, chunk, 2) && !cfg.panic_late(3, chunk, 2),
                "attempt 2 must always succeed"
            );
            assert!(!cfg.kill_worker(3, chunk, 1) || cfg.kill_max_attempts > 1);
        }
        let kill = FaultConfig::worker_kill();
        for chunk in 0..32u64 {
            assert!(!kill.kill_worker(3, chunk, 1), "kills stop after attempt 0");
        }
    }

    #[test]
    fn early_and_late_panics_are_disjoint() {
        let cfg = FaultConfig::panic_storm();
        for chunk in 0..64u64 {
            for attempt in 0..2u32 {
                assert!(
                    cfg.panic_early(9, chunk, attempt) != cfg.panic_late(9, chunk, attempt),
                    "storm attempts panic exactly once, either early or late"
                );
            }
        }
    }

    #[test]
    fn parse_presets_and_combinations() {
        assert_eq!(FaultConfig::parse("").unwrap(), None);
        assert_eq!(FaultConfig::parse("off").unwrap(), None);
        assert_eq!(
            FaultConfig::parse("panic-storm").unwrap(),
            Some(FaultConfig::panic_storm())
        );
        let combo = FaultConfig::parse("panic-storm, sink-flake")
            .unwrap()
            .unwrap();
        assert_eq!(combo.chunk_panic, 1.0);
        assert_eq!(combo.sink_flake, 0.3);
        assert!(FaultConfig::parse("explode").is_err());
    }

    #[test]
    fn fault_sink_flakes_exactly_once_per_victim() {
        use ptsbe_core::assignment::TrajectoryMeta;
        let (inner, store) = ptsbe_dataset::MemorySink::new();
        let cfg = FaultConfig {
            sink_flake: 0.5,
            ..FaultConfig::default()
        };
        let mut sink = FaultSink::new(Box::new(inner), cfg, 11);
        let rec = |id: usize| TrajectoryRecord {
            meta: TrajectoryMeta {
                traj_id: id,
                nominal_prob: 1.0,
                realized_prob: 1.0,
                choices: vec![],
                errors: vec![],
                truncation: None,
            },
            shots: vec![ptsbe_dataset::ShotWord(0)],
        };
        let mut flakes = 0;
        for i in 0..32 {
            let r = rec(i);
            match sink.write(&r) {
                Ok(()) => {}
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::Interrupted);
                    flakes += 1;
                    // Retry must pass through (exactly one flake per record).
                    sink.write(&r).unwrap();
                }
            }
        }
        assert!(flakes > 4, "half the records should flake, got {flakes}");
        assert_eq!(store.lock().unwrap().records.len(), 32);
    }
}

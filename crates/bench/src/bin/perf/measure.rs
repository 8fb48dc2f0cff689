//! The measured phase (tracing off): set-up on fresh services, discarded
//! warm jobs, then warm jobs through the product path until `--seconds`
//! have passed, with Algorithm-1 baseline slices between them. Every
//! wall-clock sample is taken between two readings of the host-speed
//! index and reported at its nominal speed (`host.rs`); the raw medians
//! ride along.

use crate::check::oracle_tvd;
use crate::harness::{batch_jobs, run_batch, run_job, start_service, workers, Alg1, Checks};
use crate::host;
use crate::procfs;
use crate::sink::SinkOptions;
use crate::stats::{median, Summary};
use crate::workloads::{Spec, WorkloadDef};
use crate::Sizing;
use ptsbe_service::ShotService;
use std::time::Instant;

/// Samples behind the seven end-to-end metrics.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub shots_per_s: Vec<f64>,
    /// One entry per rep (svc-small: the batch's median job).
    pub job_s: Vec<f64>,
    pub first_record_s: Vec<f64>,
    /// Every warm job's wall, for the tail percentile.
    pub all_job_s: Vec<f64>,
    pub alg1_speedup: Vec<f64>,
    /// As measured, before the host-speed correction.
    pub raw_job_s: Vec<f64>,
    pub raw_setup_s: Vec<f64>,
    /// Host speed during each measured rep (1 = nominal).
    pub host_speed: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// measured reps.
    pub host_steal_frac: f64,
    pub peak_rss_mb: f64,
    pub bytes_per_shot: f64,
    pub oracle_tvd: f64,
    pub reps: usize,
    /// A deadline cut the run short of its rep or set-up count.
    pub truncated: bool,
    pub phase_wall: Vec<(&'static str, f64)>,
}

impl Measured {
    /// `(name, unit, summary)` of every end-to-end metric, in
    /// `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, Summary)> {
        let one = |v: f64| Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        };
        let s = |v: &[f64]| Summary::of(v).unwrap_or(one(0.0));
        vec![
            ("setup_s", "s", s(&self.setup_s)),
            ("shots_per_s", "shots/s", s(&self.shots_per_s)),
            ("job_p50_s", "s", s(&self.job_s)),
            ("first_record_s", "s", s(&self.first_record_s)),
            ("peak_rss_mb", "MiB", one(self.peak_rss_mb)),
            ("bytes_per_shot", "B/shot", one(self.bytes_per_shot)),
            ("alg1_speedup", "ratio", s(&self.alg1_speedup)),
        ]
    }
}

/// Set-up as a user pays it: build the inputs from the recipe, start a
/// service, run every spec's first (cold) job to `Done`. Returns the
/// service (warm from here on) and the inputs.
fn set_up(
    def: &WorkloadDef,
    seed: u64,
    m: &mut Measured,
    checks: &mut Checks,
) -> (ShotService, Vec<Spec>) {
    let ((secs, service, specs), speed) = host::at_speed(|| {
        let t0 = Instant::now();
        let specs = def.build_specs(seed);
        let service = start_service(workers());
        for spec in &specs {
            let out = run_job(&service, spec.job(), SinkOptions::default());
            checks.job(&out, spec);
        }
        (t0.elapsed().as_secs_f64(), service, specs)
    });
    m.raw_setup_s.push(secs);
    m.setup_s.push(secs * speed);
    (service, specs)
}

pub fn run(def: &WorkloadDef, seed: u64, sizing: &Sizing, checks: &mut Checks) -> Measured {
    let mut m = Measured::default();
    let t_run = Instant::now();
    // The first set-up's service carries the warm phase. The other
    // set-ups and the oracle job come after it: each is a service of its
    // own, and what their heaps leave behind would otherwise decide the
    // process's peak RSS (measured: 18..36 MiB on sv-shared).
    let t_phase = Instant::now();
    let (service, specs) = set_up(def, seed, &mut m, checks);
    m.phase_wall
        .push(("setup_first", t_phase.elapsed().as_secs_f64()));
    let after_cold = service.cache_stats();

    let t_phase = Instant::now();
    let mut baselines: Vec<Alg1> = specs.iter().map(Alg1::new).collect();
    // Per spec: digest, bytes and shots of its first warm job.
    let mut seen: Vec<Option<(u64, u64, u64)>> = vec![None; specs.len()];
    let mut variant_misses = 0u64;
    // One rep: a closed-loop batch (of one job for the single-job
    // workloads), then an Algorithm-1 slice per spec.
    let mut one_rep = |batch_no: u64, record: Option<&mut Measured>, checks: &mut Checks| {
        let jobs = batch_jobs(&def.mix, specs.len(), seed, batch_no);
        let (batch, speed) = host::at_speed(|| {
            run_batch(
                &service,
                &specs,
                jobs,
                def.clients(),
                SinkOptions::default(),
            )
        });
        batch.check(&specs, checks);
        variant_misses += batch.variant_misses(&specs);
        // The bitwise contract: a spec's bytes never change (variants
        // are other circuits).
        for (job, out) in batch.jobs.iter().zip(&batch.outcomes) {
            if job.variant.is_some() {
                continue;
            }
            let (digest, _, _) =
                *seen[job.spec].get_or_insert((out.sink.digest, out.sink.bytes, out.sink.shots));
            if digest != out.sink.digest {
                checks.check(
                    "digest_repeats",
                    false,
                    format!(
                        "sink digest of '{}' changed between jobs",
                        specs[job.spec].label
                    ),
                );
            }
        }
        let Some(m) = record else { return };
        let makespan = batch.makespan.as_secs_f64();
        m.host_speed.push(speed);
        m.shots_per_s
            .push(batch.shots() as f64 / (makespan * speed));
        // The jobs of a batch differ by design; what repeats from batch
        // to batch is the batch's median job.
        let walls = batch.walls();
        m.raw_job_s.push(median(&walls));
        m.job_s.push(median(&walls) * speed);
        let firsts: Vec<f64> = batch
            .outcomes
            .iter()
            .map(|o| o.sink.first_record.unwrap_or(o.wall).as_secs_f64())
            .collect();
        m.first_record_s.push(median(&firsts) * speed);
        m.all_job_s.extend(walls.iter().map(|w| w * speed));
        // Time Algorithm 1 would need for this batch's shots, from a
        // fresh slice per spec, over the batch's makespan.
        let per_shot: Vec<f64> = baselines
            .iter_mut()
            .map(|b| b.slice(def.alg1_shots))
            .collect();
        let alg1_s: f64 = batch
            .jobs
            .iter()
            .zip(&batch.outcomes)
            .map(|(j, o)| o.sink.shots as f64 * per_shot[j.spec])
            .sum();
        m.alg1_speedup.push(alg1_s / makespan);
    };

    let discard = sizing.warm_discard as u64;
    for batch_no in 0..discard {
        one_rep(batch_no, None, checks);
    }
    m.phase_wall
        .push(("warmup", t_phase.elapsed().as_secs_f64()));

    // On a host in a stolen-time episode a 0.5 s job takes 5-15 s; the
    // rep count gives way before the driver's 180 s limit does.
    let t_phase = Instant::now();
    let (ticks0, steal0) = procfs::cpu_steal_now();
    loop {
        one_rep(discard + m.reps as u64, Some(&mut m), checks);
        m.reps += 1;
        let elapsed = t_phase.elapsed().as_secs_f64();
        let enough = m.reps >= sizing.min_reps;
        let late = elapsed >= 4.0 * sizing.seconds;
        if m.reps == sizing.min_reps || (late && !enough) {
            // Read after a fixed amount of work, not at the end: a faster
            // run fits more reps into `--seconds`, and svc-small's cache
            // grows with every never-seen variant.
            m.peak_rss_mb = procfs::vm_hwm_mib();
        }
        if (enough && elapsed >= sizing.seconds) || late {
            m.truncated |= !enough;
            break;
        }
    }
    m.phase_wall
        .push(("measured", t_phase.elapsed().as_secs_f64()));
    let (ticks1, steal1) = procfs::cpu_steal_now();
    m.host_steal_frac = (steal1 - steal0) as f64 / (ticks1 - ticks0).max(1) as f64;
    // A count, so over a fixed set of jobs whatever the clock allowed and
    // whichever jobs the seed drew: one warm job of every spec.
    let (bytes, shots) = seen
        .iter()
        .flatten()
        .fold((0, 0), |(b, s), (_, bytes, shots)| (b + bytes, s + shots));
    m.bytes_per_shot = bytes as f64 / shots.max(1) as f64;

    let stats = service.cache_stats();
    let warm_misses = (stats.compile_misses() + stats.tree_misses)
        - (after_cold.compile_misses() + after_cold.tree_misses);
    checks.check(
        "warm_compile_misses",
        warm_misses == variant_misses,
        format!(
            "{warm_misses} compile/plan misses after the cold jobs, \
             {variant_misses} owed to never-seen variants"
        ),
    );
    let retries = service.metrics().chunk_retries;
    checks.check(
        "chunk_retries",
        retries == 0,
        format!("{retries} chunk retries"),
    );
    drop(service);

    let t_phase = Instant::now();
    for _ in 1..sizing.setup_reps {
        if !sizing.quick && t_run.elapsed().as_secs_f64() >= 6.0 * sizing.seconds {
            m.truncated = true;
            break;
        }
        let (service, _) = set_up(def, seed, &mut m, checks);
        drop(service);
    }
    m.phase_wall
        .push(("setup_rest", t_phase.elapsed().as_secs_f64()));
    let t_phase = Instant::now();
    m.oracle_tvd = oracle_tvd(def, seed, checks);
    m.phase_wall
        .push(("oracle", t_phase.elapsed().as_secs_f64()));
    m
}

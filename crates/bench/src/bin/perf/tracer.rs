//! Bench-side spans: `{name, start, end, parent, workload, rep}` held in
//! memory and written at exit as Chrome-trace JSON, plus the delegating
//! `TimedBackend` that puts a span around every backend call a generic
//! executor makes. Nothing here touches the program's own telemetry.

use ptsbe_core::{Backend, StatePool, TruncationStats};
use ptsbe_rng::Rng;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last. The layered replay is single
    /// threaded, so one stack is the whole causal structure.
    open: Vec<usize>,
    rep: u32,
}

pub struct Tracer {
    epoch: Instant,
    workload: String,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
pub struct Scope<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        let mut inner = self.tracer.lock();
        inner.spans[self.index].end_ns = now;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(self.index), "spans close innermost first");
    }
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            epoch: Instant::now(),
            workload: workload.to_string(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic inside a span leaves consistent data (pushes only).
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to repetition `rep`.
    pub fn set_rep(&self, rep: u32) {
        self.lock().rep = rep;
    }

    /// Open a span under the innermost open one.
    pub fn scope(&self, name: &'static str) -> Scope<'_> {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let index = inner.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: inner.open.last().copied(),
            rep: inner.rep,
        };
        inner.spans.push(span);
        inner.open.push(index);
        Scope {
            tracer: self,
            index,
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _scope = self.scope(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Total seconds and call count of `name` within repetition `rep`.
    pub fn total(&self, name: &str, rep: u32) -> (f64, u64) {
        let inner = self.lock();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_s(), n + 1))
    }

    /// Per-repetition totals of `name` over `reps`.
    pub fn totals(&self, name: &str, reps: Range<u32>) -> Vec<f64> {
        reps.map(|r| self.total(name, r).0).collect()
    }

    /// Self seconds per span name, summed over every repetition.
    pub fn self_by_name(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans();
        let mut child_s = vec![0.0f64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let own = s.dur_s() - child_s[i];
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Chrome-trace ("trace event") JSON: one complete (`X`) event per
    /// span, microsecond timestamps, parent/rep/workload as args.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\",\"rep\":{}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.workload,
                s.rep,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

pub const ADVANCE: &str = "core.advance";
pub const FORK: &str = "core.fork";
pub const SAMPLE: &str = "core.sample";

/// A `Backend` that delegates every call to `inner` and records a span
/// around the three an executor's cost is made of: advance, fork,
/// sample. States, probabilities and shots pass through untouched, so
/// an executor over it is bitwise identical to one over `inner`.
pub struct TimedBackend<'a, B: Backend> {
    pub inner: &'a B,
    pub tracer: &'a Tracer,
}

impl<B: Backend> Backend for TimedBackend<'_, B> {
    type State = B::State;

    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn measured_qubits(&self) -> &[usize] {
        self.inner.measured_qubits()
    }

    fn n_segments(&self) -> usize {
        self.inner.n_segments()
    }

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn advance(&self, state: &mut Self::State, segments: Range<usize>, choices: &[usize]) -> f64 {
        let _s = self.tracer.scope(ADVANCE);
        self.inner.advance(state, segments, choices)
    }

    fn fork(&self, state: &Self::State) -> Self::State {
        let _s = self.tracer.scope(FORK);
        self.inner.fork(state)
    }

    fn fork_into(&self, src: &Self::State, dst: &mut Self::State) {
        let _s = self.tracer.scope(FORK);
        self.inner.fork_into(src, dst);
    }

    fn fork_pooled(&self, state: &Self::State, pool: &StatePool<Self::State>) -> Self::State {
        let _s = self.tracer.scope(FORK);
        self.inner.fork_pooled(state, pool)
    }

    fn release(&self, state: Self::State, pool: &StatePool<Self::State>) {
        self.inner.release(state, pool);
    }

    fn sample_mutates_state(&self) -> bool {
        self.inner.sample_mutates_state()
    }

    fn prepare(&self, choices: &[usize]) -> (Self::State, f64) {
        let _s = self.tracer.scope(ADVANCE);
        self.inner.prepare(choices)
    }

    fn sample<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        shots: usize,
        rng: &mut R,
    ) -> Vec<u128> {
        let _s = self.tracer.scope(SAMPLE);
        self.inner.sample(state, shots, rng)
    }

    fn sample_batch<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        requests: &mut [(usize, &mut R)],
    ) -> Vec<Vec<u128>> {
        let _s = self.tracer.scope(SAMPLE);
        self.inner.sample_batch(state, requests)
    }

    fn truncation_stats(&self, state: &Self::State) -> Option<TruncationStats> {
        self.inner.truncation_stats(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_spec, workload};
    use ptsbe_core::{BatchedExecutor, PtsPlanTree, SvBackend, TreeExecutor};
    use ptsbe_statevector::SamplingStrategy;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new("w");
        {
            let _outer = t.scope("outer");
            t.set_rep(0);
            t.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.time("inner", || ());
        }
        t.set_rep(1);
        t.time("outer", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].rep, 1);
        let (inner_s, calls) = t.total("inner", 0);
        assert_eq!(calls, 2);
        assert!(inner_s >= 0.002);
        // A layer's self time is its spans minus their children.
        let by_name = t.self_by_name();
        assert_eq!(by_name.len(), 2);
        let outer_self = by_name.iter().find(|(n, _)| *n == "outer").unwrap().1;
        let outer_total = spans[0].dur_s() + spans[3].dur_s();
        assert!((outer_self - (outer_total - inner_s)).abs() < 1e-9);
        assert!(outer_self >= 0.0 && outer_self < outer_total);
        assert_eq!(t.totals("outer", 0..2).len(), 2);
        let trace = crate::jsonout::parse(&t.chrome_trace()).expect("valid JSON");
        let events = crate::jsonout::get(&trace, "traceEvents").unwrap();
        assert!(matches!(events, crate::jsonout::Value::Array(e) if e.len() == 4));
    }

    #[test]
    fn timed_backend_is_bitwise_transparent() {
        // A 6-qubit plan with shared prefixes and duplicates, through the
        // tree and the flat executor, on the bare and the timed backend.
        let mut def = workload("sv-shared", true).unwrap().specs[0];
        def.circuit = crate::workloads::CircuitRecipe::MsdLike { n: 6, depth: 5 };
        let spec = build_spec(&def, 31, 0);
        let backend = SvBackend::<f64>::new(&spec.circuit, SamplingStrategy::Auto).unwrap();
        let tracer = Tracer::new("t");
        let timed = TimedBackend {
            inner: &backend,
            tracer: &tracer,
        };
        let tree = PtsPlanTree::from_plan(&spec.plan);
        let ex = TreeExecutor {
            seed: 5,
            parallel: false,
        };
        let bare = ex.execute_tree(&backend, &spec.circuit, &spec.plan, &tree);
        let wrapped = ex.execute_tree(&timed, &spec.circuit, &spec.plan, &tree);
        let flat = BatchedExecutor {
            seed: 5,
            parallel: false,
        };
        let flat_bare = flat.execute(&backend, &spec.circuit, &spec.plan);
        let flat_wrapped = flat.execute(&timed, &spec.circuit, &spec.plan);
        for (a, b) in [
            (&bare, &wrapped),
            (&flat_bare, &flat_wrapped),
            (&bare, &flat_wrapped),
        ] {
            assert_eq!(a.trajectories.len(), b.trajectories.len());
            for (x, y) in a.trajectories.iter().zip(&b.trajectories) {
                assert_eq!(x.shots, y.shots);
                assert_eq!(
                    x.meta.realized_prob.to_bits(),
                    y.meta.realized_prob.to_bits()
                );
                assert_eq!(x.meta.choices, y.meta.choices);
            }
        }
        let (_, advances) = tracer.total(ADVANCE, 0);
        let (_, samples) = tracer.total(SAMPLE, 0);
        assert!(advances as usize >= tree.n_edges());
        // The flat executor samples once per trajectory; the tree samples
        // duplicates ending on one leaf in one batched call.
        let n = spec.plan.trajectories.len();
        assert!(samples as usize > n && samples as usize <= 2 * n);
        assert!(tracer.total(FORK, 0).1 > 0);
    }
}

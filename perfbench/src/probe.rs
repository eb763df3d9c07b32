//! Timing wrappers around the public trait objects each simulator layer is
//! reached through, plus the in-memory span log of the traced run.
//!
//! The hot per-call boundaries (`WarpScheduler::pick`, `WarpProgram::next_op`,
//! `RedirectCache::lookup`, ...) are aggregated into a count and a total
//! nanosecond figure per (run, boundary) instead of one span per call; the
//! total is estimated from a timed sample of the calls. Coarse boundaries
//! (one simulation, one fleet execution) are kept as full spans.
//!
//! Every wrapper forwards every trait method, defaulted ones included, so a
//! wrapped run is bit-identical to an unwrapped one (`tests/fidelity.rs`).

use gpu_mem::cache::EvictedLine;
use gpu_sim::redirect::{RedirectCache, RedirectLookup};
use gpu_sim::scheduler::{CacheEvent, MemRoute, SchedulerCtx, SchedulerMetrics, WarpScheduler};
use gpu_sim::{Addr, CtaId, Cycle, Kernel, KernelInfo, SmUnit, WarpId, WarpOp, WarpProgram};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th call of a hot boundary is timed; the others are
/// only counted. Reading the clock costs about as much as a scheduler pick,
/// so timing every call would more than double the traced run.
const SAMPLE_EVERY: u64 = 16;

/// A count and a total duration for one aggregated call boundary, shared
/// by every wrapper of a run. Updated with `Relaxed` atomics: the values are
/// statistics that publish no other data, read only after the run returned.
#[derive(Debug, Default)]
pub struct Tally {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl Tally {
    fn add(&self, count: u64, nanos: u64) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent inside the recorded calls (estimated from
    /// the timed sample for the hot boundaries).
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// The cost of one clock read, subtracted from every timed call: the
/// median of back-to-back `Instant` pairs, measured once per process.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(0)
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .saturating_sub(clock_overhead_ns())
}

/// A wrapper-local meter for one hot boundary: counts every call, times a
/// sample of them, and adds its estimate to a shared [`Tally`] when the
/// wrapper is dropped. Interior mutability lets `&self` trait methods
/// (`is_throttled`) be metered; the wrappers are `Send` but not `Sync`, as
/// the traits require.
#[derive(Debug, Default)]
struct Meter {
    count: Cell<u64>,
    sampled: Cell<u64>,
    sampled_nanos: Cell<u64>,
}

impl Meter {
    fn measure<T>(&self, f: impl FnOnce() -> T) -> T {
        let n = self.count.get();
        self.count.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.sampled_nanos.set(self.sampled_nanos.get() + nanos_since(started));
        self.sampled.set(self.sampled.get() + 1);
        out
    }

    fn flush_into(&self, tally: &Tally) {
        let (count, sampled) = (self.count.get(), self.sampled.get());
        let nanos = if sampled == 0 {
            0
        } else {
            (u128::from(self.sampled_nanos.get()) * u128::from(count) / u128::from(sampled)) as u64
        };
        tally.add(count, nanos);
    }
}

/// The aggregated boundaries of one simulation run. Shared by every wrapper
/// the run installs (one scheduler and redirect cache per SM, one program
/// per warp); complete once the run has returned and dropped them.
#[derive(Debug, Default)]
pub struct RunProbe {
    /// `WarpScheduler::pick`.
    pub pick: Tally,
    /// `pick` calls that returned `None`.
    pub pick_none: AtomicU64,
    /// Every other `WarpScheduler` method: the event hooks, `route`,
    /// `is_throttled`, `on_idle_cycles`.
    pub hook: Tally,
    /// `Kernel::warp_program` (building one warp's program), timed on
    /// every call.
    pub build: Tally,
    /// `WarpProgram::next_op`.
    pub next_op: Tally,
    /// `RedirectCache::lookup`.
    pub lookup: Tally,
    /// `lookup` calls that hit.
    pub lookup_hits: AtomicU64,
    /// `RedirectCache::fill`.
    pub fill: Tally,
}

impl RunProbe {
    /// Nanoseconds spent in every wrapped child boundary of the run.
    pub fn child_nanos(&self) -> u64 {
        [&self.pick, &self.hook, &self.build, &self.next_op, &self.lookup, &self.fill]
            .iter()
            .map(|t| t.nanos())
            .sum()
    }
}

/// Wraps one SM's scheduler and redirect cache in timing wrappers.
pub fn wrap_unit(unit: SmUnit, probe: &Arc<RunProbe>) -> SmUnit {
    let (inner, redirect) = unit;
    let scheduler: Box<dyn WarpScheduler> = Box::new(TimedScheduler {
        inner,
        probe: Arc::clone(probe),
        pick: Meter::default(),
        pick_none: Cell::new(0),
        hook: Meter::default(),
    });
    let redirect = redirect.map(|inner| {
        Box::new(TimedRedirect {
            inner,
            probe: Arc::clone(probe),
            lookup: Meter::default(),
            hits: 0,
            fill: Meter::default(),
        }) as Box<dyn RedirectCache>
    });
    (scheduler, redirect)
}

/// A [`WarpScheduler`] that meters every call into the wrapped policy.
pub struct TimedScheduler {
    inner: Box<dyn WarpScheduler>,
    probe: Arc<RunProbe>,
    pick: Meter,
    pick_none: Cell<u64>,
    hook: Meter,
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        self.pick.flush_into(&self.probe.pick);
        self.hook.flush_into(&self.probe.hook);
        self.probe.pick_none.fetch_add(self.pick_none.get(), Ordering::Relaxed);
    }
}

impl WarpScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        let picked = self.pick.measure(|| self.inner.pick(ctx));
        if picked.is_none() {
            self.pick_none.set(self.pick_none.get() + 1);
        }
        picked
    }

    fn on_idle_cycles(&mut self, ctx: &SchedulerCtx<'_>, skipped: u64) {
        self.hook.measure(|| self.inner.on_idle_cycles(ctx, skipped))
    }

    fn on_issue(&mut self, wid: WarpId, is_mem: bool, now: Cycle) {
        self.hook.measure(|| self.inner.on_issue(wid, is_mem, now))
    }

    fn on_cache_event(&mut self, ev: &CacheEvent) {
        self.hook.measure(|| self.inner.on_cache_event(ev))
    }

    fn on_warp_launched(&mut self, wid: WarpId, now: Cycle) {
        self.hook.measure(|| self.inner.on_warp_launched(wid, now))
    }

    fn on_warp_finished(&mut self, wid: WarpId, now: Cycle) {
        self.hook.measure(|| self.inner.on_warp_finished(wid, now))
    }

    fn route(&mut self, wid: WarpId) -> MemRoute {
        self.hook.measure(|| self.inner.route(wid))
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        self.hook.measure(|| self.inner.is_throttled(wid))
    }

    fn throttles_loads_only(&self) -> bool {
        self.inner.throttles_loads_only()
    }

    fn metrics(&self) -> SchedulerMetrics {
        self.inner.metrics()
    }
}

/// A [`RedirectCache`] that meters lookups and fills.
pub struct TimedRedirect {
    inner: Box<dyn RedirectCache>,
    probe: Arc<RunProbe>,
    lookup: Meter,
    hits: u64,
    fill: Meter,
}

impl Drop for TimedRedirect {
    fn drop(&mut self) {
        self.lookup.flush_into(&self.probe.lookup);
        self.fill.flush_into(&self.probe.fill);
        self.probe.lookup_hits.fetch_add(self.hits, Ordering::Relaxed);
    }
}

impl RedirectCache for TimedRedirect {
    fn lookup(&mut self, block_addr: Addr, wid: WarpId, is_write: bool) -> RedirectLookup {
        let out = self.lookup.measure(|| self.inner.lookup(block_addr, wid, is_write));
        if matches!(out, RedirectLookup::Hit { .. }) {
            self.hits += 1;
        }
        out
    }

    fn fill(&mut self, block_addr: Addr, wid: WarpId) -> Option<EvictedLine> {
        self.fill.measure(|| self.inner.fill(block_addr, wid))
    }

    fn utilization(&self) -> f64 {
        self.inner.utilization()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn hits(&self) -> u64 {
        self.inner.hits()
    }

    fn misses(&self) -> u64 {
        self.inner.misses()
    }

    fn invalidate_all(&mut self) {
        self.inner.invalidate_all()
    }

    fn set_capacity(&mut self, unused_bytes: u64) {
        self.inner.set_capacity(unused_bytes)
    }
}

/// A [`Kernel`] whose program builds and warp programs are metered.
pub struct TimedKernel {
    inner: Arc<dyn Kernel>,
    probe: Arc<RunProbe>,
}

impl TimedKernel {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Arc<dyn Kernel>, probe: &Arc<RunProbe>) -> Self {
        TimedKernel { inner, probe: Arc::clone(probe) }
    }
}

impl Kernel for TimedKernel {
    fn info(&self) -> KernelInfo {
        self.inner.info()
    }

    fn warp_program(&self, cta: CtaId, warp_in_cta: usize) -> Box<dyn WarpProgram> {
        let started = Instant::now();
        let inner = self.inner.warp_program(cta, warp_in_cta);
        self.probe.build.add(1, nanos_since(started));
        Box::new(TimedProgram { inner, probe: Arc::clone(&self.probe), next_op: Meter::default() })
    }
}

/// A [`WarpProgram`] whose `next_op` calls are metered.
pub struct TimedProgram {
    inner: Box<dyn WarpProgram>,
    probe: Arc<RunProbe>,
    next_op: Meter,
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        self.next_op.flush_into(&self.probe.next_op);
    }
}

impl WarpProgram for TimedProgram {
    fn next_op(&mut self) -> Option<WarpOp> {
        self.next_op.measure(|| self.inner.next_op())
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.boundary` name, e.g. `gpu-sim.execute`.
    pub name: String,
    /// Start, in ns since the log origin.
    pub start_ns: u64,
    /// End, in ns since the log origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Operation (run) the span belongs to.
    pub run: usize,
}

/// One aggregated boundary of one run.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Operation (run) the figures belong to.
    pub run: usize,
    /// `layer.boundary` name, e.g. `sched.gto.pick`.
    pub name: String,
    /// Calls.
    pub count: u64,
    /// Total nanoseconds inside the calls.
    pub nanos: u64,
}

/// The traced run's span log, kept in memory and written out at exit.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    aggregates: Mutex<Vec<Aggregate>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Mutex::default(), aggregates: Mutex::default() }
    }
}

impl SpanLog {
    fn since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: usize,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned by a panicking run");
        spans.push(Span {
            name: name.to_string(),
            start_ns: self.since_origin(start),
            end_ns: self.since_origin(end),
            parent,
            run,
        });
        spans.len() - 1
    }

    /// Records one aggregated boundary of a run.
    pub fn aggregate(&self, run: usize, name: String, tally: &Tally) {
        let (count, nanos) = (tally.count(), tally.nanos());
        let mut aggregates = self.aggregates.lock().expect("span log poisoned by a panicking run");
        aggregates.push(Aggregate { run, name, count, nanos });
    }

    /// The log as JSON lines: one object per span, then one per aggregate.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.spans.lock().expect("span log poisoned by a panicking run").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"kind\":\"span\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent, s.run
            ));
        }
        for a in self.aggregates.lock().expect("span log poisoned by a panicking run").iter() {
            out.push_str(&format!(
                "{{\"kind\":\"aggregate\",\"name\":\"{}\",\"run\":{},\"count\":{},\"total_ns\":{}}}\n",
                a.name, a.run, a.count, a.nanos
            ));
        }
        out
    }
}

//! One-call simulation driver.
//!
//! Describe a run with a [`SimRequest`] — kernel streams with arrival
//! cycles, the [`DispatchPolicy`], the SM count, and the
//! [`BackendKind`] timing mode — then hand it to
//! [`Simulator::execute`], which wraps [`Sm`] / [`crate::gpu::Gpu`]
//! construction and the
//! run loop and packages everything the experiment harness needs (aggregate
//! stats, per-SM breakdowns, time series, interference matrix, scheduler
//! metrics) into a [`SimResult`]. `SimRequest` + `execute` is the *only*
//! entry point — the legacy `run` / `run_chip` / `run_mix` / `run_mix_at`
//! quartet it subsumed is gone.

use std::sync::Arc;

use crate::config::GpuConfig;
use crate::dispatch::{DispatchPolicy, KernelQueue, QosSpec};
use crate::event::BackendKind;
use crate::gpu::SmUnit;
use crate::kernel::Kernel;
use crate::redirect::RedirectCache;
use crate::scheduler::{SchedulerMetrics, WarpScheduler};
use crate::sm::Sm;
use crate::stats::{DispatchLog, InterferenceMatrix, SmImbalance, SmStats, TimeSeries};
use gpu_mem::interconnect::{Crossbar, CrossbarStats, FabricStats, Interconnect};
use gpu_mem::{Cycle, TenantId, TenantMemStats};
use serde::{Deserialize, Serialize};
use sim_obs::{ObsLevel, ObsReport, PhaseProfiler};

/// Version of the [`SimResult`] JSON shape.
///
/// * **v1** (implicit, never serialised) — everything up to and including
///   the pipelined shared-memory backend.
/// * **v2** — adds `schema_version` itself and `backend` (the label of the
///   timing backend that produced the result).
/// * **v3** — adds per-tenant `qos` (the [`crate::dispatch::LatencyClass`]
///   label of the stream's [`QosSpec`]) for the fleet tier's SLO reports.
pub const SCHEMA_VERSION: u32 = 3;

/// One tenant's (kernel stream's) share of a chip run: its own progress
/// counters plus the shared-resource usage attributed to it throughout the
/// memory system. `Σ` over tenants of every counter equals the corresponding
/// chip total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantResult {
    /// Tenant identity (dense, `0..num_tenants`).
    pub tenant: TenantId,
    /// Name of the tenant's kernel / benchmark.
    pub kernel: String,
    /// Latency-class label of the stream's [`QosSpec`] (`"batch"` /
    /// `"interactive"`) — the SLO tier fleet reports group by.
    pub qos: String,
    /// Dynamic warp instructions the tenant executed.
    pub instructions: u64,
    /// Chip cycle at which the tenant's last warp finished (its turnaround
    /// time; under the serial `exclusive` policy this includes queueing
    /// behind earlier kernels).
    pub finish_cycle: Cycle,
    /// Whether the tenant was cut short by an instruction/cycle cap.
    pub capped: bool,
    /// L1D lookups performed for the tenant's warps (across all its SMs).
    pub l1d_accesses: u64,
    /// Of those, the lookups that hit.
    pub l1d_hits: u64,
    /// Bytes the tenant injected into its SMs' crossbar injection ports.
    pub xbar_bytes: u64,
    /// Bytes the tenant pushed through the shared request-direction fabric
    /// (0 on single-SM runs, which have no shared fabric).
    pub fabric_request_bytes: u64,
    /// Bytes returned to the tenant through the shared reply-direction
    /// fabric (0 on single-SM runs).
    pub fabric_reply_bytes: u64,
    /// Shared L2/DRAM usage attributed to the tenant.
    pub mem: TenantMemStats,
}

impl TenantResult {
    /// The tenant's own instructions-per-cycle over its turnaround time.
    pub fn ipc(&self) -> f64 {
        if self.finish_cycle == 0 {
            0.0
        } else {
            self.instructions as f64 / self.finish_cycle as f64
        }
    }

    /// L1D hit rate of the tenant's accesses.
    pub fn l1d_hit_rate(&self) -> f64 {
        if self.l1d_accesses == 0 {
            0.0
        } else {
            self.l1d_hits as f64 / self.l1d_accesses as f64
        }
    }

    /// The tenant's share of `total` chip L2 misses — the "L2-contention
    /// share" the mix reports use to show who is flooding the shared cache.
    pub fn l2_miss_share(&self, total_l2_misses: u64) -> f64 {
        if total_l2_misses == 0 {
            0.0
        } else {
            self.mem.l2_misses() as f64 / total_l2_misses as f64
        }
    }
}

/// Everything produced by one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Version of this JSON shape; see [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Label of the timing mode that produced the result
    /// ([`BackendKind::label`]: `"epoch"` or `"event"`). Both modes are
    /// bit-identical in every other field.
    pub backend: String,
    /// Name of the scheduler that produced this result.
    pub scheduler: String,
    /// Name of the kernel / benchmark simulated (co-execution runs join the
    /// tenant kernel names with `+`).
    pub kernel: String,
    /// Label of the [`DispatchPolicy`] that placed CTAs on SMs.
    pub policy: String,
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Aggregate SM statistics.
    pub stats: SmStats,
    /// Instruction-indexed time series (Figs. 9, 10).
    pub time_series: TimeSeries,
    /// Inter-warp interference matrix (Figs. 1a, 4a).
    pub interference: InterferenceMatrix,
    /// Scheduler-specific counters at the end of the run.
    pub scheduler_metrics: SchedulerMetrics,
    /// Whether the run ended because it hit an instruction/cycle cap rather
    /// than finishing the kernel (on a multi-SM chip: any SM hit a cap).
    pub capped: bool,
    /// Number of SMs simulated (1 for the legacy single-SM path).
    pub num_sms: usize,
    /// Per-SM statistics, indexed by SM; `stats` is their
    /// [`SmStats::reduce`] aggregate.
    pub per_sm: Vec<SmStats>,
    /// Per-tenant breakdown, indexed by tenant; single-kernel runs have
    /// exactly one entry covering the whole run.
    pub per_tenant: Vec<TenantResult>,
    /// SM↔L2 interconnect traffic aggregated over every SM's crossbar
    /// injection port.
    pub interconnect: CrossbarStats,
    /// Shared crossbar-fabric traffic (request and reply directions, with
    /// queueing cycles and per-tenant bytes). Empty/zero for single-SM runs,
    /// which have no shared fabric.
    pub fabric: FabricStats,
    /// Epoch-boundary decision log of the `interference-aware` dispatch
    /// policy (per-tenant hit-rate windows, classifications, throttle /
    /// restore actions); empty for static policies.
    pub dispatch_log: DispatchLog,
}

impl SimResult {
    /// Instructions per cycle of the run.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// L1D hit rate of the run.
    pub fn l1d_hit_rate(&self) -> f64 {
        self.stats.l1d.hit_rate()
    }

    /// Spread of per-SM IPC (min/max/stddev) — the partitioning-skew signal.
    pub fn sm_imbalance(&self) -> SmImbalance {
        SmImbalance::of(&self.per_sm)
    }

    /// Per-tenant IPCs in tenant order (inputs to the STP/ANTT metrics).
    pub fn tenant_ipcs(&self) -> Vec<f64> {
        self.per_tenant.iter().map(|t| t.ipc()).collect()
    }
}

/// A builder-style description of one simulation run: which kernel streams
/// to co-execute (with their arrival cycles and [`QosSpec`] contracts),
/// under which [`DispatchPolicy`], on how many SMs, driven by which
/// [`BackendKind`] timing mode. Consumed by [`Simulator::execute`].
#[derive(Clone)]
pub struct SimRequest {
    kernels: Vec<Arc<dyn Kernel>>,
    arrivals: Vec<Cycle>,
    qos: Vec<QosSpec>,
    policy: DispatchPolicy,
    backend: BackendKind,
    num_sms: Option<usize>,
    obs: ObsLevel,
}

impl Default for SimRequest {
    fn default() -> Self {
        SimRequest {
            kernels: Vec::new(),
            arrivals: Vec::new(),
            qos: Vec::new(),
            policy: DispatchPolicy::Exclusive,
            backend: BackendKind::default(),
            num_sms: None,
            obs: ObsLevel::Off,
        }
    }
}

impl SimRequest {
    /// An empty request: no streams yet, [`DispatchPolicy::Exclusive`], the
    /// default (event) timing mode, and the configuration's SM count.
    pub fn new() -> Self {
        SimRequest::default()
    }

    /// A single-stream request for `kernel` arriving at cycle 0.
    pub fn kernel(kernel: Arc<dyn Kernel>) -> Self {
        SimRequest::new().stream(kernel)
    }

    /// Appends a kernel stream arriving at cycle 0. Tenant ids follow
    /// submission order.
    pub fn stream(self, kernel: Arc<dyn Kernel>) -> Self {
        self.stream_at(kernel, 0)
    }

    /// Appends a kernel stream arriving at chip cycle `arrival` (admitted at
    /// the first epoch boundary at or after it; the serial `Exclusive`
    /// policy starts it no earlier than both its arrival and the previous
    /// kernel's completion).
    pub fn stream_at(self, kernel: Arc<dyn Kernel>, arrival: Cycle) -> Self {
        self.stream_qos_at(kernel, arrival, QosSpec::default())
    }

    /// Appends a kernel stream arriving at `arrival` with an explicit
    /// [`QosSpec`]: the interference-aware dispatcher enforces its floors
    /// and reserved SMs, and every policy reports its latency class in
    /// [`TenantResult::qos`].
    pub fn stream_qos_at(mut self, kernel: Arc<dyn Kernel>, arrival: Cycle, qos: QosSpec) -> Self {
        self.kernels.push(kernel);
        self.arrivals.push(arrival);
        self.qos.push(qos);
        self
    }

    /// Sets the CTA dispatch policy (default [`DispatchPolicy::Exclusive`]).
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the timing mode (default [`BackendKind::Event`]; `epoch` is the
    /// per-cycle reference mode, bit-identical and slower).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the SM count (default: the simulator configuration's
    /// `num_sms`). A count of 1 selects the legacy single-SM engine with a
    /// private memory partition.
    pub fn num_sms(mut self, num_sms: usize) -> Self {
        self.num_sms = Some(num_sms);
        self
    }

    /// Sets the observability level (default [`ObsLevel::Off`]). Anything
    /// above `Off` makes [`Simulator::execute_observed`] return a populated
    /// [`ObsReport`]; plain [`Simulator::execute`] discards it.
    pub fn obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// The streams submitted so far.
    pub fn streams(&self) -> usize {
        self.kernels.len()
    }
}

/// Builder-style simulation front end.
pub struct Simulator {
    config: GpuConfig,
}

impl Simulator {
    /// Creates a simulator with the given machine configuration.
    pub fn new(config: GpuConfig) -> Self {
        Simulator { config }
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Executes `req` and returns the collected results. `build_unit` is
    /// called once per SM per engine (per kernel for the serial `Exclusive`
    /// policy) to construct that SM's scheduler and optional redirect cache.
    ///
    /// Routing, all bit-identical to the legacy entry points it subsumed:
    ///
    /// * one stream, one SM, arrival 0, `Exclusive` — the single-SM engine
    ///   with a private memory partition (the legacy configuration every
    ///   recorded baseline number comes from);
    /// * everything else — a chip of `num_sms` SMs against the shared banked
    ///   L2/DRAM backend via [`KernelQueue`] (see [`KernelQueue::run`] for
    ///   the policy semantics).
    ///
    /// The [`BackendKind`] chooses the timing mode; `epoch` and `event`
    /// produce bit-identical results, differing only in wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics when `req` has no streams.
    pub fn execute<F>(&self, req: SimRequest, build_unit: F) -> SimResult
    where
        F: FnMut(usize) -> SmUnit,
    {
        self.execute_observed(req, build_unit).0
    }

    /// [`Simulator::execute`] plus the run's [`ObsReport`]: sim-time trace
    /// events, the metrics registry and the wall-clock phase profile, at the
    /// request's [`SimRequest::obs`] level. The simulation result is
    /// byte-identical to what [`Simulator::execute`] returns for the same
    /// request — collection is strictly passive.
    pub fn execute_observed<F>(&self, req: SimRequest, mut build_unit: F) -> (SimResult, ObsReport)
    where
        F: FnMut(usize) -> SmUnit,
    {
        assert!(!req.kernels.is_empty(), "a SimRequest needs at least one kernel stream");
        let num_sms = req.num_sms.unwrap_or(self.config.num_sms).max(1);
        let static_single = req.kernels.len() == 1
            && num_sms == 1
            && req.arrivals.iter().all(|&a| a == 0)
            && matches!(req.policy, DispatchPolicy::Exclusive);
        if static_single {
            let kernel = req.kernels.into_iter().next().expect("one stream");
            let qos = req.qos.into_iter().next().unwrap_or_default();
            let (scheduler, redirect) = build_unit(0);
            return self.run_single(kernel, scheduler, redirect, req.backend, req.obs, qos);
        }
        let config = if num_sms == self.config.num_sms {
            self.config.clone()
        } else {
            self.config.clone().with_num_sms(num_sms)
        };
        let mut queue = KernelQueue::new();
        for ((kernel, arrival), qos) in req.kernels.into_iter().zip(req.arrivals).zip(req.qos) {
            queue.push_qos_at(kernel, arrival, qos);
        }
        queue.run_with_observed(&config, req.policy, req.backend, req.obs, build_unit)
    }

    /// The legacy single-SM path: one kernel, one SM, a private memory
    /// partition. Kept verbatim so `execute` reproduces historical baseline
    /// numbers bit for bit.
    fn run_single(
        &self,
        kernel: Arc<dyn Kernel>,
        scheduler: Box<dyn WarpScheduler>,
        redirect: Option<Box<dyn RedirectCache>>,
        backend: BackendKind,
        obs: ObsLevel,
        qos: QosSpec,
    ) -> (SimResult, ObsReport) {
        let kernel_name = kernel.info().name.clone();
        let scheduler_name = scheduler.name().to_string();
        let interconnect = Interconnect::new(
            self.config.interconnect_latency,
            self.config.interconnect_bytes_per_cycle,
        );
        let port = crate::gpu::MemoryPort::private(self.config.partition.clone());
        let work = Sm::work_of(kernel, 0);
        let mut sm =
            Sm::with_parts(self.config.clone(), work, scheduler, redirect, interconnect, port);
        let mut profiler =
            if obs.metrics_enabled() { PhaseProfiler::enabled() } else { PhaseProfiler::default() };
        if obs.metrics_enabled() {
            sm.enable_port_obs(obs.trace_enabled());
        }
        if obs.trace_enabled() {
            sm.set_trace(0);
        }
        profiler.enter("sm-run");
        sm.advance(Cycle::MAX, backend == BackendKind::Event);
        sm.finalize_stats();
        profiler.exit();
        let mut report = ObsReport::new(obs);
        report.tenants = vec![kernel_name.clone()];
        report.profile = profiler;
        if let Some(mut trace) = sm.take_trace() {
            report.dropped_events += trace.dropped();
            report.events.extend(trace.take());
        }
        if let Some(sink) = sm.take_port_obs() {
            if let Some(mut trace) = sink.trace {
                report.dropped_events += trace.dropped();
                report.events.extend(trace.take());
            }
            for (tenant, hist) in sink.latency.iter().enumerate() {
                if hist.count() > 0 {
                    report.metrics.histogram_merge("mem-latency", Some(tenant as u32), hist);
                }
            }
        }
        let capped = !sm.is_done();
        let stats = sm.stats().clone();
        let totals = sm.tenant_stats().first().copied().unwrap_or_default();
        let mem = sm.partition_tenant_stats().and_then(|t| t.first().copied()).unwrap_or_default();
        let per_tenant = vec![TenantResult {
            tenant: 0,
            kernel: kernel_name.clone(),
            qos: qos.latency.label().to_string(),
            instructions: totals.instructions,
            finish_cycle: totals.finish_cycle,
            capped: !totals.done,
            l1d_accesses: totals.l1d_accesses,
            l1d_hits: totals.l1d_hits,
            xbar_bytes: totals.xbar_bytes,
            fabric_request_bytes: 0,
            fabric_reply_bytes: 0,
            mem,
        }];
        let result = SimResult {
            schema_version: SCHEMA_VERSION,
            backend: backend.label().to_string(),
            scheduler: scheduler_name,
            kernel: kernel_name,
            policy: DispatchPolicy::Exclusive.label().to_string(),
            cycles: sm.cycle(),
            per_sm: vec![stats.clone()],
            stats,
            time_series: sm.time_series().clone(),
            interference: sm.interference_matrix().clone(),
            scheduler_metrics: sm.scheduler().metrics(),
            capped,
            num_sms: 1,
            per_tenant,
            interconnect: Crossbar::aggregate([sm.interconnect()]),
            fabric: FabricStats::default(),
            dispatch_log: DispatchLog::default(),
        };
        (result, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ClosureKernel, KernelInfo};
    use crate::scheduler::{GtoScheduler, LrrScheduler};
    use crate::trace::{VecProgram, WarpOp};

    fn kernel(n_ops: usize) -> Arc<dyn Kernel> {
        let info =
            KernelInfo { name: "drv".into(), num_ctas: 2, warps_per_cta: 4, shared_mem_per_cta: 0 };
        Arc::new(ClosureKernel::new(info, move |cta, w| {
            let ops = (0..n_ops)
                .map(|i| {
                    WarpOp::coalesced_load(
                        ((cta as u64 * 29 + w as u64 * 7 + i as u64) % 4096) * 128,
                    )
                })
                .collect();
            Box::new(VecProgram::new(ops))
        }))
    }

    fn gto(_sm: usize) -> SmUnit {
        (Box::new(GtoScheduler::new()), None)
    }

    #[test]
    fn simulator_produces_result() {
        let sim = Simulator::new(GpuConfig::gtx480().with_sample_interval(20));
        let res = sim.execute(SimRequest::kernel(kernel(20)).num_sms(1), gto);
        assert_eq!(res.schema_version, SCHEMA_VERSION);
        assert_eq!(res.backend, "event", "the event mode is the default");
        assert_eq!(res.scheduler, "GTO");
        assert_eq!(res.kernel, "drv");
        assert!(!res.capped);
        assert_eq!(res.stats.instructions, 2 * 4 * 20);
        assert!(res.ipc() > 0.0);
        assert!(res.l1d_hit_rate() >= 0.0 && res.l1d_hit_rate() <= 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let a = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), gto);
        let b = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), gto);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.l1d, b.stats.l1d);
        assert_eq!(a.stats.instructions, b.stats.instructions);
    }

    #[test]
    fn different_schedulers_can_differ() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let a = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), gto);
        let b = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), |_| {
            (Box::new(LrrScheduler::new()), None)
        });
        // Same work is executed regardless of order.
        assert_eq!(a.stats.instructions, b.stats.instructions);
        assert_eq!(a.stats.mem_transactions, b.stats.mem_transactions);
    }

    /// The QoS contract rides along every request path: the latency-class
    /// label lands in `TenantResult::qos` on both the single-SM route and
    /// the chip route, and defaults to `batch`.
    #[test]
    fn qos_labels_reach_tenant_results() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let single = sim.execute(
            SimRequest::new().stream_qos_at(kernel(10), 0, QosSpec::interactive(2)).num_sms(1),
            gto,
        );
        assert_eq!(
            single.per_tenant[0].qos, "interactive",
            "1-SM exclusive ignores floors but the label rides along"
        );
        let sim4 = Simulator::new(GpuConfig::gtx480().with_num_sms(4));
        let res = sim4.execute(
            SimRequest::new()
                .stream_qos_at(kernel(20), 0, QosSpec::interactive(2))
                .stream(kernel(20))
                .policy(DispatchPolicy::SharedRoundRobin),
            gto,
        );
        assert_eq!(res.per_tenant[0].qos, "interactive");
        assert_eq!(res.per_tenant[1].qos, "batch");
    }

    #[test]
    fn event_mode_matches_reference_on_single_sm() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let epoch =
            sim.execute(SimRequest::kernel(kernel(30)).num_sms(1).backend(BackendKind::Epoch), gto);
        let mut event =
            sim.execute(SimRequest::kernel(kernel(30)).num_sms(1).backend(BackendKind::Event), gto);
        assert_eq!(epoch.backend, "epoch");
        assert_eq!(event.backend, "event");
        event.backend = epoch.backend.clone();
        assert_eq!(
            serde_json::to_string(&epoch).unwrap(),
            serde_json::to_string(&event).unwrap(),
            "event mode must be bit-identical to the reference mode"
        );
    }

    /// Pins the v3 JSON shape: `schema_version`, `backend` and the
    /// per-tenant `qos` label are plain, always-present fields (the vendored
    /// serde derive has no field defaults, so consumers rely on them being
    /// written out), and the result round-trips.
    #[test]
    fn schema_v3_round_trips_and_pins_new_fields() {
        let sim = Simulator::new(GpuConfig::gtx480().with_sample_interval(20));
        let res = sim.execute(SimRequest::kernel(kernel(10)).num_sms(1), gto);
        let json = serde_json::to_string(&res).unwrap();
        assert!(json.contains("\"schema_version\":3"), "v3 tag missing: {json}");
        assert!(json.contains("\"backend\":\"event\""), "backend label missing: {json}");
        assert!(json.contains("\"qos\":\"batch\""), "per-tenant qos label missing: {json}");
        let back: SimResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.backend, res.backend);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}

//! The four benchmark workloads: their set-up, one measured pass, and the
//! traced variant of that pass.
//!
//! A pass is a fixed set of operations. The untraced pass drives the
//! simulator only through its public entry points (`Runner::run_one`,
//! `Runner::run_mix`, `TrafficSpec::generate`, `Fleet::execute`); the traced
//! pass issues the same requests with the timing wrappers of [`crate::probe`]
//! installed and `ObsLevel::Metrics` armed.

use crate::hostclock::HostClock;
use crate::layers::LayerAcc;
use crate::probe::{wrap_unit, RunProbe, SpanLog, TimedKernel};
use ciao_harness::{RunScale, Runner, SchedulerKind};
use ciao_workloads::{Benchmark, Mix};
use gpu_fleet::{Calibration, Fleet, FleetRequest, FleetResult, PlacementPolicy, TrafficSpec};
use gpu_sim::{
    CtaId, DispatchPolicy, GpuConfig, Kernel, ObsLevel, ObsReport, SimRequest, SimResult, Simulator,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Chips in the `fleet-8chip` fleet.
pub const FLEET_CHIPS: usize = 8;
/// SMs per fleet chip.
pub const FLEET_SMS: usize = 8;
/// Arrivals per fleet execution.
pub const FLEET_ARRIVALS: usize = 100_000;
/// Mean inter-arrival gap of the fleet traffic, in cycles: just below the
/// point where the 8-chip fleet saturates.
pub const FLEET_GAP: f64 = 60_000.0;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8 matrix: 21 benchmarks × 7 schedulers on 1 SM, Quick scale.
    Fig8Sm1,
    /// Cache-resident mixes on the paper's 15-SM chip, Full scale.
    MixReuseSm15,
    /// Bandwidth-bound mixes on the 128-SM capacity chip, Full scale.
    MixStreamSm128,
    /// An 8-chip × 8-SM fleet under open-loop traffic.
    Fleet8Chip,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Fig8Sm1, Workload::MixReuseSm15, Workload::MixStreamSm128, Workload::Fleet8Chip];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Sm1 => "fig8-sm1",
            Workload::MixReuseSm15 => "mix-reuse-sm15",
            Workload::MixStreamSm128 => "mix-stream-sm128",
            Workload::Fleet8Chip => "fleet-8chip",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulation the pass issues.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// One benchmark alone on the runner's chip.
    Solo(Benchmark, SchedulerKind),
    /// A co-run of a mix under a dispatch policy.
    Mix(Mix, DispatchPolicy, SchedulerKind),
}

impl Job {
    /// Stable label, e.g. `SYRK/GTO` or `cache-cache/shared-rr/CIAO-C`.
    pub fn label(self) -> String {
        match self {
            Job::Solo(b, s) => format!("{}/{}", b.name(), s.label()),
            Job::Mix(m, p, s) => format!("{}/{}/{}", m.name(), p.label(), s.label()),
        }
    }

    /// The scheduler the job runs.
    pub fn scheduler(self) -> SchedulerKind {
        match self {
            Job::Solo(_, s) | Job::Mix(_, _, s) => s,
        }
    }

    /// The benchmarks whose kernels the job runs, in tenant order.
    pub fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            Job::Solo(b, _) => vec![b],
            Job::Mix(m, _, _) => m.benchmarks(),
        }
    }
}

/// Everything set-up produces for one workload and seed.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Runner of the simulation workloads.
    pub runner: Option<Runner>,
    /// Simulations of one pass, in issue order.
    pub jobs: Vec<Job>,
    /// Dynamic operation count of each benchmark's kernel at the runner's
    /// scale: a run that finishes its kernel executes exactly this many
    /// instructions.
    pub kernel_ops: BTreeMap<&'static str, u64>,
    /// Fleet calibration measured against the chip engine.
    pub calibration: Option<Calibration>,
    /// Fleet traffic spec.
    pub traffic: Option<TrafficSpec>,
}

/// The simulations of one pass of a simulation workload.
fn jobs(workload: Workload) -> Vec<Job> {
    let co_runs = |mixes: &[Mix]| -> Vec<Job> {
        let mut out = Vec::new();
        for &mix in mixes {
            for policy in [DispatchPolicy::SharedRoundRobin, DispatchPolicy::InterferenceAware] {
                for sched in [SchedulerKind::Gto, SchedulerKind::CiaoC] {
                    out.push(Job::Mix(mix, policy, sched));
                }
            }
        }
        // Alone baselines for STP: every tenant benchmark on the same chip.
        let mut solos: Vec<Benchmark> = mixes.iter().flat_map(|m| m.benchmarks()).collect();
        solos.sort_by_key(|b| b.name());
        solos.dedup();
        for b in solos {
            for sched in [SchedulerKind::Gto, SchedulerKind::CiaoC] {
                out.push(Job::Solo(b, sched));
            }
        }
        out
    };
    match workload {
        // Scheduler-major order: a benchmark's 7 runs, which take similar
        // host time, are spread over the pass, so a spell of host noise
        // slows a cross-section of the latency distribution rather than
        // every run near one of its quantiles.
        Workload::Fig8Sm1 => SchedulerKind::all()
            .into_iter()
            .flat_map(|s| Benchmark::all().into_iter().map(move |b| Job::Solo(b, s)))
            .collect(),
        Workload::MixReuseSm15 => co_runs(&[Mix::CacheCache, Mix::CacheCompute]),
        Workload::MixStreamSm128 => co_runs(&[Mix::StreamStream, Mix::CacheStream, Mix::Quad]),
        Workload::Fleet8Chip => Vec::new(),
    }
}

/// The dynamic operation count of `kernel`: builds every warp's program and
/// walks it to the end.
fn kernel_ops(kernel: &dyn Kernel) -> u64 {
    let info = kernel.info();
    let ctas = CtaId::try_from(info.num_ctas).expect("CTA count fits a CTA id");
    let mut ops = 0u64;
    for cta in 0..ctas {
        for warp in 0..info.warps_per_cta {
            let mut program = kernel.warp_program(cta, warp);
            while program.next_op().is_some() {
                ops += 1;
            }
        }
    }
    ops
}

/// The Fig. 8 matrix always runs at experiment seed 0, whatever the workload
/// seed. Its host time is dominated by runs that stall at the cycle cap, and
/// how many of them stall changes with the trace seed (4 to 7 over seeds
/// 0–19), which would swamp any host-speed change (see README).
const FIG8_TRACE_SEED: u64 = 0;

/// Cycle cap of the Fig. 8 matrix, in place of the configuration's 50 M.
/// Every run that does not stall ends by 2.1 M cycles, so the same 4 runs
/// stall and the rest keep their results; at 50 M the stalls alone take
/// about 85 s of host time, more than one run of the benchmark may take.
pub const FIG8_MAX_CYCLES: u64 = 5_000_000;

/// Runs set-up: configuration, kernel build (and each kernel's operation
/// count) and, for the fleet, engine calibration.
pub fn setup(workload: Workload, seed: u64) -> Prepared {
    let runner = match workload {
        Workload::Fig8Sm1 => {
            Some(Runner::new(RunScale::Quick).with_seed(FIG8_TRACE_SEED).with_config(GpuConfig {
                max_cycles: Some(FIG8_MAX_CYCLES),
                ..GpuConfig::gtx480()
            }))
        }
        Workload::MixReuseSm15 => Some(Runner::new(RunScale::Full).with_sms(15).with_seed(seed)),
        Workload::MixStreamSm128 => Some(Runner::new(RunScale::Full).with_sms(128).with_seed(seed)),
        Workload::Fleet8Chip => None,
    };
    let jobs = jobs(workload);
    let mut kernel_ops_by_bench = BTreeMap::new();
    if let Some(runner) = &runner {
        let scale = runner.effective_scale();
        for job in &jobs {
            for b in job.benchmarks() {
                kernel_ops_by_bench
                    .entry(b.name())
                    .or_insert_with(|| kernel_ops(&b.kernel(&scale)));
            }
        }
    }
    let (calibration, traffic) = match workload {
        Workload::Fleet8Chip => (
            Some(Calibration::measure(FLEET_SMS)),
            Some(
                TrafficSpec::profile("balanced", FLEET_ARRIVALS, seed)
                    .expect("balanced is a built-in traffic profile")
                    .with_mean_interarrival(FLEET_GAP),
            ),
        ),
        _ => (None, None),
    };
    Prepared { workload, runner, jobs, kernel_ops: kernel_ops_by_bench, calibration, traffic }
}

/// How a simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every kernel ran to completion.
    Finished,
    /// Stopped at the instruction cap (the scale's normal end).
    InstructionCapped,
    /// Stopped at the cycle cap short of the instruction cap.
    Stalled,
}

/// Classifies a simulation result against the runner's caps.
pub fn classify(res: &SimResult, max_instructions: u64) -> Outcome {
    if !res.capped {
        Outcome::Finished
    } else if res.stats.instructions >= max_instructions {
        Outcome::InstructionCapped
    } else {
        Outcome::Stalled
    }
}

/// The result of one simulation of a pass.
pub struct SimOp {
    /// The job.
    pub job: Job,
    /// Nanoseconds of the call at the reference host speed.
    pub scaled_ns: f64,
    /// The result, or the panic message.
    pub result: Result<SimResult, String>,
}

/// One fleet execution of a pass.
pub struct FleetOp {
    /// The placement policy.
    pub placement: PlacementPolicy,
    /// Nanoseconds of the call at the reference host speed.
    pub scaled_ns: f64,
    /// The result, or the panic message.
    pub result: Result<FleetResult, String>,
}

/// The outputs and timings of one pass.
#[derive(Default)]
pub struct Pass {
    /// Host nanoseconds of the pass's operations (reference chunks
    /// excluded).
    pub wall_ns: u64,
    /// Nanoseconds of the pass's operations at the reference host speed.
    pub scaled_wall_ns: f64,
    /// Simulations, in job order.
    pub sims: Vec<SimOp>,
    /// Jobs of the generated traffic.
    pub traffic_jobs: u64,
    /// Total instructions of the generated traffic.
    pub traffic_work: u64,
    /// Fleet executions, spread first.
    pub fleets: Vec<FleetOp>,
}

impl Pass {
    fn add_time(&mut self, nanos: u64, scaled_ns: f64) {
        self.wall_ns += nanos;
        self.scaled_wall_ns += scaled_ns;
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// The tracing state of a traced pass.
pub struct Tracing<'a> {
    /// Span log.
    pub log: &'a SpanLog,
    /// Per-layer accumulators.
    pub acc: &'a Mutex<LayerAcc>,
}

/// Runs one pass, timing each operation on `clock`: untraced when
/// `tracing` is `None`.
pub fn run_pass(prep: &Prepared, tracing: Option<&Tracing<'_>>, clock: &mut HostClock) -> Pass {
    match prep.workload {
        Workload::Fleet8Chip => fleet_pass(prep, tracing, clock),
        _ => sim_pass(prep, tracing, clock),
    }
}

fn sim_pass(prep: &Prepared, tracing: Option<&Tracing<'_>>, clock: &mut HostClock) -> Pass {
    let runner = prep.runner.as_ref().expect("simulation workloads have a runner");
    let mut pass = Pass::default();
    for (idx, &job) in prep.jobs.iter().enumerate() {
        let (outcome, nanos, scaled_ns) = clock.time(|| {
            let started = Instant::now();
            catch_unwind(AssertUnwindSafe(|| match tracing {
                None => untraced(runner, job),
                Some(t) => traced(runner, job, idx, started, t),
            }))
        });
        pass.add_time(nanos, scaled_ns);
        pass.sims.push(SimOp { job, scaled_ns, result: outcome.map_err(panic_message) });
    }
    pass
}

fn untraced(runner: &Runner, job: Job) -> SimResult {
    match job {
        Job::Solo(b, s) => runner.run_one(b, s),
        Job::Mix(m, p, s) => runner.run_mix(m, p, s),
    }
}

/// Issues the request `Runner::run_one` / `Runner::run_mix` would issue for
/// `job`, with timing wrappers recording into `probe` around its kernels,
/// schedulers and redirect caches, at `ObsLevel::Metrics`.
pub fn run_wrapped(runner: &Runner, job: Job, probe: &Arc<RunProbe>) -> (SimResult, ObsReport) {
    let config = runner.effective_config();
    let scale = runner.effective_scale();
    let (kernels, arrivals, profile): (Vec<Arc<dyn Kernel>>, Vec<u64>, Benchmark) = match job {
        Job::Solo(b, _) => (vec![Arc::new(b.kernel(&scale))], vec![0], b),
        Job::Mix(m, _, _) => {
            (m.kernels(&scale), m.staggered_arrivals(runner.arrival_stride), m.benchmarks()[0])
        }
    };
    let mut req =
        SimRequest::new().num_sms(runner.sms).backend(runner.backend).obs(ObsLevel::Metrics);
    if let Job::Mix(_, policy, _) = job {
        req = req.policy(policy);
    }
    for (k, kernel) in kernels.into_iter().enumerate() {
        let timed: Arc<dyn Kernel> = Arc::new(TimedKernel::new(kernel, probe));
        req = req.stream_at(timed, arrivals.get(k).copied().unwrap_or(0));
    }
    let sim = Simulator::new(config.clone());
    let sched = job.scheduler();
    sim.execute_observed(req, |_sm| wrap_unit(sched.build(profile, &config, &runner.params), probe))
}

/// One traced operation: [`run_wrapped`] under spans, its figures added to
/// the pass's accumulators.
fn traced(runner: &Runner, job: Job, run: usize, started: Instant, t: &Tracing<'_>) -> SimResult {
    let probe = Arc::new(RunProbe::default());
    let exec_start = Instant::now();
    let (res, report) = run_wrapped(runner, job, &probe);
    let exec_end = Instant::now();
    let op_span = t.log.push("harness.op", started, exec_end, None, run);
    t.log.push("gpu-sim.execute", exec_start, exec_end, Some(op_span), run);
    let label = job.scheduler().label().to_ascii_lowercase();
    t.log.aggregate(run, format!("sched.{label}.pick"), &probe.pick);
    t.log.aggregate(run, format!("sched.{label}.hook"), &probe.hook);
    t.log.aggregate(run, "workloads.build".to_string(), &probe.build);
    t.log.aggregate(run, "workloads.next_op".to_string(), &probe.next_op);
    t.log.aggregate(run, "core.redirect.lookup".to_string(), &probe.lookup);
    t.log.aggregate(run, "core.redirect.fill".to_string(), &probe.fill);
    let exec_ns = u64::try_from((exec_end - exec_start).as_nanos()).unwrap_or(u64::MAX);
    let op_ns = elapsed_ns(started);
    t.acc
        .lock()
        .expect("layer accumulator poisoned")
        .add_sim(&label, &probe, &res, &report, exec_ns, op_ns);
    res
}

fn fleet_request(prep: &Prepared, placement: PlacementPolicy, obs: ObsLevel) -> FleetRequest {
    FleetRequest::new(prep.traffic.clone().expect("fleet workload has traffic"))
        .chips(FLEET_CHIPS)
        .sms_per_chip(FLEET_SMS)
        .placement(placement)
        .calibration(prep.calibration.clone().expect("fleet workload is calibrated"))
        .workers(1)
        .obs(obs)
}

fn fleet_pass(prep: &Prepared, tracing: Option<&Tracing<'_>>, clock: &mut HostClock) -> Pass {
    let traffic = prep.traffic.as_ref().expect("fleet workload has traffic");
    let mut pass = Pass::default();
    let started = Instant::now();
    let (arrivals, nanos, scaled_ns) = clock.time(|| traffic.generate());
    pass.add_time(nanos, scaled_ns);
    if let Some(t) = tracing {
        t.log.push("gpu-fleet.traffic", started, Instant::now(), None, 0);
        t.acc.lock().expect("layer accumulator poisoned").traffic_ns += nanos;
    }
    pass.traffic_jobs = arrivals.len() as u64;
    pass.traffic_work = arrivals.iter().map(|a| a.work).sum();
    for (run, placement) in
        [PlacementPolicy::InterferenceSpread, PlacementPolicy::BinPack].into_iter().enumerate()
    {
        let started = Instant::now();
        let (outcome, nanos, scaled_ns) = clock.time(|| {
            catch_unwind(AssertUnwindSafe(|| match tracing {
                None => (Fleet::new().execute(fleet_request(prep, placement, ObsLevel::Off)), None),
                Some(_) => {
                    let (res, report) = Fleet::new().execute_observed(fleet_request(
                        prep,
                        placement,
                        ObsLevel::Metrics,
                    ));
                    (res, Some(report))
                }
            }))
        });
        pass.add_time(nanos, scaled_ns);
        let result = match outcome {
            Ok((res, report)) => {
                if let (Some(t), Some(report)) = (tracing, report) {
                    let name = format!("gpu-fleet.execute.{}", placement.label());
                    t.log.push(&name, started, Instant::now(), None, run + 1);
                    t.acc
                        .lock()
                        .expect("layer accumulator poisoned")
                        .add_fleet(placement, &res, &report, nanos);
                }
                Ok(res)
            }
            Err(payload) => Err(panic_message(payload)),
        };
        pass.fleets.push(FleetOp { placement, scaled_ns, result });
    }
    pass
}

/// Measures the fleet calibration again under a span, for the traced run's
/// `gpu-fleet.calib_ms`.
pub fn traced_calibration(t: &Tracing<'_>) -> Calibration {
    let started = Instant::now();
    let calib = Calibration::measure(FLEET_SMS);
    t.log.push("gpu-fleet.calibrate", started, Instant::now(), None, 0);
    t.acc.lock().expect("layer accumulator poisoned").calib_ns += elapsed_ns(started);
    calib
}

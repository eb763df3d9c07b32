//! Output checks, outcome accounting, the digest of the modelled outputs and
//! the modelled results the benchmark records (ungated).

use crate::workload::{classify, FleetOp, Job, Outcome, Pass, Prepared, Workload};
use ciao_harness::experiments::fig8;
use ciao_harness::{geometric_mean, RunRecord, SchedulerKind};
use ciao_workloads::{characteristics, Benchmark};
use gpu_sim::{system_throughput, DispatchPolicy, SimResult};
use std::collections::BTreeMap;

/// Operation counts of one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Operations attempted: simulation runs, or fleet jobs.
    pub attempted: u64,
    /// Runs that finished their kernels (or fleet jobs that completed).
    pub finished: u64,
    /// Runs that stopped at the instruction cap.
    pub capped: u64,
    /// Runs that stopped at the cycle cap short of the instruction cap.
    pub stalled: u64,
    /// Operations that panicked or produced output that failed a check.
    pub errors: u64,
}

impl Accounting {
    /// Operations that did not stall and did not fail: finished or capped.
    pub fn completed(&self) -> u64 {
        self.finished + self.capped
    }
}

/// Checks every output of `pass`, returning the pass's accounting and one
/// message per violated check.
pub fn check_pass(prep: &Prepared, pass: &Pass) -> (Accounting, Vec<String>) {
    let mut acc = Accounting::default();
    let mut errors = Vec::new();
    if let Some(runner) = &prep.runner {
        let max_instructions = runner.scale.max_instructions();
        for op in &pass.sims {
            acc.attempted += 1;
            let res = match &op.result {
                Ok(res) => res,
                Err(msg) => {
                    acc.errors += 1;
                    errors.push(format!("{}: panicked: {msg}", op.job.label()));
                    continue;
                }
            };
            let violations = check_sim(prep, op.job, res);
            if !violations.is_empty() {
                acc.errors += 1;
                errors.extend(violations.into_iter().map(|v| format!("{}: {v}", op.job.label())));
                continue;
            }
            match classify(res, max_instructions) {
                Outcome::Finished => acc.finished += 1,
                Outcome::InstructionCapped => acc.capped += 1,
                Outcome::Stalled => acc.stalled += 1,
            }
        }
    }
    for FleetOp { placement, result, .. } in &pass.fleets {
        acc.attempted += pass.traffic_jobs;
        match result {
            Err(msg) => {
                acc.errors += pass.traffic_jobs;
                errors.push(format!("fleet {}: panicked: {msg}", placement.label()));
            }
            Ok(res) => {
                let completed: u64 = res.per_chip.iter().map(|c| c.completed).sum();
                let classed: u64 = res.per_class.iter().map(|c| c.jobs).sum();
                let mut bad = Vec::new();
                if res.arrivals != pass.traffic_jobs {
                    bad.push(format!(
                        "{} arrivals, traffic has {}",
                        res.arrivals, pass.traffic_jobs
                    ));
                }
                if completed != pass.traffic_jobs || classed != pass.traffic_jobs {
                    bad.push(format!(
                        "{completed} jobs completed on chips and {classed} by class, {} arrived",
                        pass.traffic_jobs
                    ));
                }
                if res.per_class.iter().any(|c| c.slo_violations > c.jobs) {
                    bad.push("more SLO violations than jobs in a class".to_string());
                }
                if bad.is_empty() {
                    acc.finished += pass.traffic_jobs;
                } else {
                    acc.errors += pass.traffic_jobs.saturating_sub(completed.min(classed));
                    acc.finished += completed.min(classed);
                    errors.extend(
                        bad.into_iter().map(|b| format!("fleet {}: {b}", placement.label())),
                    );
                }
            }
        }
    }
    (acc, errors)
}

/// The invariants one simulation result must hold.
fn check_sim(prep: &Prepared, job: Job, res: &SimResult) -> Vec<String> {
    let mut bad = Vec::new();
    let st = &res.stats;
    let per_sm: u64 = res.per_sm.iter().map(|s| s.instructions).sum();
    if per_sm != st.instructions {
        bad.push(format!("per-SM instructions sum to {per_sm}, stats say {}", st.instructions));
    }
    let per_tenant: u64 = res.per_tenant.iter().map(|t| t.instructions).sum();
    if per_tenant != st.instructions {
        bad.push(format!(
            "per-tenant instructions sum to {per_tenant}, stats say {}",
            st.instructions
        ));
    }
    for (name, cache) in [("L1D", &st.l1d), ("L2", &st.l2)] {
        if cache.read_hits + cache.write_hits > cache.accesses() {
            bad.push(format!("{name} hits exceed accesses"));
        }
    }
    for sm in &res.per_sm {
        if sm.l1d.read_hits + sm.l1d.write_hits > sm.l1d.accesses() {
            bad.push("a per-SM L1D has more hits than accesses".to_string());
        }
    }
    for t in &res.per_tenant {
        if t.mem.l2_hits > t.mem.l2_accesses {
            bad.push(format!("tenant {} has more L2 hits than accesses", t.tenant));
        }
    }
    // A tenant that finished its kernel executed exactly the kernel's
    // operations; a capped one executed no more than that.
    for (t, bench) in res.per_tenant.iter().zip(job.benchmarks()) {
        let ops = prep.kernel_ops[bench.name()];
        let ok = if t.capped { t.instructions <= ops } else { t.instructions == ops };
        if !ok {
            bad.push(format!(
                "tenant {} ({}) ran {} instructions, its kernel has {ops}{}",
                t.tenant,
                bench.name(),
                t.instructions,
                if t.capped { " (capped)" } else { "" }
            ));
        }
    }
    if res.per_tenant.len() != job.benchmarks().len() {
        bad.push(format!("{} tenants, job has {}", res.per_tenant.len(), job.benchmarks().len()));
    }
    bad
}

/// FNV-1a over the serialised modelled outputs of a pass: every
/// `SimResult` and `FleetResult`, in issue order. Identical across passes,
/// thread counts and tracing; a change that claims to be a pure speed-up
/// must leave it unchanged.
pub fn digest(pass: &Pass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for json in result_jsons(pass) {
        feed(json.as_bytes());
    }
    h
}

/// Every modelled output of a pass as JSON, in issue order (panicked
/// operations serialise as their message).
pub fn result_jsons(pass: &Pass) -> Vec<String> {
    let sims = pass.sims.iter().map(|op| match &op.result {
        Ok(res) => serde_json::to_string(res).expect("SimResult serialises"),
        Err(msg) => format!("panic: {msg}"),
    });
    let fleets = pass.fleets.iter().map(|f| match &f.result {
        Ok(res) => serde_json::to_string(res).expect("FleetResult serialises"),
        Err(msg) => format!("panic: {msg}"),
    });
    sims.chain(fleets).collect()
}

/// Simulated warp instructions of a pass, or the modelled instructions of
/// the completed fleet jobs.
pub fn instructions(pass: &Pass) -> u64 {
    let sims: u64 = pass
        .sims
        .iter()
        .filter_map(|op| op.result.as_ref().ok())
        .map(|r| r.stats.instructions)
        .sum();
    let fleet_runs = pass.fleets.iter().filter(|f| f.result.is_ok()).count() as u64;
    sims + fleet_runs * pass.traffic_work
}

/// One row of the APKI accuracy table.
#[derive(Debug, Clone)]
pub struct ApkiRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// APKI measured under GTO.
    pub measured: f64,
    /// APKI of the paper's Table II.
    pub paper: f64,
}

impl ApkiRow {
    /// The error factor: max(measured/paper, paper/measured).
    pub fn factor(&self) -> f64 {
        let (m, p) = (self.measured.max(1e-9), self.paper.max(1e-9));
        (m / p).max(p / m)
    }
}

/// The APKI of every GTO solo run of a pass against Table II.
pub fn apki_rows(pass: &Pass) -> Vec<ApkiRow> {
    let mut rows: Vec<ApkiRow> = Vec::new();
    for op in &pass.sims {
        let (Job::Solo(b, SchedulerKind::Gto), Ok(res)) = (op.job, &op.result) else { continue };
        let paper = characteristics::lookup(b.name()).expect("every benchmark is in Table II");
        rows.push(ApkiRow { benchmark: b.name(), measured: res.stats.apki(), paper: paper.apki });
    }
    rows
}

/// The geometric-mean APKI error factor of `rows`.
pub fn apki_err_x(rows: &[ApkiRow]) -> f64 {
    geometric_mean(&rows.iter().map(ApkiRow::factor).collect::<Vec<_>>())
}

/// The modelled results of a pass (deterministic, recorded but ungated):
/// name → value.
pub fn model_results(prep: &Prepared, pass: &Pass) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let ok = |job: Job| -> Option<&SimResult> {
        pass.sims
            .iter()
            .find(|op| op.job.label() == job.label())
            .and_then(|op| op.result.as_ref().ok())
    };
    match prep.workload {
        Workload::Fig8Sm1 => {
            let records: Vec<RunRecord> = pass
                .sims
                .iter()
                .filter_map(|op| match (op.job, &op.result) {
                    (Job::Solo(b, s), Ok(res)) => Some(RunRecord::from_result(b, s, res)),
                    _ => None,
                })
                .collect();
            let summary = fig8::summarize(records, &Benchmark::all());
            for (class, key) in [("LWS", "lws"), ("SWS", "sws"), ("CI", "ci")] {
                if let Some(v) = summary.class_geomeans.get(class).and_then(|m| m.get("CIAO-C")) {
                    out.insert(format!("model.ciao_c_over_gto.{key}"), *v);
                }
            }
            if let Some(v) = summary.overall_geomeans.get("CIAO-C") {
                out.insert("model.ciao_c_over_gto.all".to_string(), *v);
            }
        }
        Workload::MixReuseSm15 | Workload::MixStreamSm128 => {
            let mut ratios = Vec::new();
            for job in &prep.jobs {
                let Job::Mix(mix, DispatchPolicy::InterferenceAware, sched) = *job else {
                    continue;
                };
                let stp = |policy| -> Option<f64> {
                    let shared = ok(Job::Mix(mix, policy, sched))?.tenant_ipcs();
                    let alone = mix
                        .benchmarks()
                        .into_iter()
                        .map(|b| ok(Job::Solo(b, sched)).map(SimResult::ipc))
                        .collect::<Option<Vec<f64>>>()?;
                    Some(system_throughput(&alone, &shared))
                };
                if let (Some(ia), Some(rr)) =
                    (stp(DispatchPolicy::InterferenceAware), stp(DispatchPolicy::SharedRoundRobin))
                {
                    out.insert(format!("model.stp.{}.{}.ia", mix.name(), sched.label()), ia);
                    out.insert(format!("model.stp.{}.{}.rr", mix.name(), sched.label()), rr);
                    ratios.push(ia / rr);
                }
            }
            out.insert("model.ia_over_rr_stp".to_string(), geometric_mean(&ratios));
        }
        Workload::Fleet8Chip => {
            let stp = |p: gpu_fleet::PlacementPolicy| {
                pass.fleets
                    .iter()
                    .find(|f| f.placement == p)
                    .and_then(|f| f.result.as_ref().ok())
                    .map(|r| (r.fleet_stp, r.total_slo_violations()))
            };
            if let (Some((spread, sv)), Some((pack, pv))) = (
                stp(gpu_fleet::PlacementPolicy::InterferenceSpread),
                stp(gpu_fleet::PlacementPolicy::BinPack),
            ) {
                out.insert("model.fleet_spread_over_pack_stp".to_string(), spread / pack);
                out.insert("model.fleet_slo_violations.spread".to_string(), sv as f64);
                out.insert("model.fleet_slo_violations.pack".to_string(), pv as f64);
            }
        }
    }
    out
}

/// Re-runs the solo half of the fleet calibration (`Calibration::measure`'s
/// three solo GTO runs at Tiny scale) and checks the calibration's solo IPCs
/// against it bit for bit. Returns the runs' APKI rows and any violations.
pub fn check_calibration(calib: &gpu_fleet::Calibration) -> (Vec<ApkiRow>, Vec<String>) {
    use gpu_fleet::{class_benchmark, WorkClass};
    use gpu_sim::{BackendKind, GpuConfig, GtoScheduler, Kernel, SimRequest, Simulator};
    use std::sync::Arc;

    let scale = ciao_workloads::ScaleConfig::tiny();
    let sim = Simulator::new(GpuConfig::default().with_num_sms(calib.sms));
    let mut rows = Vec::new();
    let mut bad = Vec::new();
    for class in WorkClass::ALL {
        let bench = class_benchmark(class);
        let kernel: Arc<dyn Kernel> = Arc::new(bench.kernel(&scale));
        let res = sim.execute(
            SimRequest::kernel(kernel).num_sms(calib.sms).backend(BackendKind::Event),
            |_sm| (Box::new(GtoScheduler::new()), None),
        );
        if res.ipc().to_bits() != calib.solo_rate(class).to_bits() {
            bad.push(format!(
                "calibration solo IPC of {} is {}, a solo run gives {}",
                class.label(),
                calib.solo_rate(class),
                res.ipc()
            ));
        }
        let paper = characteristics::lookup(bench.name()).expect("every benchmark is in Table II");
        rows.push(ApkiRow {
            benchmark: bench.name(),
            measured: res.stats.apki(),
            paper: paper.apki,
        });
    }
    (rows, bad)
}

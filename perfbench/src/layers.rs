//! Per-layer accumulators of the traced pass and the per-layer metric table
//! built from them.

use crate::probe::RunProbe;
use ciao_harness::SchedulerKind;
use gpu_fleet::{FleetResult, PlacementPolicy};
use gpu_sim::{ObsReport, SimResult};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Scheduler-layer figures of one scheduler label.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedAcc {
    picks: u64,
    pick_ns: u64,
    pick_none: u64,
    hook_ns: u64,
    sm_cycles: u64,
}

/// Engine phases of `PhaseProfiler` reported per layer.
const SIM_PHASES: [&str; 7] =
    ["sm-run", "pop-advance", "deliver", "collect", "dispatch", "sleep", "sm-wait"];
const MEM_PHASES: [&str; 4] = ["serve-events", "fabric-request", "bank-service", "fabric-reply"];

/// Everything the traced pass accumulates, summed over its operations.
#[derive(Debug, Default)]
pub struct LayerAcc {
    sched: BTreeMap<String, SchedAcc>,
    programs: u64,
    build_ns: u64,
    ops: u64,
    next_op_ns: u64,
    lookups: u64,
    lookup_hits: u64,
    lookup_ns: u64,
    fill_ns: u64,
    exec_ns: u64,
    child_ns: u64,
    /// Host nanoseconds of every traced operation, layer calls included.
    op_ns: u64,
    cycles: u64,
    sm_cycles: u64,
    busy_sms: u64,
    sms: u64,
    idle_cycles: u64,
    counters: BTreeMap<&'static str, u64>,
    phase_ns: BTreeMap<&'static str, u64>,
    l1d_accesses: u64,
    l1d_hits: u64,
    l2_accesses: u64,
    l2_hits: u64,
    dram_accesses: u64,
    mem_transactions: u64,
    cross_warp_evictions: u64,
    fabric_bytes: u64,
    fabric_queue_cycles: u64,
    /// Host nanoseconds of the traced `Calibration::measure`.
    pub calib_ns: u64,
    /// Host nanoseconds of the traced `TrafficSpec::generate`.
    pub traffic_ns: u64,
    execute_ns: BTreeMap<&'static str, u64>,
    skipped_chip_epochs: u64,
    chip_util_sum: f64,
    chips: u64,
    peak_queue: u64,
    slo_violations: u64,
    fleet_jobs: u64,
    /// Simulations (or fleet executions) the traced pass ran.
    runs: u64,
    /// Simulations that stalled at the cycle cap.
    pub stalled_runs: u64,
}

impl LayerAcc {
    /// Adds one traced simulation.
    pub fn add_sim(
        &mut self,
        sched_label: &str,
        probe: &RunProbe,
        res: &SimResult,
        report: &ObsReport,
        exec_ns: u64,
        op_ns: u64,
    ) {
        let sm_cycles = res.per_sm.iter().map(|s| s.cycles).sum::<u64>().max(res.cycles);
        let s = self.sched.entry(sched_label.to_string()).or_default();
        s.picks += probe.pick.count();
        s.pick_ns += probe.pick.nanos();
        s.pick_none += probe.pick_none.load(Ordering::Relaxed);
        s.hook_ns += probe.hook.nanos();
        s.sm_cycles += sm_cycles;
        self.programs += probe.build.count();
        self.build_ns += probe.build.nanos();
        self.ops += probe.next_op.count();
        self.next_op_ns += probe.next_op.nanos();
        self.lookups += probe.lookup.count();
        self.lookup_hits += probe.lookup_hits.load(Ordering::Relaxed);
        self.lookup_ns += probe.lookup.nanos();
        self.fill_ns += probe.fill.nanos();
        self.exec_ns += exec_ns;
        self.child_ns += probe.child_nanos();
        self.op_ns += op_ns;
        self.cycles += res.cycles;
        self.sm_cycles += sm_cycles;
        self.sms += res.num_sms as u64;
        self.busy_sms += res.per_sm.iter().filter(|s| s.instructions > 0).count() as u64;
        self.idle_cycles += res.stats.idle_cycles;
        for (key, name) in [
            ("skipped_boundaries", "engine/skipped-boundaries"),
            ("sleeps", "engine/sleeps"),
            ("dispatch_decisions", "dispatch-decisions"),
            ("dispatch_throttles", "dispatch-throttles"),
        ] {
            *self.counters.entry(key).or_default() += report.metrics.counter(name, None);
        }
        for (name, stat) in report.profile.rows() {
            if SIM_PHASES.contains(&name) || MEM_PHASES.contains(&name) {
                *self.phase_ns.entry(name).or_default() +=
                    u64::try_from(stat.self_time.as_nanos()).unwrap_or(u64::MAX);
            }
        }
        let st = &res.stats;
        self.l1d_accesses += st.l1d.accesses();
        self.l1d_hits += st.l1d.read_hits + st.l1d.write_hits;
        self.l2_accesses += st.l2.accesses();
        self.l2_hits += st.l2.read_hits + st.l2.write_hits;
        self.dram_accesses += st.dram.accesses;
        self.mem_transactions += st.mem_transactions;
        self.cross_warp_evictions += st.cross_warp_evictions + st.redirect_cross_warp_evictions;
        self.fabric_bytes +=
            res.fabric.request.bytes_transferred + res.fabric.reply.bytes_transferred;
        self.fabric_queue_cycles +=
            res.fabric.request.queueing_cycles + res.fabric.reply.queueing_cycles;
        self.runs += 1;
    }

    /// Adds one traced fleet execution.
    pub fn add_fleet(
        &mut self,
        placement: PlacementPolicy,
        res: &FleetResult,
        report: &ObsReport,
        nanos: u64,
    ) {
        let key = match placement {
            PlacementPolicy::InterferenceSpread => "spread",
            PlacementPolicy::BinPack => "pack",
        };
        *self.execute_ns.entry(key).or_default() += nanos;
        self.op_ns += nanos;
        self.skipped_chip_epochs += report.metrics.counter("engine/skipped-chip-epochs", None);
        self.chip_util_sum += res.per_chip.iter().map(|c| c.utilization).sum::<f64>();
        self.chips += res.per_chip.len() as u64;
        self.peak_queue = self
            .peak_queue
            .max(res.per_chip.iter().map(|c| c.peak_queue as u64).max().unwrap_or(0));
        self.slo_violations += res.total_slo_violations();
        self.fleet_jobs += res.arrivals;
        self.runs += 1;
    }

    /// Host nanoseconds the layers account for: every simulation's execute
    /// call and every fleet execution.
    pub fn attributed_ns(&self) -> u64 {
        self.exec_ns + self.execute_ns.values().sum::<u64>()
    }
}

/// One per-layer metric: name, value, unit.
pub type LayerMetric = (String, f64, &'static str);

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metric table, in a fixed order. `overhead_x` is the traced
/// pass's wall time over the untraced pass's.
pub fn metrics(acc: &LayerAcc, overhead_x: f64) -> Vec<LayerMetric> {
    let mut out: Vec<LayerMetric> = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| out.push((name, value, unit));

    put("workloads.build_ms".into(), ms(acc.build_ns), "ms");
    put("workloads.programs".into(), acc.programs as f64, "count");
    put("workloads.ops".into(), acc.ops as f64, "count");
    put("workloads.next_op_ms".into(), ms(acc.next_op_ns), "ms");

    for kind in SchedulerKind::all() {
        let label = kind.label().to_ascii_lowercase();
        let s = acc.sched.get(&label).copied().unwrap_or_default();
        put(format!("sched.{label}.picks"), s.picks as f64, "count");
        put(format!("sched.{label}.pick_ms"), ms(s.pick_ns), "ms");
        put(format!("sched.{label}.pick_none_ratio"), ratio(s.pick_none, s.picks), "ratio");
        put(format!("sched.{label}.hook_ms"), ms(s.hook_ns), "ms");
        put(
            format!("sched.{label}.picks_per_kcycle"),
            ratio(s.picks * 1000, s.sm_cycles),
            "1/kcycle",
        );
    }

    put("core.redirect.lookups".into(), acc.lookups as f64, "count");
    put("core.redirect.lookup_ms".into(), ms(acc.lookup_ns), "ms");
    put("core.redirect.fill_ms".into(), ms(acc.fill_ns), "ms");
    put("core.redirect.hit_ratio".into(), ratio(acc.lookup_hits, acc.lookups), "ratio");

    put("gpu-sim.self_ms".into(), ms(acc.exec_ns.saturating_sub(acc.child_ns)), "ms");
    put("gpu-sim.busy_sm_share".into(), ratio(acc.busy_sms, acc.sms), "ratio");
    put("gpu-sim.idle_cycle_share".into(), ratio(acc.idle_cycles, acc.sm_cycles), "ratio");
    put("gpu-sim.host_ns_per_cycle".into(), ratio(acc.exec_ns, acc.cycles), "ns/cycle");
    for key in ["skipped_boundaries", "sleeps", "dispatch_decisions", "dispatch_throttles"] {
        put(format!("gpu-sim.{key}"), acc.counters.get(key).copied().unwrap_or(0) as f64, "count");
    }
    for phase in SIM_PHASES {
        put(format!("gpu-sim.{phase}_ms"), ms(acc.phase_ns.get(phase).copied().unwrap_or(0)), "ms");
    }

    put("gpu-mem.l1d_accesses".into(), acc.l1d_accesses as f64, "count");
    put("gpu-mem.l1d_hit_ratio".into(), ratio(acc.l1d_hits, acc.l1d_accesses), "ratio");
    put("gpu-mem.l2_hit_ratio".into(), ratio(acc.l2_hits, acc.l2_accesses), "ratio");
    put("gpu-mem.dram_accesses".into(), acc.dram_accesses as f64, "count");
    put("gpu-mem.mem_transactions".into(), acc.mem_transactions as f64, "count");
    put("gpu-mem.cross_warp_evictions".into(), acc.cross_warp_evictions as f64, "count");
    put("gpu-mem.fabric_bytes".into(), acc.fabric_bytes as f64, "B");
    put("gpu-mem.fabric_queue_cycles".into(), acc.fabric_queue_cycles as f64, "cycles");
    for phase in MEM_PHASES {
        put(format!("gpu-mem.{phase}_ms"), ms(acc.phase_ns.get(phase).copied().unwrap_or(0)), "ms");
    }

    put("gpu-fleet.calib_ms".into(), ms(acc.calib_ns), "ms");
    put("gpu-fleet.traffic_ms".into(), ms(acc.traffic_ns), "ms");
    for key in ["spread", "pack"] {
        put(
            format!("gpu-fleet.execute_ms.{key}"),
            ms(acc.execute_ns.get(key).copied().unwrap_or(0)),
            "ms",
        );
    }
    put("gpu-fleet.skipped_chip_epochs".into(), acc.skipped_chip_epochs as f64, "count");
    put(
        "gpu-fleet.chip_util".into(),
        if acc.chips == 0 { 0.0 } else { acc.chip_util_sum / acc.chips as f64 },
        "ratio",
    );
    put("gpu-fleet.peak_queue".into(), acc.peak_queue as f64, "count");
    put("gpu-fleet.slo_violation_share".into(), ratio(acc.slo_violations, acc.fleet_jobs), "ratio");

    put("harness.runs".into(), acc.runs as f64, "count");
    put("harness.stalled_runs".into(), acc.stalled_runs as f64, "count");
    put(
        "harness.unattributed_share".into(),
        ratio(acc.op_ns.saturating_sub(acc.attributed_ns()), acc.op_ns),
        "ratio",
    );
    put("harness.trace_overhead_x".into(), overhead_x, "x");
    out
}

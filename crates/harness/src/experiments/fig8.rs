//! Figure 8: overall performance of the seven schedulers.
//!
//! * **8a** — per-benchmark IPC normalised to GTO, plus the geometric mean of
//!   each benchmark class (LWS, SWS, CI) and overall;
//! * **8b** — shared-memory utilisation ratio of the CIAO-P redirect cache,
//!   aggregated per class.

use crate::report::{capped_marker, capped_summary, geometric_mean, stalled_summary, Table};
use crate::runner::{normalize_to, RunRecord, Runner};
use crate::schedulers::SchedulerKind;
use ciao_workloads::{Benchmark, BenchmarkClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Combined Fig. 8 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Result {
    /// Raw per-run records.
    pub records: Vec<RunRecord>,
    /// (benchmark, scheduler) → IPC normalised to GTO.
    pub normalized: Vec<(String, String, f64)>,
    /// Per-class geometric means: class label → (scheduler → geomean).
    pub class_geomeans: BTreeMap<String, BTreeMap<String, f64>>,
    /// Overall geometric mean per scheduler.
    pub overall_geomeans: BTreeMap<String, f64>,
    /// Shared-memory cache utilisation per class under CIAO-P (Fig. 8b).
    pub shmem_utilization: BTreeMap<String, f64>,
    /// Runs (`benchmark/scheduler`) that ended at the cycle cap short of
    /// the instruction cap: diagnosed stalls, not budget-limited runs.
    pub stalled: Vec<String>,
}

/// Runs the Fig. 8 experiment over `benchmarks` and `schedulers`.
pub fn run(runner: &Runner, benchmarks: &[Benchmark], schedulers: &[SchedulerKind]) -> Fig8Result {
    let records = runner.run_matrix(benchmarks, schedulers);
    let max_instructions = runner.effective_config().max_instructions;
    let mut result = summarize(records, benchmarks);
    result.stalled = result
        .records
        .iter()
        .filter(|r| r.capped && max_instructions.is_none_or(|m| r.instructions < m))
        .map(|r| format!("{}/{}", r.benchmark, r.scheduler))
        .collect();
    result
}

/// Aggregates pre-computed records into the Fig. 8 summary (kept separate so
/// other experiments and tests can reuse it).
pub fn summarize(records: Vec<RunRecord>, benchmarks: &[Benchmark]) -> Fig8Result {
    let normalized = normalize_to(&records, SchedulerKind::Gto.label());

    let mut class_geomeans: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut overall_geomeans: BTreeMap<String, f64> = BTreeMap::new();
    let schedulers: Vec<String> = {
        let mut seen = Vec::new();
        for r in &records {
            if !seen.contains(&r.scheduler) {
                seen.push(r.scheduler.clone());
            }
        }
        seen
    };
    for sched in &schedulers {
        let all: Vec<f64> =
            normalized.iter().filter(|(_, s, _)| s == sched).map(|&(_, _, v)| v).collect();
        overall_geomeans.insert(sched.clone(), geometric_mean(&all));
        for class in [BenchmarkClass::Lws, BenchmarkClass::Sws, BenchmarkClass::Ci] {
            let members: Vec<&str> =
                benchmarks.iter().filter(|b| b.class() == class).map(|b| b.name()).collect();
            if members.is_empty() {
                continue;
            }
            let values: Vec<f64> = normalized
                .iter()
                .filter(|(b, s, _)| s == sched && members.contains(&b.as_str()))
                .map(|&(_, _, v)| v)
                .collect();
            class_geomeans
                .entry(class.label().to_string())
                .or_default()
                .insert(sched.clone(), geometric_mean(&values));
        }
    }

    // Fig. 8b: shared-memory utilisation of the redirect cache under CIAO-P.
    let mut shmem_utilization = BTreeMap::new();
    for class in [BenchmarkClass::Lws, BenchmarkClass::Sws, BenchmarkClass::Ci] {
        let members: Vec<&str> =
            benchmarks.iter().filter(|b| b.class() == class).map(|b| b.name()).collect();
        let values: Vec<f64> = records
            .iter()
            .filter(|r| {
                r.scheduler == SchedulerKind::CiaoP.label()
                    && members.contains(&r.benchmark.as_str())
            })
            .map(|r| r.redirect_utilization)
            .collect();
        if !values.is_empty() {
            shmem_utilization.insert(
                class.label().to_string(),
                values.iter().sum::<f64>() / values.len() as f64,
            );
        }
    }

    Fig8Result {
        records,
        normalized,
        class_geomeans,
        overall_geomeans,
        shmem_utilization,
        stalled: Vec::new(),
    }
}

/// Renders both panels.
pub fn render(result: &Fig8Result) -> String {
    let mut out = String::new();
    let schedulers: Vec<String> = result.overall_geomeans.keys().cloned().collect();

    let mut header = vec!["Benchmark".to_string()];
    header.extend(schedulers.iter().cloned());
    let mut t = Table::new("Fig. 8a: IPC normalised to GTO", &[]);
    t.row(header);
    let mut benchmarks: Vec<String> = Vec::new();
    for (b, _, _) in &result.normalized {
        if !benchmarks.contains(b) {
            benchmarks.push(b.clone());
        }
    }
    for b in &benchmarks {
        let any_capped = result.records.iter().any(|r| &r.benchmark == b && r.capped);
        let mut row = vec![format!("{b}{}", capped_marker(any_capped))];
        for s in &schedulers {
            let v = result
                .normalized
                .iter()
                .find(|(bb, ss, _)| bb == b && ss == s)
                .map(|&(_, _, v)| v)
                .unwrap_or(0.0);
            row.push(format!("{v:.2}"));
        }
        t.row(row);
    }
    for (class, per_sched) in &result.class_geomeans {
        let mut row = vec![format!("geomean {class}")];
        for s in &schedulers {
            row.push(format!("{:.2}", per_sched.get(s).copied().unwrap_or(0.0)));
        }
        t.row(row);
    }
    let mut row = vec!["geomean ALL".to_string()];
    for s in &schedulers {
        row.push(format!("{:.2}", result.overall_geomeans.get(s).copied().unwrap_or(0.0)));
    }
    t.row(row);
    out.push_str(&t.render());
    let capped_runs = result.records.iter().filter(|r| r.capped).count();
    out.push_str(&capped_summary(capped_runs, result.records.len()));
    out.push_str(&stalled_summary(&result.stalled, result.records.len()));
    out.push('\n');

    let mut u =
        Table::new("Fig. 8b: shared-memory utilisation under CIAO-P", &["Class", "Utilisation"]);
    for (class, util) in &result.shmem_utilization {
        u.row(vec![class.clone(), format!("{util:.2}")]);
    }
    out.push_str(&u.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunScale;

    #[test]
    fn summarises_subset() {
        let runner = Runner::new(RunScale::Tiny);
        let benchmarks = [Benchmark::Syrk, Benchmark::Nn];
        let schedulers = [SchedulerKind::Gto, SchedulerKind::CiaoC, SchedulerKind::CiaoP];
        let result = run(&runner, &benchmarks, &schedulers);
        assert_eq!(result.records.len(), 6);
        // GTO normalises to exactly 1.0 on every benchmark.
        for (_, s, v) in &result.normalized {
            if s == "GTO" {
                assert!((v - 1.0).abs() < 1e-9);
            }
        }
        assert!(result.overall_geomeans.contains_key("CIAO-C"));
        assert!(result.shmem_utilization.contains_key("SWS"));
        let text = render(&result);
        assert!(text.contains("Fig. 8a"));
        assert!(text.contains("geomean ALL"));
        assert!(text.contains("Fig. 8b"));
        assert!(result.stalled.is_empty(), "Tiny runs never stall");
        assert!(!text.contains("stalled"));
    }

    #[test]
    fn names_cycle_cap_stalls() {
        // KMN deadlocks under Best-SWL: its barrier CTAs are wider than the
        // warp limit, so the admitted warps wait for warps never admitted.
        let mut config = gpu_sim::GpuConfig::gtx480();
        config.max_cycles = Some(300_000);
        let runner = Runner::new(RunScale::Quick).with_config(config);
        let result = run(&runner, &[Benchmark::Kmn], &[SchedulerKind::BestSwl]);
        assert_eq!(result.stalled, vec!["KMN/Best-SWL".to_string()]);
        let text = render(&result);
        assert!(text
            .contains("1/1 stalled at the cycle cap short of the instruction cap: KMN/Best-SWL\n"));
    }
}

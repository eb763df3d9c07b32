//! Golden `SimResult` digests: the engine's observable output, frozen.
//!
//! Each case is one simulation whose fully serialised [`SimResult`] (with
//! the backend label blanked) is hashed with FNV-1a. The committed digests in
//! `tests/golden/sim_digests.txt` were recorded from the reference timing
//! mode; every case must reproduce them under *both* [`BackendKind`]s, so a
//! change to the timing core that moves any counter, cycle or time-series
//! point anywhere in the matrix fails here.
//!
//! The cases cover the Tiny/1-SM Fig. 8 matrix (21 benchmarks × 7
//! schedulers), the Tiny/15-SM co-runs (5 mixes × 4 dispatch policies under
//! GTO), interference-aware and exclusive co-runs with staggered arrivals,
//! an `Exclusive` serial queue whose second kernel arrives mid-run, and the
//! four Quick/1-SM runs that stall under throttling (Best-SWL on KMN, Kmeans
//! and II, CIAO-T on II) with the cycle cap cut to 300 000. Tiny scale never
//! reaches such a stall, so only these cases pin the event mode's closed-form
//! skip over cycles on which every ready warp is throttled.
//!
//! After an intended change of the model, regenerate the file with
//!
//! ```text
//! cargo test --test golden -- --ignored regenerate_golden_digests
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use ciao_harness::runner::{RunScale, Runner};
use ciao_harness::schedulers::SchedulerKind;
use ciao_workloads::{Benchmark, Mix};
use gpu_sim::{BackendKind, DispatchPolicy, GpuConfig, Kernel, SimRequest, SimResult, Simulator};

/// One golden case: its stable name and how to run it under a backend.
type Case = (String, Box<dyn Fn(BackendKind) -> SimResult>);

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_digests.txt")
}

/// FNV-1a over the result's JSON, with the backend label blanked.
fn digest(mut res: SimResult) -> String {
    res.backend.clear();
    let json = serde_json::to_string(&res).expect("results serialise");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The Tiny/1-SM Fig. 8 matrix.
fn single_sm_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    for bench in Benchmark::all() {
        for sched in SchedulerKind::all() {
            let name = format!("tiny-sm1/{}/{}", bench.name(), sched.label());
            cases.push((
                name,
                Box::new(move |b| {
                    Runner::new(RunScale::Tiny).with_backend(b).run_one(bench, sched)
                }),
            ));
        }
    }
    cases
}

/// The Tiny/15-SM co-runs, the staggered-arrival co-runs and the serial
/// `Exclusive` queue.
fn chip_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    for mix in Mix::all() {
        for policy in DispatchPolicy::all() {
            let name = format!("tiny-sm15/{}/{}/GTO", mix.name(), policy.label());
            cases.push((
                name,
                Box::new(move |b| {
                    Runner::new(RunScale::Tiny).with_sms(15).with_backend(b).run_mix(
                        mix,
                        policy,
                        SchedulerKind::Gto,
                    )
                }),
            ));
        }
    }
    for (mix, policy) in [
        (Mix::CacheStream, DispatchPolicy::InterferenceAware),
        (Mix::CacheStream, DispatchPolicy::SharedRoundRobin),
        (Mix::CacheStream, DispatchPolicy::Exclusive),
        (Mix::Quad, DispatchPolicy::InterferenceAware),
    ] {
        let name = format!("tiny-sm15-arrivals5000/{}/{}/GTO", mix.name(), policy.label());
        cases.push((
            name,
            Box::new(move |b| {
                Runner::new(RunScale::Tiny)
                    .with_sms(15)
                    .with_arrivals(5_000)
                    .with_backend(b)
                    .run_mix(mix, policy, SchedulerKind::Gto)
            }),
        ));
    }
    cases.push((
        "exclusive-queue-sm3/SYRK+ATAX@5000/GTO".to_string(),
        Box::new(|b| {
            let runner = Runner::new(RunScale::Tiny);
            let config = runner.effective_config().with_num_sms(3);
            let scale = runner.effective_scale();
            let first: Arc<dyn Kernel> = Arc::new(Benchmark::Syrk.kernel(&scale));
            let second: Arc<dyn Kernel> = Arc::new(Benchmark::Atax.kernel(&scale));
            let req = SimRequest::new()
                .policy(DispatchPolicy::Exclusive)
                .stream(first)
                .stream_at(second, 5_000)
                .backend(b);
            Simulator::new(config.clone()).execute(req, |_| {
                SchedulerKind::Gto.build(Benchmark::Syrk, &config, &runner.params)
            })
        }),
    ));
    cases
}

/// The Quick/1-SM runs that end in a throttle stall, capped at 300 000
/// cycles: every ready warp is held back by the scheduler for almost the
/// whole run.
fn stall_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    for (bench, sched) in [
        (Benchmark::Kmn, SchedulerKind::BestSwl),
        (Benchmark::Kmeans, SchedulerKind::BestSwl),
        (Benchmark::Ii, SchedulerKind::BestSwl),
        (Benchmark::Ii, SchedulerKind::CiaoT),
    ] {
        let name = format!("quick-sm1-cap300k/{}/{}", bench.name(), sched.label());
        cases.push((
            name,
            Box::new(move |b| {
                let mut config = GpuConfig::gtx480();
                config.max_cycles = Some(300_000);
                Runner::new(RunScale::Quick)
                    .with_config(config)
                    .with_backend(b)
                    .run_one(bench, sched)
            }),
        ));
    }
    cases
}

fn load_golden() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(golden_path()).expect("golden digest file is committed");
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, digest) = l.rsplit_once(' ').expect("`<case> <digest>` lines");
            (name.to_string(), digest.to_string())
        })
        .collect()
}

/// Recomputes every case under both backends and lists each mismatch.
fn check(cases: Vec<Case>) {
    let golden = load_golden();
    let mut bad = Vec::new();
    for (name, run) in &cases {
        let want = golden.get(name).unwrap_or_else(|| panic!("no golden digest for {name}"));
        for backend in BackendKind::ALL {
            let got = digest(run(backend));
            if &got != want {
                bad.push(format!("{name} [{backend}]: {got} != golden {want}"));
            }
        }
    }
    assert!(bad.is_empty(), "{} golden mismatches:\n{}", bad.len(), bad.join("\n"));
}

#[test]
fn single_sm_matrix_matches_golden_digests_under_both_backends() {
    check(single_sm_cases());
}

#[test]
fn chip_co_runs_match_golden_digests_under_both_backends() {
    check(chip_cases());
}

#[test]
fn throttle_stalls_match_golden_digests_under_both_backends() {
    check(stall_cases());
}

/// Rewrites `tests/golden/sim_digests.txt` from the reference timing mode.
#[test]
#[ignore = "rewrites the committed golden digests"]
fn regenerate_golden_digests() {
    let mut out =
        String::from("# FNV-1a digests of backend-blind SimResult JSON; see tests/golden.rs.\n");
    for (name, run) in single_sm_cases().into_iter().chain(chip_cases()).chain(stall_cases()) {
        out.push_str(&format!("{name} {}\n", digest(run(BackendKind::Epoch))));
    }
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, out).expect("write golden digests");
}

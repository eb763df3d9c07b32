//! Wrapper fidelity: a run with the timing wrappers installed must produce
//! the same result, byte for byte, as the plain `Runner` call — for every
//! scheduler, on one SM and on a multi-SM co-run. A wrapper that dropped a
//! defaulted trait method (`WarpScheduler::on_idle_cycles`, which drives the
//! event core's closed-form idle replay, or `WarpProgram::remaining_hint`)
//! would show up here as a diverging result.

use ciao_harness::{RunScale, Runner, SchedulerKind};
use ciao_perfbench::probe::RunProbe;
use ciao_perfbench::workload::{run_wrapped, Job};
use ciao_workloads::{Benchmark, Mix};
use gpu_sim::{DispatchPolicy, SimResult};
use std::sync::Arc;

fn json(res: &SimResult) -> String {
    serde_json::to_string(res).expect("results serialise")
}

fn assert_identical(runner: &Runner, job: Job, plain: SimResult) {
    let probe = Arc::new(RunProbe::default());
    let (wrapped, _report) = run_wrapped(runner, job, &probe);
    assert_eq!(json(&plain), json(&wrapped), "{} diverges when wrapped", job.label());
    assert!(probe.pick.count() > 0, "{}: scheduler wrapper saw no picks", job.label());
    assert!(probe.next_op.count() > 0, "{}: program wrapper saw no ops", job.label());
    assert!(probe.build.count() > 0, "{}: kernel wrapper built no programs", job.label());
}

#[test]
fn wrapped_single_sm_runs_match_for_every_scheduler() {
    let runner = Runner::new(RunScale::Tiny);
    for sched in SchedulerKind::all() {
        let plain = runner.run_one(Benchmark::Syrk, sched);
        assert_identical(&runner, Job::Solo(Benchmark::Syrk, sched), plain);
    }
}

#[test]
fn wrapped_four_sm_mixes_match_for_every_scheduler() {
    let runner = Runner::new(RunScale::Tiny).with_sms(4);
    for sched in SchedulerKind::all() {
        let policy = DispatchPolicy::InterferenceAware;
        let plain = runner.run_mix(Mix::CacheStream, policy, sched);
        assert_identical(&runner, Job::Mix(Mix::CacheStream, policy, sched), plain);
    }
}

#[test]
fn redirect_wrapper_sees_the_ciao_p_path() {
    let runner = Runner::new(RunScale::Tiny);
    let probe = Arc::new(RunProbe::default());
    let (res, _) = run_wrapped(&runner, Job::Solo(Benchmark::Syrk, SchedulerKind::CiaoP), &probe);
    assert!(res.stats.redirect_hits + res.stats.redirect_misses > 0, "SYRK isolates no warp");
    assert!(probe.lookup.count() > 0, "redirect wrapper saw no lookups");
    let hits = probe.lookup_hits.load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits <= probe.lookup.count());
}

//! Property-based integration tests: randomised workloads run end-to-end
//! through the simulator under every scheduler, checking the invariants that
//! must hold for *any* workload, not just the Table II benchmarks.

use ciao_suite::prelude::*;
use ciao_suite::sim::kernel::{ClosureKernel, KernelInfo};
use ciao_suite::sim::trace::{VecProgram, WarpOp};
use ciao_suite::sim::Kernel;
use proptest::prelude::*;

/// Builds a random but deterministic kernel description.
fn arbitrary_kernel(
    ctas: usize,
    warps_per_cta: usize,
    ops: usize,
    mem_every: usize,
    seed: u64,
) -> Box<dyn Kernel> {
    let info = KernelInfo {
        name: format!("prop-{seed}"),
        num_ctas: ctas,
        warps_per_cta,
        shared_mem_per_cta: 0,
    };
    Box::new(ClosureKernel::new(info, move |cta, w| {
        let mut v = Vec::with_capacity(ops);
        for i in 0..ops {
            if mem_every > 0 && i % mem_every == 0 {
                // Mix of private streaming and a shared hot region so some
                // runs exhibit interference.
                let addr = if i % (2 * mem_every) == 0 {
                    (seed % 64) * 128 + (i as u64 % 32) * 128
                } else {
                    (1 << 24) + (cta as u64 * 64 + w as u64 * 8 + i as u64) * 128
                };
                v.push(WarpOp::coalesced_load(addr));
            } else {
                v.push(WarpOp::Compute { cycles: 1 + (i as u32 % 4) });
            }
        }
        Box::new(VecProgram::new(v))
    }))
}

/// A kernel whose warps all meet at one CTA barrier halfway through their
/// programs. With more warps per CTA than Best-SWL admits (SYRK's profiled
/// limit is 6) the admitted warps wait at the barrier for warps that are
/// never admitted — the throttle stall of KMN, Kmeans and II under Best-SWL.
fn barrier_kernel(ctas: usize, warps_per_cta: usize, ops: usize, seed: u64) -> Box<dyn Kernel> {
    let info = KernelInfo {
        name: format!("prop-barrier-{seed}"),
        num_ctas: ctas,
        warps_per_cta,
        shared_mem_per_cta: 0,
    };
    Box::new(ClosureKernel::new(info, move |cta, w| {
        let mut v = Vec::with_capacity(ops + 1);
        for i in 0..ops {
            if i == ops / 2 {
                v.push(WarpOp::Barrier);
            }
            if i % 2 == 0 {
                let addr = (1 << 24) + ((seed + cta as u64 * 64 + w as u64 * 8 + i as u64) * 128);
                v.push(WarpOp::coalesced_load(addr));
            } else {
                v.push(WarpOp::Compute { cycles: 1 + (i as u32 % 4) });
            }
        }
        Box::new(VecProgram::new(v))
    }))
}

fn run_with(kernel: Box<dyn Kernel>, sched: SchedulerKind) -> SimResult {
    let config = GpuConfig::gtx480().with_max_instructions(20_000).with_sample_interval(1_000);
    let sim = Simulator::new(config.clone());
    sim.execute(SimRequest::kernel(std::sync::Arc::from(kernel)).num_sms(1), |_sm| {
        sched.build(Benchmark::Syrk, &config, &ciao_suite::ciao::CiaoParams::default())
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Every scheduler finishes every random workload, executes exactly the
    /// same number of instructions, and keeps the L1D statistics consistent.
    #[test]
    fn all_schedulers_complete_random_workloads(
        ctas in 1usize..4,
        warps in 1usize..6,
        ops in 8usize..80,
        mem_every in 1usize..6,
        seed in 0u64..1000,
    ) {
        let expected_instructions = (ctas * warps * ops) as u64;
        let mut counts = Vec::new();
        for sched in [SchedulerKind::Gto, SchedulerKind::Ccws, SchedulerKind::BestSwl,
                      SchedulerKind::StatPcal, SchedulerKind::CiaoT, SchedulerKind::CiaoP, SchedulerKind::CiaoC] {
            let res = run_with(arbitrary_kernel(ctas, warps, ops, mem_every, seed), sched);
            prop_assert!(!res.capped, "{} hit a cap on a small workload", res.scheduler);
            prop_assert_eq!(res.stats.instructions, expected_instructions,
                "{} executed the wrong amount of work", res.scheduler);
            prop_assert_eq!(res.stats.l1d.hits() + res.stats.l1d.misses(), res.stats.l1d.accesses());
            prop_assert!(res.cycles > 0);
            counts.push(res.stats.instructions);
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }

    /// The interference matrix is consistent with the cross-warp eviction
    /// counter for any workload and scheduler.
    #[test]
    fn interference_accounting_is_consistent(
        warps in 2usize..8,
        ops in 16usize..64,
        seed in 0u64..1000,
    ) {
        let res = run_with(arbitrary_kernel(1, warps, ops, 1, seed), SchedulerKind::Gto);
        let matrix_total = res.interference.total();
        prop_assert_eq!(matrix_total, res.stats.cross_warp_evictions + res.stats.redirect_cross_warp_evictions);
    }
}

/// Runs `kernel` on the chip engine (`sms` SMs, shared L2/DRAM) under the
/// chosen timing mode, with a configurable time-series sample interval.
fn run_chip(
    kernel: Box<dyn Kernel>,
    sched: SchedulerKind,
    backend: gpu_sim::BackendKind,
    sms: usize,
    sample_interval: u64,
) -> SimResult {
    let config =
        GpuConfig::gtx480().with_max_instructions(40_000).with_sample_interval(sample_interval);
    run_chip_with(kernel, sched, backend, sms, config)
}

/// [`run_chip`] under an explicit machine configuration.
fn run_chip_with(
    kernel: Box<dyn Kernel>,
    sched: SchedulerKind,
    backend: gpu_sim::BackendKind,
    sms: usize,
    config: GpuConfig,
) -> SimResult {
    let sim = Simulator::new(config.clone());
    sim.execute(
        SimRequest::kernel(std::sync::Arc::from(kernel)).num_sms(sms).backend(backend),
        |_sm| sched.build(Benchmark::Syrk, &config, &ciao_suite::ciao::CiaoParams::default()),
    )
}

/// Serialises a result with the mode label normalised away, so reference-
/// and event-mode runs can be compared bit-for-bit.
fn normalized_json(mut res: SimResult) -> String {
    res.backend = String::new();
    serde_json::to_string(&res).expect("SimResult serialises")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The event mode's closed-form idle accounting must compose exactly:
    /// one `on_idle_cycles(ctx, k)` call has to leave every scheduler in the
    /// same state as `k` single idle cycles would. Running the same workload
    /// under both timing modes for each scheduler family (CCWS score
    /// decay, SWL recompute, statPCAL utilization tracking, CIAO's
    /// throttle/redirect fixed point) proves the equivalence end-to-end:
    /// any divergence shows up as a differing serialised result. The barrier
    /// kernel adds a throttle stall — ready warps held back by a frozen
    /// throttle set — which the event mode also skips in closed form.
    #[test]
    fn closed_form_idle_accounting_matches_per_cycle_for_every_scheduler(
        ctas in 1usize..5,
        warps in 1usize..5,
        ops in 8usize..48,
        mem_every in 1usize..4,
        seed in 0u64..1000,
        barrier_warps in 7usize..10,
    ) {
        for sched in [SchedulerKind::Ccws, SchedulerKind::BestSwl,
                      SchedulerKind::StatPcal, SchedulerKind::CiaoT] {
            let kernel = || arbitrary_kernel(ctas, warps, ops, mem_every, seed);
            let epoch = run_chip(kernel(), sched, gpu_sim::BackendKind::Epoch, 2, 1_000);
            let event = run_chip(kernel(), sched, gpu_sim::BackendKind::Event, 2, 1_000);
            prop_assert_eq!(
                normalized_json(epoch),
                normalized_json(event),
                "event mode diverged from the reference mode under {:?}",
                sched
            );
        }
        let mut capped = GpuConfig::gtx480().with_max_instructions(40_000).with_sample_interval(1_000);
        capped.max_cycles = Some(30_000);
        for sched in [SchedulerKind::Ccws, SchedulerKind::BestSwl,
                      SchedulerKind::StatPcal, SchedulerKind::CiaoT] {
            let kernel = || barrier_kernel(ctas, barrier_warps, ops, seed);
            let epoch = run_chip_with(kernel(), sched, gpu_sim::BackendKind::Epoch, 2, capped.clone());
            let event = run_chip_with(kernel(), sched, gpu_sim::BackendKind::Event, 2, capped.clone());
            if sched == SchedulerKind::BestSwl {
                prop_assert!(epoch.capped && epoch.cycles == 30_000,
                    "Best-SWL must stall at the barrier until the cycle cap");
            }
            prop_assert_eq!(
                normalized_json(epoch),
                normalized_json(event),
                "event mode diverged from the reference mode under {:?} at a barrier",
                sched
            );
        }
    }

    /// Sampler-due edges: with tiny (including degenerate) sample intervals
    /// the instruction-indexed time-series sampler comes due at arbitrary
    /// alignments — including exactly at a dispatch boundary, where the
    /// event mode must refuse to skip and step the cycle instead. Both
    /// modes must stay bit-identical through every alignment.
    #[test]
    fn sampler_due_exactly_at_a_boundary_cannot_desync_the_backends(
        warps in 1usize..5,
        ops in 8usize..40,
        seed in 0u64..1000,
        sample_interval in 0u64..16,
    ) {
        let kernel = || arbitrary_kernel(2, warps, ops, 2, seed);
        let epoch =
            run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Epoch, 2, sample_interval);
        let event =
            run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Event, 2, sample_interval);
        prop_assert_eq!(normalized_json(epoch), normalized_json(event),
            "sample interval {} desynced the backends", sample_interval);
    }

    /// Zero-warp SMs: a one-CTA kernel on a multi-SM chip leaves every other
    /// SM without a single warp for the whole run. Those SMs must park
    /// harmlessly in the event mode (idle-skip with nothing to wake for)
    /// and the result must match the reference mode stepping them cycle by
    /// cycle.
    #[test]
    fn zero_warp_sms_park_without_desyncing_the_backends(
        warps in 1usize..5,
        ops in 8usize..32,
        seed in 0u64..1000,
        sms in 2usize..6,
    ) {
        let expected_instructions = (warps * ops) as u64;
        let kernel = || arbitrary_kernel(1, warps, ops, 2, seed);
        let epoch = run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Epoch, sms, 1_000);
        let event = run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Event, sms, 1_000);
        prop_assert_eq!(epoch.stats.instructions, expected_instructions);
        prop_assert_eq!(normalized_json(epoch), normalized_json(event),
            "an SM with zero warps desynced the backends at {} SMs", sms);
    }
}

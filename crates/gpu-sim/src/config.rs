//! Machine configuration (Table I of the paper) and its evaluation variants.

use gpu_mem::cache::CacheConfig;
use gpu_mem::l2::PartitionConfig;
use gpu_mem::shared_memory::SharedMemoryConfig;
use gpu_mem::Cycle;
use serde::{Deserialize, Serialize};

/// Full configuration of the simulated GPU (one SM plus its slice of the
/// memory system).
///
/// Defaults mirror Table I: 15 SMs with up to 1536 threads (48 warps of 32
/// threads) each, a 16 KB 4-way L1D with 128-byte lines, 48 KB of shared
/// memory with 32 banks, a 768 KB 8-way L2, and GDDR5 DRAM with 16 banks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of SMs on the chip (15 on the GTX 480). A single-SM request
    /// models one SM with a per-SM slice of memory bandwidth (the legacy
    /// per-SM-IPC × `num_sms` extrapolation); multi-SM requests instantiate
    /// this many [`crate::Sm`] engines against a shared banked L2/DRAM
    /// backend and model inter-SM contention directly.
    pub num_sms: usize,
    /// Number of address-interleaved banks of the shared chip L2/DRAM backend
    /// used by multi-SM runs. Defaults to 6 — the GTX 480 has six 64-bit
    /// GDDR5 channels, i.e. six L2-slice + DRAM-channel partitions. The
    /// engine clamps the bank count to one per two SMs (the GTX 480's
    /// SM-to-partition ratio), so small chips keep sensibly wide per-channel
    /// buses. Single-SM runs ignore it entirely (the SM owns an unbanked
    /// private partition, which is what keeps a 1-SM chip bit-identical to
    /// the legacy path).
    pub l2_banks: usize,
    /// Number of cycles between the engine's epoch boundaries in multi-SM
    /// runs: the granularity at which SM request buffers are collected,
    /// batches are served and replies are delivered. The engine clamps this
    /// to *half* the minimum SM→L2 round trip (see
    /// [`GpuConfig::effective_epoch_cycles`]) so that a request collected at
    /// one boundary and served at the next still completes at or after the
    /// boundary that delivers it.
    pub epoch_cycles: Cycle,
    /// Aggregate chip-wide crossbar bandwidth *per direction* (SM→L2
    /// requests, L2→SM replies) in bytes per cycle — the shared-fabric budget
    /// concurrent SMs queue against once past their private injection ports.
    /// Default 480 = 15 SMs × 32 B/cycle/SM (Table I aggregate).
    pub xbar_chip_bytes_per_cycle: f64,
    /// Maximum number of late-arriving requests carried across an epoch
    /// boundary by the cross-epoch reorder window (requests whose
    /// interconnect arrival lands beyond the boundary's merge horizon are held
    /// so they interleave with the next epoch's batch in true arrival order).
    /// Overflow beyond the bound falls back to batch-major service.
    pub reorder_window: usize,
    /// Maximum resident warps per SM (1536 threads / 32 lanes = 48).
    pub max_warps_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// L1D cache configuration.
    pub l1d: CacheConfig,
    /// Shared-memory scratchpad configuration.
    pub shared_mem: SharedMemoryConfig,
    /// Memory partition (L2 + DRAM) configuration.
    pub partition: PartitionConfig,
    /// Number of L1D MSHR entries.
    pub mshr_entries: usize,
    /// Maximum requests merged per MSHR entry.
    pub mshr_merge: usize,
    /// SM↔L2 interconnect latency in cycles.
    pub interconnect_latency: Cycle,
    /// SM↔L2 interconnect bandwidth in bytes per cycle.
    pub interconnect_bytes_per_cycle: f64,
    /// Response-queue capacity (entries).
    pub response_queue_entries: usize,
    /// Time-series sampling interval, in dynamic instructions (the x-axis of
    /// Figs. 9 and 10 is instruction count).
    pub sample_interval_insts: u64,
    /// Hard cap on simulated dynamic instructions (`None` = run to completion).
    pub max_instructions: Option<u64>,
    /// Hard cap on simulated cycles (`None` = run to completion).
    pub max_cycles: Option<u64>,
}

impl GpuConfig {
    /// The baseline GTX 480-like configuration of Table I (with the XOR
    /// set-index hashing enhancement of §V-A).
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            l2_banks: 6,
            epoch_cycles: 64,
            xbar_chip_bytes_per_cycle: 480.0,
            reorder_window: 4096,
            max_warps_per_sm: 48,
            warp_size: 32,
            l1d: CacheConfig::l1d_gtx480(),
            shared_mem: SharedMemoryConfig::gtx480(),
            partition: PartitionConfig::gtx480(),
            mshr_entries: 32,
            mshr_merge: 8,
            interconnect_latency: 20,
            interconnect_bytes_per_cycle: 32.0,
            response_queue_entries: 64,
            sample_interval_insts: 10_000,
            max_instructions: None,
            max_cycles: Some(50_000_000),
        }
    }

    /// `GTO-cap` of Fig. 12a: L1D grown to 48 KB, shared memory shrunk to 16 KB.
    pub fn gtx480_cap() -> Self {
        GpuConfig {
            l1d: CacheConfig::l1d_48k(),
            shared_mem: SharedMemoryConfig::gtx480_small(),
            ..Self::gtx480()
        }
    }

    /// `GTO-8way` of Fig. 12a: L1D associativity raised to 8.
    pub fn gtx480_8way() -> Self {
        GpuConfig { l1d: CacheConfig::l1d_8way(), ..Self::gtx480() }
    }

    /// The doubled-DRAM-bandwidth machine of Fig. 12b (177 → 340 GB/s).
    pub fn gtx480_2x_bandwidth() -> Self {
        GpuConfig { partition: PartitionConfig::gtx480_2x_bandwidth(), ..Self::gtx480() }
    }

    /// Maximum number of resident threads per SM.
    pub fn max_threads_per_sm(&self) -> usize {
        self.max_warps_per_sm * self.warp_size
    }

    /// Returns a copy with the dynamic-instruction cap set, which the
    /// experiment harness uses to bound simulation time.
    pub fn with_max_instructions(mut self, n: u64) -> Self {
        self.max_instructions = Some(n);
        self
    }

    /// Returns a copy with the time-series sampling interval set.
    pub fn with_sample_interval(mut self, insts: u64) -> Self {
        self.sample_interval_insts = insts.max(1);
        self
    }

    /// Returns a copy with the number of simulated SMs set (the `--sms N`
    /// axis of the harness).
    pub fn with_num_sms(mut self, n: usize) -> Self {
        self.num_sms = n.max(1);
        self
    }

    /// Returns a copy with the shared-L2 bank count set.
    pub fn with_l2_banks(mut self, banks: usize) -> Self {
        self.l2_banks = banks.max(1);
        self
    }

    /// The epoch length actually used by the multi-SM engine: the configured
    /// [`GpuConfig::epoch_cycles`] clamped to *half* the minimum SM→L2 round
    /// trip. The round trip floors at the cheaper of the L2-hit path
    /// (`l2_latency`) and the L2-bypass path (`dram.base_latency + t_cl`), on
    /// top of the interconnect traversal. Halving it is what lets the engine
    /// pipeline: a request issued during epoch `k` is collected at the
    /// boundary closing it and served and delivered at the next boundary,
    /// and its response still completes at or after that delivering
    /// boundary — never in an SM's past.
    pub fn effective_epoch_cycles(&self) -> Cycle {
        let min_service = self
            .partition
            .l2_latency
            .min(self.partition.dram.base_latency + self.partition.dram.t_cl);
        let round_trip = self.interconnect_latency + min_service;
        self.epoch_cycles.clamp(1, (round_trip / 2).max(1))
    }

    /// Returns a copy with the cross-epoch reorder-window bound set.
    pub fn with_reorder_window(mut self, window: usize) -> Self {
        self.reorder_window = window;
        self
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

/// Renders the configuration as the rows of Table I (used by the harness's
/// `table1` command so the reproduced configuration is auditable).
pub fn table1_rows(cfg: &GpuConfig) -> Vec<(String, String)> {
    vec![
        (
            "# of SMs/threads".into(),
            format!("{}, max {} per SM", cfg.num_sms, cfg.max_threads_per_sm()),
        ),
        (
            "L1D cache".into(),
            format!(
                "{}KB w/ {}B lines, {} ways, write no-allocate, {}-cycle latency and LRU",
                cfg.l1d.size_bytes / 1024,
                cfg.l1d.line_size,
                cfg.l1d.associativity,
                cfg.l1d.latency
            ),
        ),
        (
            "Shared memory".into(),
            format!(
                "{}KB, {}-cycle latency and {} banks",
                cfg.shared_mem.size_bytes / 1024,
                cfg.shared_mem.latency,
                cfg.shared_mem.num_banks
            ),
        ),
        (
            "L2 cache".into(),
            format!(
                "{}KB w/ {}B lines, {} ways, write allocation, write-back and LRU",
                cfg.partition.l2.size_bytes / 1024,
                cfg.partition.l2.line_size,
                cfg.partition.l2.associativity
            ),
        ),
        (
            "DRAM".into(),
            format!(
                "GDDR5 w/ {} banks, tCL={}, tRCD={}, and tRAS={}",
                cfg.partition.dram.num_banks,
                cfg.partition.dram.t_cl,
                cfg.partition.dram.t_rcd,
                cfg.partition.dram.t_ras
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_baseline_values() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.max_threads_per_sm(), 1536);
        assert_eq!(c.l1d.size_bytes, 16 * 1024);
        assert_eq!(c.l1d.associativity, 4);
        assert_eq!(c.shared_mem.size_bytes, 48 * 1024);
        assert_eq!(c.partition.l2.size_bytes, 768 * 1024);
        assert_eq!(c.partition.dram.num_banks, 16);
        assert_eq!(c.partition.dram.t_cl, 12);
        assert_eq!(c.partition.dram.t_rcd, 12);
        assert_eq!(c.partition.dram.t_ras, 28);
    }

    #[test]
    fn fig12_variants() {
        let cap = GpuConfig::gtx480_cap();
        assert_eq!(cap.l1d.size_bytes, 48 * 1024);
        assert_eq!(cap.shared_mem.size_bytes, 16 * 1024);
        let w8 = GpuConfig::gtx480_8way();
        assert_eq!(w8.l1d.associativity, 8);
        assert_eq!(w8.l1d.size_bytes, 16 * 1024);
        let bw = GpuConfig::gtx480_2x_bandwidth();
        assert!(
            bw.partition.dram.bytes_per_cycle
                > GpuConfig::gtx480().partition.dram.bytes_per_cycle * 1.5
        );
    }

    #[test]
    fn builders_apply() {
        let c = GpuConfig::gtx480()
            .with_max_instructions(1000)
            .with_sample_interval(0)
            .with_num_sms(4)
            .with_l2_banks(6);
        assert_eq!(c.max_instructions, Some(1000));
        assert_eq!(c.sample_interval_insts, 1);
        assert_eq!(c.num_sms, 4);
        assert_eq!(c.l2_banks, 6);
        assert_eq!(GpuConfig::gtx480().with_num_sms(0).num_sms, 1);
        assert_eq!(GpuConfig::gtx480().with_reorder_window(16).reorder_window, 16);
    }

    #[test]
    fn epoch_clamped_to_half_the_round_trip() {
        let c = GpuConfig::gtx480();
        // Default 64 exceeds half the (20 + 90)-cycle round trip, so the
        // pipelined engine runs 55-cycle epochs.
        assert_eq!(c.effective_epoch_cycles(), 55);
        let mut short = c.clone();
        short.epoch_cycles = 40;
        assert_eq!(short.effective_epoch_cycles(), 40, "short epochs pass through unclamped");
        // A bypass path cheaper than the L2 hit tightens the clamp: responses
        // computed one epoch ahead must never land in an SM's past.
        let mut cheap_bypass = c.clone();
        cheap_bypass.partition.dram.base_latency = 10;
        cheap_bypass.partition.dram.t_cl = 4;
        assert_eq!(cheap_bypass.effective_epoch_cycles(), (20 + 14) / 2);
        let mut zero = c;
        zero.epoch_cycles = 0;
        assert_eq!(zero.effective_epoch_cycles(), 1);
    }

    #[test]
    fn table1_rows_render() {
        let rows = table1_rows(&GpuConfig::gtx480());
        assert_eq!(rows.len(), 5);
        assert!(rows[1].1.contains("16KB"));
        assert!(rows[4].1.contains("tCL=12"));
    }
}

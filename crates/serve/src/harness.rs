//! The simnet serve harness: stand up a world, exchange windows, run
//! the open loop on every rank, and settle — shared by the integration
//! tests and the benchmark's `sim-serve` workload so both see the
//! exact same setup (which is what makes the seeded-determinism lock
//! meaningful).

use unr_core::{Blk, Unr, UnrConfig};
use unr_minimpi::{allgather_bytes, barrier, run_mpi_on_fabric, MpiConfig};
use unr_obs::Snapshot;
use unr_simnet::{Fabric, Platform, MS};

use crate::driver::{run_open_loop, RankReport};
use crate::{ServeConfig, ServeError};

/// Simnet world shape for serve runs: 2 nodes × 2 ranks on the TH-XY
/// platform model.
pub const SIM_NODES: usize = 2;
/// Ranks per node.
pub const SIM_RPN: usize = 2;

/// Window signals start from this count and tick down one per remote
/// replica write — far above any run size (but within the engine's
/// `n_bits = 32` event field), so the signal never fires and its
/// residual counter is an exact write tally.
pub(crate) const WINDOW_EVENTS: i64 = 1 << 30;

/// Everything a simnet serve run produces.
pub struct SimServeRun {
    /// One report per rank.
    pub per_rank: Vec<RankReport>,
    /// The cluster-wide merge.
    pub merged: RankReport,
    /// Deterministic metrics snapshot of the shared fabric registry.
    pub snapshot: Snapshot,
    /// Rendered metrics table (byte-identical across same-seed runs).
    pub table: String,
    /// Metrics JSON export (same determinism contract).
    pub json: String,
}

/// Run the serve workload on the simulated fabric. `fabric_seed`
/// seeds the fabric's latency jitter; `cfg.seed` seeds the workload.
/// `ucfg` is the per-rank engine config (pass `UnrConfig::default()`
/// unless the run needs aggregation).
pub fn run_simnet(cfg: &ServeConfig, ucfg: UnrConfig, fabric_seed: u64) -> SimServeRun {
    let mut fcfg = Platform::th_xy().fabric_config(SIM_NODES, SIM_RPN);
    fcfg.seed = fabric_seed;
    let fabric = Fabric::new(fcfg);
    let cfg_in = cfg.clone();
    let results: Vec<Result<RankReport, String>> =
        run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
            let cfg = cfg_in.clone();
            let unr = Unr::init(comm.ep_shared(), ucfg);
            let mem = unr.mem_reg(cfg.region_len());

            // Shard window: armed with a never-firing signal whose
            // residual counter tallies every remote replica write.
            let window_sig = unr.sig_init(WINDOW_EVENTS);
            let mine = mem.blk(0, cfg.window_len(), Some(&window_sig)).to_bytes();
            let windows: Vec<Blk> = allgather_bytes(comm, &mine)
                .into_iter()
                .map(|b| Blk::from_bytes(&b).expect("peer window blk"))
                .collect();
            let base_live = unr.signal_occupancy().0;

            barrier(comm);
            let report = run_open_loop(&unr, mem, &cfg, windows, base_live)
                .map_err(|e: ServeError| e.to_string());
            // Settle: our own drain only covers our acks; peers may
            // still have writes in flight toward our window. A barrier
            // plus a virtual-time grace period lets every last addend
            // land before counters and fingerprints are read.
            barrier(comm);
            unr.sleep(5 * MS);
            barrier(comm);
            report.map(|mut r| {
                r.window_writes = (WINDOW_EVENTS - window_sig.counter()) as u64;
                r.fingerprint = unr.table_fingerprint();
                r
            })
        });

    let per_rank: Vec<RankReport> = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("serve rank failed: {e}")))
        .collect();
    let merged = RankReport::merge(&per_rank);
    let snapshot = fabric.obs.metrics.snapshot();
    let table = snapshot.render_table();
    let json = snapshot.to_json();
    SimServeRun {
        per_rank,
        merged,
        snapshot,
        table,
        json,
    }
}

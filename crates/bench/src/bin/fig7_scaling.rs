//! Figure 7 — PowerLLEL strong scalability on TH-2A-like and TH-XY-like
//! systems, with the velocity-update / PPE-solver time breakdown.
//!
//! The paper scales 12→192 nodes (TH-2A, 95% efficiency) and 288→1728
//! nodes (TH-XY, 85%); the simulation scales 2→16 ranks with the same
//! decomposition logic and reports the same metrics. The expected shape:
//! the velocity update scales almost linearly (its communication is
//! fully overlapped), while the PPE solver — whose all-to-all volume per
//! rank shrinks more slowly — becomes the bottleneck.
//!
//! `--at-scale` runs the 64-rank slice instead: strong scaling shrinks
//! per-rank halo messages below the eager threshold, so the run pits
//! plain UNR against UNR with the summed-MMAS small-message coalescer
//! (`agg_eager_max = 512`) at 16 and 64 ranks. This is where the
//! rebuilt aggregated-signal collectives are supposed to win: the halo
//! exchange degenerates into many sub-512 B notified puts whose
//! signals the coalescer merges into one delivery per destination.

use unr_bench::print_table;
use unr_core::{Unr, UnrConfig};
use unr_minimpi::run_mpi_world_cfg;
use unr_powerllel::{Backend, Solver, SolverConfig, Timers};
use unr_simnet::{to_ms, Platform};

const STEPS: usize = 3;
const WARMUP: usize = 1;

fn proc_grid(ranks: usize) -> (usize, usize) {
    match ranks {
        1 => (1, 1),
        2 => (2, 1),
        4 => (2, 2),
        8 => (4, 2),
        16 => (4, 4),
        32 => (8, 4),
        64 => (8, 8),
        _ => panic!("unsupported rank count {ranks}"),
    }
}

/// What runs inside the world: the MPI baseline, plain UNR, or UNR
/// with the small-message coalescer at the given eager threshold.
#[derive(Clone, Copy)]
enum Case {
    Mpi,
    Unr { agg_eager_max: usize },
}

fn run_case(
    p: &Platform,
    ranks: usize,
    rpn: usize,
    grid: (usize, usize, usize),
    case: Case,
) -> Timers {
    let (py, pz) = proc_grid(ranks);
    let mut fabric = p.fabric_config(ranks / rpn, rpn);
    fabric.seed = 7;
    let scfg = SolverConfig {
        nx: grid.0,
        ny: grid.1,
        nz: grid.2,
        py,
        pz,
        nu: 0.02,
        dt: 1e-3,
        lx: 1.0,
        ly: 1.0,
        lz: 1.0,
        flop_ns: 0.16,
        overlap: None,
    };
    let timers = run_mpi_world_cfg(fabric, unr_minimpi::MpiConfig::default(), move |comm| {
        let backend = match case {
            Case::Mpi => Backend::Mpi,
            Case::Unr { agg_eager_max } => {
                let cfg = UnrConfig::builder()
                    .agg_eager_max(agg_eager_max)
                    .build()
                    .expect("fig7 UNR config");
                Backend::Unr(Unr::init(comm.ep_shared(), cfg))
            }
        };
        let mut s = Solver::new(&backend, comm, scfg);
        s.init_taylor_green();
        for _ in 0..WARMUP {
            s.step();
        }
        s.timers = Timers::default();
        for _ in 0..STEPS {
            s.step();
        }
        s.timers
    });
    timers[0]
}

fn scaling_table(p: &Platform, rpn: usize, grid: (usize, usize, usize), rank_list: &[usize]) {
    let mut rows = Vec::new();
    let mut base: Option<(usize, f64, f64)> = None; // (ranks, mpi t, unr t)
    for &ranks in rank_list {
        let mpi = run_case(p, ranks, rpn, grid, Case::Mpi);
        let unr = run_case(p, ranks, rpn, grid, Case::Unr { agg_eager_max: 0 });
        let t_mpi = to_ms(mpi.total) / STEPS as f64;
        let t_unr = to_ms(unr.total) / STEPS as f64;
        if base.is_none() {
            base = Some((ranks, t_mpi, t_unr));
        }
        let (r0, m0, u0) = base.expect("set");
        let eff = |t0: f64, t: f64| 100.0 * (t0 * r0 as f64) / (t * ranks as f64);
        rows.push(vec![
            format!("{ranks}"),
            format!("{:.2}", t_mpi),
            format!("{:.0}%", eff(m0, t_mpi)),
            format!("{:.2}", t_unr),
            format!("{:.0}%", eff(u0, t_unr)),
            format!(
                "{:.2} / {:.2}",
                to_ms(unr.velocity_update()) / STEPS as f64,
                to_ms(unr.ppe()) / STEPS as f64
            ),
            format!("{:+.0}%", (t_mpi / t_unr - 1.0) * 100.0),
        ]);
    }
    print_table(
        &format!(
            "Figure 7 — strong scaling on {} ({}x{}x{} grid, {} rank(s)/node)",
            p.abbrev, grid.0, grid.1, grid.2, rpn
        ),
        &[
            "ranks",
            "MPI (ms/step)",
            "MPI efficiency",
            "UNR (ms/step)",
            "UNR efficiency",
            "UNR velocity / PPE (ms)",
            "UNR speedup",
        ],
        &rows,
    );
}

/// The deferred 64-rank slice: strong scaling until halo messages are
/// sub-eager, plain UNR vs the summed-MMAS coalescer (`agg_eager_max =
/// 512`). The interesting column is the agg-vs-plain win, which should
/// grow with rank count as messages shrink.
fn at_scale_table(p: &Platform, rpn: usize, grid: (usize, usize, usize), rank_list: &[usize]) {
    let mut rows = Vec::new();
    for &ranks in rank_list {
        let mpi = run_case(p, ranks, rpn, grid, Case::Mpi);
        let unr = run_case(p, ranks, rpn, grid, Case::Unr { agg_eager_max: 0 });
        let agg = run_case(p, ranks, rpn, grid, Case::Unr { agg_eager_max: 512 });
        let t_mpi = to_ms(mpi.total) / STEPS as f64;
        let t_unr = to_ms(unr.total) / STEPS as f64;
        let t_agg = to_ms(agg.total) / STEPS as f64;
        rows.push(vec![
            format!("{ranks}"),
            format!("{:.2}", t_mpi),
            format!("{:.2}", t_unr),
            format!("{:.2}", t_agg),
            format!("{:+.0}%", (t_unr / t_agg - 1.0) * 100.0),
            format!("{:+.0}%", (t_mpi / t_agg - 1.0) * 100.0),
        ]);
    }
    print_table(
        &format!(
            "Figure 7 at scale — {} ({}x{}x{} grid, {} rank(s)/node), agg_eager_max = 512",
            p.abbrev, grid.0, grid.1, grid.2, rpn
        ),
        &[
            "ranks",
            "MPI (ms/step)",
            "UNR (ms/step)",
            "UNR+agg (ms/step)",
            "agg vs UNR",
            "agg vs MPI",
        ],
        &rows,
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let at_scale = std::env::args().any(|a| a == "--at-scale");
    if at_scale {
        // 16 → 64 ranks: by 64 the halo faces are sub-512 B and the
        // coalescer is live on essentially every exchange.
        at_scale_table(&Platform::th_2a(), 1, (64, 64, 32), &[16, 64]);
        at_scale_table(&Platform::th_xy(), 2, (128, 64, 32), &[16, 64]);
        return;
    }
    let ranks: &[usize] = if quick { &[2, 8] } else { &[2, 4, 8, 16] };
    scaling_table(&Platform::th_2a(), 1, (64, 64, 32), ranks);
    scaling_table(&Platform::th_xy(), 2, (128, 64, 32), ranks);
}

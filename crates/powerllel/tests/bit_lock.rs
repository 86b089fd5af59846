//! A bit lock on the solver's arithmetic: after three steps (twenty on
//! three UNR grids), the bits of every rank's u/v/w/p (ghost layers
//! included) and of the global kinetic energy must hash to the recorded
//! constants. Any change to a
//! kernel that reorders or rewrites a floating-point expression moves
//! these hashes; a change that only moves data faster does not.
//!
//! The shapes cover the overlapped UNR path (4×2, 2×2), the MPI
//! bulk-synchronous path (4×2), a single rank (1×1, no PDD exchange),
//! four z ranks (1×4, whose middle ranks have both PDD neighbors), a
//! process grid with two y rows per rank, where the UNR backend takes
//! the non-overlapped halo path, and three y ranks (3×2), whose x and y
//! chunks are uneven: odd line counts in both FFTs, and PDD cell counts
//! that are not a multiple of the solver's block.

use unr_core::{Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_powerllel::{Backend, Field3, Solver, SolverConfig};
use unr_simnet::Platform;

const STEPS: usize = 3;

/// The long locks' step count: each Poisson solve transposes forward
/// and back in place in the same two registered regions per rank, so
/// every byte of them is rewritten forty times, not six.
const LONG: usize = 20;

/// FNV-1a over the bits of each value.
fn fnv(h: &mut u64, vals: impl IntoIterator<Item = u64>) {
    for v in vals {
        for b in v.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn field_bits(f: &Field3) -> impl Iterator<Item = u64> + '_ {
    f.data.iter().map(|x| x.to_bits())
}

/// Run `steps` steps of a `nx × ny × nz` grid on a `py × pz` process
/// grid (`nodes × rpn` ranks) and hash the result.
fn lock_steps(
    steps: usize,
    nodes: usize,
    rpn: usize,
    (nx, ny, nz): (usize, usize, usize),
    py: usize,
    pz: usize,
    unr: bool,
) -> u64 {
    let mut fcfg = Platform::th_xy().fabric_config(nodes, rpn);
    fcfg.seed = 11;
    let ranks = run_mpi_world(fcfg, move |comm| {
        let backend = if unr {
            Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()))
        } else {
            Backend::Mpi
        };
        let mut cfg = SolverConfig::small(py, pz);
        cfg.nx = nx;
        cfg.ny = ny;
        cfg.nz = nz;
        cfg.dt = 1e-3;
        let mut s = Solver::new(&backend, comm, cfg);
        s.init_taylor_green();
        for _ in 0..steps {
            s.step();
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in [&s.u, &s.v, &s.w, &s.p] {
            fnv(&mut h, field_bits(f));
        }
        (h, s.kinetic_energy().to_bits())
    });
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (rank_hash, _) in &ranks {
        fnv(&mut h, [*rank_hash]);
    }
    fnv(&mut h, [ranks[0].1]);
    h
}

fn lock(
    nodes: usize,
    rpn: usize,
    grid: (usize, usize, usize),
    py: usize,
    pz: usize,
    unr: bool,
) -> u64 {
    lock_steps(STEPS, nodes, rpn, grid, py, pz, unr)
}

fn check(got: u64, want: u64, what: &str) {
    assert_eq!(
        got, want,
        "{what}: field/energy bits changed (got {got:#018x}, want {want:#018x})"
    );
}

const GRID: (usize, usize, usize) = (32, 32, 16);

#[test]
fn bit_lock_4x2_unr() {
    check(
        lock(4, 2, GRID, 4, 2, true),
        0x95a7_cf3d_18a2_2a81,
        "4x2 unr",
    );
}

#[test]
fn bit_lock_4x2_mpi() {
    check(
        lock(4, 2, GRID, 4, 2, false),
        0x95a7_cf3d_18a2_2a81,
        "4x2 mpi",
    );
}

#[test]
fn bit_lock_2x2_unr() {
    check(
        lock(4, 1, GRID, 2, 2, true),
        0xad24_91da_8466_9f70,
        "2x2 unr",
    );
}

#[test]
fn bit_lock_1x1_unr() {
    check(
        lock(1, 1, GRID, 1, 1, true),
        0xfe77_7f4f_5adf_95f9,
        "1x1 unr",
    );
}

/// Two y rows per rank: the UNR backend exchanges halos without
/// overlap.
#[test]
fn bit_lock_two_rows_per_rank_unr() {
    check(
        lock(4, 1, (32, 4, 16), 2, 2, true),
        0xe443_88a3_807b_5186,
        "2x2 ly=2 unr",
    );
}

/// Four z ranks: the two middle ones solve both influence vectors.
#[test]
fn bit_lock_1x4_unr() {
    check(
        lock(4, 1, GRID, 1, 4, true),
        0xa9f6_9091_da91_6e60,
        "1x4 unr",
    );
}

/// Three y ranks: 32 splits into 11, 11 and 10 lines and x columns, so
/// the batched FFTs run odd line counts and the PDD blocks end short.
#[test]
fn bit_lock_3x2_uneven_unr() {
    check(
        lock(3, 2, GRID, 3, 2, true),
        0x51fc_84b5_497a_0fe2,
        "3x2 uneven unr",
    );
}

#[test]
fn bit_lock_20_steps_4x2_unr() {
    check(
        lock_steps(LONG, 4, 2, GRID, 4, 2, true),
        0x42d9_dc65_a677_2daf,
        "4x2 unr, 20 steps",
    );
}

#[test]
fn bit_lock_20_steps_3x2_uneven_unr() {
    check(
        lock_steps(LONG, 3, 2, GRID, 3, 2, true),
        0xa439_c3d2_f7cf_a20c,
        "3x2 uneven unr, 20 steps",
    );
}

#[test]
fn bit_lock_20_steps_1x4_unr() {
    check(
        lock_steps(LONG, 4, 1, GRID, 1, 4, true),
        0x5431_ba51_9c6b_4d9e,
        "1x4 unr, 20 steps",
    );
}

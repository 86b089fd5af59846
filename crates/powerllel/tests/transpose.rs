//! Transpose equivalence: the UNR slab-pipelined transpose must be an
//! exact inverse pair and must agree with the MPI bulk transpose on
//! random data, across process-grid shapes and slab counts, twice on
//! one `TransposeOp` (the second round reuses the pencil buffers the
//! first one transposed in place).

use unr_core::{Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_powerllel::{Backend, Decomp, TransposeOp, C64};
use unr_simnet::{FabricConfig, Platform};

fn rand_xp(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Random FFT tiles, one per z plane, `len` values each.
fn rand_planes(lz: usize, len: usize, seed: u64) -> Vec<Vec<C64>> {
    let vals = rand_xp(2 * lz * len, seed);
    vals.chunks_exact(2 * len)
        .map(|plane| {
            plane
                .chunks_exact(2)
                .map(|x| C64::new(x[0], x[1]))
                .collect()
        })
        .collect()
}

/// Store every x plane, transpose forward, load every y plane; then
/// back, and load every x plane.
fn round(t: &mut TransposeOp, d: &Decomp, xp: &[Vec<C64>]) -> (Vec<Vec<C64>>, Vec<Vec<C64>>) {
    for (k, plane) in xp.iter().enumerate() {
        t.store_x(k, plane);
    }
    t.forward();
    let mut yp = vec![vec![C64::ZERO; d.lx_t * d.ny]; d.lz];
    for (k, plane) in yp.iter_mut().enumerate() {
        t.load_y(k, plane);
    }
    for (k, plane) in yp.iter().enumerate() {
        t.store_y(k, plane);
    }
    t.backward();
    let mut back = vec![vec![C64::ZERO; d.nx * d.ly]; d.lz];
    for (k, plane) in back.iter_mut().enumerate() {
        t.load_x(k, plane);
    }
    (yp, back)
}

/// Two rounds on one `TransposeOp`, each on fresh data: per rank and
/// round, the forward result and whether the round trip was exact.
fn run_transpose(py: usize, pz: usize, unr: bool, slabs: usize) -> Vec<Vec<(Vec<Vec<C64>>, bool)>> {
    let n = py * pz;
    let mut cfg: FabricConfig = Platform::th_xy().fabric_config(n, 1);
    cfg.seed = 17;
    run_mpi_world(cfg, move |comm| {
        let backend = if unr {
            Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()))
        } else {
            Backend::Mpi
        };
        let d = Decomp::new(comm, 16, 8, 12, py, pz);
        let mut t = TransposeOp::new(&backend, &d, slabs);
        (0..2)
            .map(|r| {
                let seed = 100 + 10 * r + comm.rank() as u64;
                let xp = rand_planes(d.lz, d.nx * d.ly, seed);
                let (yp, back) = round(&mut t, &d, &xp);
                (yp, back == xp)
            })
            .collect()
    })
}

fn check(py: usize, pz: usize) {
    let mpi = run_transpose(py, pz, false, 1);
    for slabs in [1usize, 2, 4] {
        let unr = run_transpose(py, pz, true, slabs);
        for (r, (m, u)) in mpi.iter().zip(&unr).enumerate() {
            for (round, (m, u)) in m.iter().zip(u).enumerate() {
                assert_eq!(
                    m.0, u.0,
                    "py={py} pz={pz} slabs={slabs} rank {r} round {round}: y-pencil data differs"
                );
                assert!(m.1, "mpi round trip must be exact (pure copies)");
                assert!(u.1, "unr round trip must be exact (pure copies)");
            }
        }
    }
}

#[test]
fn transpose_equivalence_2x2() {
    check(2, 2);
}

#[test]
fn transpose_equivalence_4x1() {
    check(4, 1);
}

#[test]
fn transpose_equivalence_1x3() {
    check(1, 3);
}

#[test]
fn transpose_equivalence_3x2() {
    check(3, 2);
}

#[test]
fn transpose_pipeline_overlaps_in_time() {
    // The pipelined transpose must not be slower than single-slab bulk
    // on the same backend (it may tie at these tiny sizes, but a
    // regression that serializes the pipeline would show up as a clear
    // slowdown).
    let time_with = |slabs: usize| -> u64 {
        let mut cfg: FabricConfig = Platform::th_xy().fabric_config(4, 1);
        cfg.seed = 9;
        cfg.nic.jitter_frac = 0.0;
        let results = run_mpi_world(cfg, move |comm| {
            let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
            let d = Decomp::new(comm, 64, 32, 16, 4, 1);
            let mut t = TransposeOp::new(&backend, &d, slabs);
            let xp = rand_planes(d.lz, d.nx * d.ly, 3);
            let t0 = comm.ep().now();
            for _ in 0..4 {
                round(&mut t, &d, &xp);
            }
            comm.ep().now() - t0
        });
        results[0]
    };
    let bulk = time_with(1);
    let pipelined = time_with(4);
    assert!(
        pipelined <= bulk * 11 / 10,
        "pipelined transpose regressed: {pipelined} vs bulk {bulk}"
    );
}

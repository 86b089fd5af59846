//! SPMD launch helper: spawn one thread per rank, each with a world
//! communicator — the `mpirun` of the simulated universe.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use unr_simnet::{Fabric, FabricConfig};

use crate::comm::{Comm, MpiConfig};

/// Run `f(&comm)` on every rank of a fresh fabric; returns per-rank
/// results in rank order. Panics in any rank poison the simulation and
/// are re-thrown.
pub fn run_mpi_world<R, F>(cfg: FabricConfig, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&Comm) -> R + Send + Sync + 'static,
{
    run_mpi_world_cfg(cfg, MpiConfig::default(), f)
}

/// [`run_mpi_world`] with explicit mini-MPI tuning.
pub fn run_mpi_world_cfg<R, F>(cfg: FabricConfig, mpi: MpiConfig, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&Comm) -> R + Send + Sync + 'static,
{
    let fabric = Fabric::new(cfg);
    run_mpi_on_fabric(&fabric, mpi, f)
}

/// Run on an existing fabric (lets callers inspect `fabric.obs` and
/// `fabric.tracer`).
pub fn run_mpi_on_fabric<R, F>(fabric: &Arc<Fabric>, mpi: MpiConfig, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&Comm) -> R + Send + Sync + 'static,
{
    let n = fabric.cfg.total_ranks();
    let f = Arc::new(f);
    let endpoints: Vec<_> = (0..n)
        .map(|r| fabric.attach(r, &format!("rank{r}")))
        .collect();
    let mut joins = Vec::with_capacity(n);
    for ep in endpoints {
        let f = Arc::clone(&f);
        joins.push(
            std::thread::Builder::new()
                .name(format!("mpi-rank{}", ep.rank()))
                .stack_size(8 << 20)
                .spawn(move || {
                    ep.actor().begin();
                    let comm = Comm::world_with(ep, mpi);
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
                    match result {
                        Ok(r) => {
                            comm.ep().actor().end();
                            Ok(r)
                        }
                        Err(e) => {
                            comm.ep().actor().poison();
                            Err(e)
                        }
                    }
                })
                .expect("spawn rank thread"),
        );
    }
    let mut results = Vec::with_capacity(n);
    let mut panics = Vec::new();
    for j in joins {
        match j.join() {
            Ok(Ok(r)) => results.push(r),
            Ok(Err(p)) | Err(p) => panics.push(p),
        }
    }
    if !panics.is_empty() {
        let is_poison = |p: &Box<dyn std::any::Any + Send>| {
            p.downcast_ref::<String>()
                .map(|s| s.contains("scheduler is poisoned"))
                .or_else(|| {
                    p.downcast_ref::<&str>()
                        .map(|s| s.contains("scheduler is poisoned"))
                })
                .unwrap_or(false)
        };
        let idx = panics.iter().position(|p| !is_poison(p)).unwrap_or(0);
        std::panic::resume_unwind(panics.swap_remove(idx));
    }
    results
}

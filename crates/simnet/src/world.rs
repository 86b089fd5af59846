//! The world runner: spawn one OS thread per rank and run a closure in
//! each, SPMD-style. Panics in any rank poison the scheduler so sibling
//! ranks fail fast instead of hanging, and the first panic is re-thrown
//! to the caller.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use crate::fabric::{Endpoint, Fabric, FabricConfig};

/// SPMD entry point: run `f(ep)` on every rank. The closure receives an
/// [`Endpoint`] whose actor is already begun; the runner ends the actor
/// when the closure returns (or poisons the sim if it panics).
pub fn run_world<R, F>(cfg: FabricConfig, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&Endpoint) -> R + Send + Sync + 'static,
{
    let fabric = Fabric::new(cfg);
    run_on_fabric(&fabric, f)
}

/// Like [`run_world`], but on a caller-provided fabric (lets the caller
/// inspect `fabric.obs` or `fabric.tracer` afterwards).
pub fn run_on_fabric<R, F>(fabric: &Arc<Fabric>, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&Endpoint) -> R + Send + Sync + 'static,
{
    let n = fabric.cfg.total_ranks();
    let f = Arc::new(f);
    // Register every rank's actor before spawning any thread: the
    // scheduler must know the full actor population at t=0 so no rank can
    // race ahead of an unspawned sibling in virtual time.
    let endpoints: Vec<_> = (0..n)
        .map(|rank| fabric.attach(rank, &format!("rank{rank}")))
        .collect();
    let mut joins = Vec::with_capacity(n);
    for (rank, ep) in endpoints.into_iter().enumerate() {
        let f = Arc::clone(&f);
        joins.push(
            std::thread::Builder::new()
                .name(format!("rank{rank}"))
                .stack_size(8 << 20)
                .spawn(move || {
                    ep.actor().begin();
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&ep)));
                    match result {
                        Ok(r) => {
                            ep.actor().end();
                            Ok(r)
                        }
                        Err(e) => {
                            ep.actor().poison();
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
        // Prefer the root-cause panic over secondary "scheduler is
        // poisoned" panics raised in sibling ranks.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NicSel;

    #[test]
    fn spmd_ring_message() {
        // Each rank sends its rank id to the next rank; results are the
        // received values.
        let got = run_world(FabricConfig::test_default(4), |ep| {
            let n = ep.world_size();
            let me = ep.rank();
            let port = ep.open_port(1);
            ep.send_dgram((me + 1) % n, 1, vec![me as u8], NicSel::Auto);
            let d = ep.recv_dgram(&port);
            d.bytes[0] as usize
        });
        assert_eq!(got, vec![3, 0, 1, 2]);
    }

    #[test]
    fn world_returns_in_rank_order() {
        let got = run_world(FabricConfig::test_default(3), |ep| ep.rank() * 10);
        assert_eq!(got, vec![0, 10, 20]);
    }

    /// Regression test for a lost-wakeup hang: `poison()` must serialize
    /// with waiters about to park, or a sibling rank that checked its
    /// wake condition just before the notify sleeps forever. One shot
    /// rarely hits the window, so hammer it.
    #[test]
    fn rank_panic_never_strands_siblings() {
        for round in 0..100 {
            let r = std::panic::catch_unwind(|| {
                run_world(FabricConfig::test_default(4), |ep| {
                    if ep.rank() == 1 {
                        panic!("intentional");
                    }
                    let port = ep.open_port(1);
                    let _ = ep.recv_dgram(&port);
                });
            });
            let msg = match &r {
                Ok(()) => panic!("round {round}: world returned without panicking"),
                Err(p) => p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default(),
            };
            assert!(
                msg.contains("intentional"),
                "round {round}: wrong panic propagated: {msg:?}"
            );
        }
    }

    /// Trace ordering must be stable across the poison/recovery path:
    /// events recorded by ranks racing a sibling's panic land in racy
    /// Vec positions, but the exported order is sorted by virtual time,
    /// so two identical seeded runs must export identical traces even
    /// though a rank poisons the scheduler mid-run.
    #[test]
    fn poisoned_run_trace_is_stable() {
        let run_once = || {
            let mut cfg = FabricConfig::test_default(4);
            cfg.trace = true;
            let fabric = crate::fabric::Fabric::new(cfg);
            let fb = Arc::clone(&fabric);
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_on_fabric(&fb, |ep| {
                    let n = ep.world_size();
                    let me = ep.rank();
                    // Concurrent posts at the same virtual time land in
                    // the trace Vec in racy lock order. Rank 1 panics
                    // only after *receiving* everyone's dgram, so every
                    // traced post is causally complete before the poison
                    // — the event set is fixed, only its raw order races.
                    if me == 1 {
                        for dst in [0usize, 2, 3] {
                            ep.send_dgram(dst, 2, vec![1], NicSel::Auto);
                        }
                        let port = ep.open_port(1);
                        for _ in 0..n - 1 {
                            let _ = ep.recv_dgram(&port);
                        }
                        panic!("intentional");
                    }
                    ep.send_dgram(1, 1, vec![me as u8], NicSel::Auto);
                    let port = ep.open_port(2);
                    let _ = ep.recv_dgram(&port);
                    // Never satisfied: waits here until poisoned.
                    let _ = ep.recv_dgram(&port);
                });
            }));
            assert!(r.is_err(), "run must propagate the panic");
            fabric.tracer.as_ref().unwrap().to_chrome_json()
        };
        let a = run_once();
        for round in 0..20 {
            assert_eq!(a, run_once(), "trace diverged on round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "intentional")]
    fn rank_panic_propagates() {
        run_world(FabricConfig::test_default(2), |ep| {
            if ep.rank() == 1 {
                panic!("intentional");
            }
            // Rank 0 would block forever on a message that never comes;
            // the poison mechanism must abort it instead of hanging.
            let port = ep.open_port(1);
            let _ = ep.recv_dgram(&port);
        });
    }
}

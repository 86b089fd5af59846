//! Progress is a function, not a thread: on the simulator every UNR
//! progress agent — the busy and the periodic polling agent, and the
//! hybrid control drainer of `ProgressMode::Hardware` — is a callback
//! actor run inside the scheduler, so no OS thread named `unr-…` exists
//! while a world runs, whatever the progress mode. Thread *names* are
//! checked rather than the `Threads:` count, because the test harness
//! runs other tests' threads in the same process.
#![cfg(target_os = "linux")]

use unr_core::{convert, ProgressMode, Reliability, Unr, UnrConfig};
use unr_minimpi::{coll, run_mpi_on_fabric, MpiConfig};
use unr_simnet::{us, Fabric, Platform};

/// Threads of this process whose name starts with `unr-`.
fn unr_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("unr-"))
        .collect()
}

/// A 4-rank ring of notified puts under `progress`; every rank lists
/// the `unr-` threads it sees mid-run, with its agent started and busy.
fn agent_threads_seen(progress: ProgressMode, reliability: Reliability, hardware: bool) {
    const MSG: usize = 4 << 10;
    const ITERS: usize = 4;
    let mut cfg = Platform::th_xy().fabric_config(2, 2);
    cfg.seed = 28;
    if hardware {
        cfg.iface = cfg.iface.with_hardware_atomic_add();
    }
    let fabric = Fabric::new(cfg);
    let seen = run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr = Unr::init(
            comm.ep_shared(),
            UnrConfig {
                progress: Some(progress),
                reliability,
                ..UnrConfig::default()
            },
        );
        let (me, n) = (comm.rank(), comm.size());
        let mem = unr.mem_reg(2 * MSG);
        let sig = unr.sig_init(1);
        let recv = unr.blk_init(&mem, MSG, MSG, Some(&sig));
        convert::send_blk(comm, (me + n - 1) % n, 0, &recv);
        let remote = convert::recv_blk(comm, (me + 1) % n, 0);
        let send = unr.blk_init(&mem, 0, MSG, None);
        let mut seen = Vec::new();
        for _ in 0..ITERS {
            unr.put(&send, &remote).unwrap();
            seen.extend(unr_threads());
            unr.sig_wait(&sig).unwrap();
            unr.sig_reset(&sig).unwrap();
            // No rank's next put may land before its target's reset.
            coll::barrier(comm);
        }
        seen
    });
    let seen: Vec<String> = seen.into_iter().flatten().collect();
    assert!(
        seen.is_empty(),
        "{progress:?} ({reliability:?}): agent threads while the world ran: {seen:?}"
    );
}

#[test]
fn no_progress_mode_runs_an_agent_thread() {
    agent_threads_seen(
        ProgressMode::PollingAgent { interval: 0 },
        Reliability::Off,
        false,
    );
    agent_threads_seen(
        ProgressMode::PollingAgent { interval: us(2.0) },
        Reliability::Off,
        false,
    );
    agent_threads_seen(ProgressMode::Hardware, Reliability::On, true);
    agent_threads_seen(ProgressMode::UserDriven, Reliability::Off, false);
}

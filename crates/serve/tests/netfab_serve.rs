//! The KV service on netfab: 4 real processes × 2 NICs run
//! [`ServeConfig::quick`] over the reliable transport, and the parent
//! checks the same accounting laws `tests/serve.rs` checks on the
//! simulator — every rank reports once, every arrival completed or was
//! shed, every GET was a hit or a miss, no client saw a signal
//! allocation failure, and every acked replica leg landed in a window
//! (`replica_acks == window_writes`).
//!
//! Runs without the libtest harness (`harness = false`): the launcher
//! re-executes this binary as the rank processes.

use std::sync::Arc;
use std::time::Duration;

use unr_core::{Blk, Reliability, UnrConfig};
use unr_netfab::{spawn_world, NetFaults, NetUnr, NetWorld};
use unr_serve::{run_open_loop, RankReport, ServeConfig};

const RANKS: usize = 4;
const NICS: usize = 2;
// Within the engine's default 32 event bits; see harness::WINDOW_EVENTS.
const WINDOW_EVENTS: i64 = 1 << 30;
const REPORT: &str = "NETFAB_SERVE_JSON ";

fn rank_main(world: NetWorld, cfg: &ServeConfig) {
    let world = Arc::new(world);
    // Reliable transport: a drained reliable queue means every replica
    // write was acked as applied, which is what makes the post-run
    // window-counter read an exact accounting check.
    let ucfg = UnrConfig::builder()
        .reliability(Reliability::On)
        .build()
        .expect("netfab serve config");
    let unr = NetUnr::init(Arc::clone(&world), ucfg, NetFaults::default()).expect("netfab engine");
    let mem = unr.mem_reg(cfg.region_len());

    let window_sig = unr.sig_init(WINDOW_EVENTS);
    let win = mem.blk(0, cfg.window_len(), Some(&window_sig));
    let windows: Vec<Blk> = world.exchange_blks(&win).expect("window exchange");
    let base_live = unr.signal_occupancy().0;

    world.barrier().expect("pre-run barrier");
    let mut report = run_open_loop(&unr, mem, cfg, windows, base_live).expect("serve rank");
    // Settle: wait for our reliable sends to be acked (=> applied at
    // the replicas), then a barrier so every rank's writes are in
    // before window counters are read.
    assert!(unr.drain_pending(Duration::from_secs(10)), "reliable drain");
    world.barrier().expect("post-run barrier");
    report.window_writes = (WINDOW_EVENTS - window_sig.counter()) as u64;
    report.fingerprint = unr.table_fingerprint();
    println!("{REPORT}{}", report.to_wire());
    world.barrier().expect("exit barrier");
    unr.finalize();
}

fn main() {
    let cfg = ServeConfig::quick();
    if let Some(world) = NetWorld::from_env() {
        rank_main(world.expect("netfab bootstrap"), &cfg);
        return;
    }
    let res = spawn_world(RANKS, NICS, &[]).expect("netfab serve launch");
    assert!(
        res.success(),
        "a rank failed: exit codes {:?}",
        res.statuses
    );
    let per_rank: Vec<RankReport> = res
        .outputs
        .iter()
        .enumerate()
        .map(|(rank, out)| {
            let lines: Vec<&str> = out.lines().filter_map(|l| l.strip_prefix(REPORT)).collect();
            assert_eq!(lines.len(), 1, "rank {rank} reports once");
            RankReport::from_wire(lines[0]).expect("rank report")
        })
        .collect();
    let m = RankReport::merge(&per_rank);
    assert_eq!(m.completed() + m.shed, m.ops, "drained, nothing stuck");
    assert_eq!(m.hits + m.misses, m.gets, "every GET is a hit or a miss");
    assert_eq!(m.sig_alloc_fails, 0, "no client-visible alloc failures");
    assert!(m.puts > 0 && m.replica_acks > 0, "replicated PUTs expected");
    assert_eq!(
        m.replica_acks, m.window_writes,
        "every acked replica leg must have landed in a window"
    );
    println!(
        "netfab_serve: {} arrivals, {} completed, {} shed, {} replica acks = window writes",
        m.ops,
        m.completed(),
        m.shed,
        m.replica_acks
    );
}

//! Fabric edge cases: queue overflow, deregistration, loopback paths,
//! jitter determinism and multi-rail reordering.

use std::sync::Arc;

use unr_simnet::{Fabric, FabricConfig, GetOp, NicSel, Platform, PutOp, RKey};

/// Spawn `n` rank threads over a fresh fabric, collecting results.
fn world<R: Send + 'static>(
    cfg: FabricConfig,
    f: impl Fn(&unr_simnet::Endpoint) -> R + Send + Sync + 'static,
) -> (Vec<R>, std::sync::Arc<Fabric>) {
    let fabric = Fabric::new(cfg);
    let out = unr_simnet::run_on_fabric(&fabric, f);
    (out, fabric)
}

#[test]
fn cq_overflow_latches_and_drops() {
    // A tiny CQ with nobody draining it must overflow, not grow.
    let mut cfg = FabricConfig::test_default(2);
    cfg.cq_capacity = 4;
    let (results, _fabric) = world(cfg, |ep| {
        if ep.rank() == 0 {
            let cq = ep.create_cq();
            let src = ep.register(8, &cq);
            let port = ep.open_port(1);
            let d = ep.recv_dgram(&port);
            let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
            for i in 0..10 {
                ep.put(PutOp {
                    src: &src,
                    src_offset: 0,
                    len: 8,
                    dst: RKey {
                        rank: 1,
                        id,
                        len: 8,
                    },
                    dst_offset: 0,
                    nic: NicSel::Auto,
                    custom_local: i + 1,
                    custom_remote: 0,
                    local_cq: Some(Arc::clone(&cq)),
                    notify_remote: false,
                    companion: None,
                })
                .unwrap();
            }
            ep.sleep(unr_simnet::us(100.0));
            (cq.len(), cq.dropped(), cq.overflowed())
        } else {
            let cq = ep.create_cq();
            let dst = ep.register(8, &cq);
            ep.send_dgram(0, 1, dst.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
            ep.sleep(unr_simnet::us(150.0));
            (0, 0, false)
        }
    });
    let (len, dropped, overflowed) = results[0];
    assert_eq!(len, 4, "CQ must cap at capacity");
    assert_eq!(dropped, 6);
    assert!(overflowed, "overflow flag must latch");
}

#[test]
fn writes_to_deregistered_region_are_lost_not_fatal() {
    let (results, fabric) = world(FabricConfig::test_default(2), |ep| {
        if ep.rank() == 0 {
            let cq = ep.create_cq();
            let src = ep.register(8, &cq);
            let port = ep.open_port(1);
            let d = ep.recv_dgram(&port);
            let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
            // Give the target time to deregister before the put lands.
            ep.sleep(unr_simnet::us(20.0));
            ep.put(PutOp {
                src: &src,
                src_offset: 0,
                len: 8,
                dst: RKey {
                    rank: 1,
                    id,
                    len: 8,
                },
                dst_offset: 0,
                nic: NicSel::Auto,
                custom_local: 0,
                custom_remote: 1,
                local_cq: None,
                notify_remote: true,
                companion: None,
            })
            .unwrap();
            ep.sleep(unr_simnet::us(50.0));
        } else {
            let cq = ep.create_cq();
            let dst = ep.register(8, &cq);
            ep.send_dgram(0, 1, dst.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
            // Deregister before the put arrives.
            ep.deregister(&dst);
            ep.sleep(unr_simnet::us(100.0));
            assert!(cq.is_empty(), "no event for a dropped write");
        }
    });
    let _ = results;
    let snap = fabric.obs.metrics.snapshot();
    assert_eq!(snap.counter("simnet.fabric.lost_writes"), Some(1));
}

/// A GET whose source region the target deregisters before the
/// request lands reads nothing: one lost write, no `GetLocal` at the
/// poster, no panic.
#[test]
fn reads_of_a_deregistered_region_are_lost_not_fatal() {
    let (results, fabric) = world(FabricConfig::test_default(2), |ep| {
        let cq = ep.create_cq();
        let mine = ep.register(8, &cq);
        if ep.rank() == 0 {
            let port = ep.open_port(1);
            let d = ep.recv_dgram(&port);
            let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
            // Give the target time to deregister before the request lands.
            ep.sleep(unr_simnet::us(20.0));
            ep.get(GetOp {
                dst: &mine,
                dst_offset: 0,
                len: 8,
                src: RKey {
                    rank: 1,
                    id,
                    len: 8,
                },
                src_offset: 0,
                nic: NicSel::Auto,
                custom_local: 5,
                custom_remote: 0,
                local_cq: Some(Arc::clone(&cq)),
                notify_remote: false,
            })
            .unwrap();
            ep.sleep(unr_simnet::us(50.0));
        } else {
            ep.send_dgram(0, 1, mine.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
            ep.deregister(&mine);
            ep.sleep(unr_simnet::us(100.0));
        }
        cq.is_empty()
    });
    assert_eq!(results, [true, true], "no completion on either side");
    let snap = fabric.obs.metrics.snapshot();
    assert_eq!(snap.counter("simnet.fabric.gets"), Some(1));
    assert_eq!(snap.counter("simnet.fabric.lost_writes"), Some(1));
}

#[test]
fn intra_node_put_faster_than_inter_node() {
    let mut cfg = Platform::th_2a().fabric_config(2, 2); // 2 nodes x 2 ranks
    cfg.nic.jitter_frac = 0.0;
    let (results, _) = world(cfg, |ep| {
        // Rank 0 measures puts to rank 1 (same node) and rank 2 (other
        // node).
        let cq = ep.create_cq();
        let mine = ep.register(4096, &cq);
        let port = ep.open_port(1);
        if ep.rank() == 0 {
            let mut keys = std::collections::HashMap::new();
            // All three other ranks announce themselves, in any order.
            for _ in 0..3 {
                let d = ep.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                keys.insert(d.src, id);
            }
            let measure = |dst_rank: usize| {
                let t0 = ep.now();
                ep.put(PutOp {
                    src: &mine,
                    src_offset: 0,
                    len: 4096,
                    dst: RKey {
                        rank: dst_rank,
                        id: keys[&dst_rank],
                        len: 4096,
                    },
                    dst_offset: 0,
                    nic: NicSel::Auto,
                    custom_local: 1,
                    custom_remote: 0,
                    local_cq: Some(Arc::clone(&cq)),
                    notify_remote: false,
                    companion: None,
                })
                .unwrap();
                ep.wait_cq(&cq);
                cq.try_pop();
                ep.now() - t0
            };
            let intra = measure(1);
            let inter = measure(2);
            (intra, inter)
        } else {
            ep.send_dgram(0, 1, mine.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
            ep.sleep(unr_simnet::us(200.0));
            (0, 0)
        }
    });
    let (intra, inter) = results[0];
    assert!(
        intra < inter,
        "intra-node loopback ({intra} ns) must beat inter-node ({inter} ns)"
    );
}

#[test]
fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
    let run = |seed: u64| -> Vec<u64> {
        let mut cfg = FabricConfig::test_default(2);
        cfg.nic.jitter_frac = 0.3;
        cfg.seed = seed;
        let (results, _) = world(cfg, |ep| {
            let cq = ep.create_cq();
            let mine = ep.register(64, &cq);
            let port = ep.open_port(1);
            if ep.rank() == 0 {
                let d = ep.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                let mut arrivals = Vec::new();
                for _ in 0..5 {
                    ep.put(PutOp {
                        src: &mine,
                        src_offset: 0,
                        len: 64,
                        dst: RKey {
                            rank: 1,
                            id,
                            len: 64,
                        },
                        dst_offset: 0,
                        nic: NicSel::Auto,
                        custom_local: 1,
                        custom_remote: 0,
                        local_cq: Some(Arc::clone(&cq)),
                        notify_remote: false,
                        companion: None,
                    })
                    .unwrap();
                    arrivals.push(ep.wait_cq(&cq));
                    cq.try_pop();
                }
                arrivals
            } else {
                ep.send_dgram(0, 1, mine.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
                ep.sleep(unr_simnet::us(200.0));
                Vec::new()
            }
        });
        results[0].clone()
    };
    let a1 = run(11);
    let a2 = run(11);
    let b = run(12);
    assert_eq!(a1, a2, "same seed -> identical timings");
    assert_ne!(a1, b, "different seed -> different jitter");
}

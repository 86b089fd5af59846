//! Small-message aggregation channel (paper §IV-E.4).

use unr_core::{PackChannel, Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{FabricConfig, InterfaceKind, InterfaceSpec};

#[test]
fn packed_messages_roundtrip_many_epochs() {
    let results = run_mpi_world(FabricConfig::test_default(2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        if comm.rank() == 0 {
            let mut tx = PackChannel::sender(&unr, comm, 1, 4096, 0);
            for epoch in 0..5u8 {
                for i in 0..20u8 {
                    tx.push(&vec![epoch * 20 + i; (i as usize % 7) + 1])
                        .unwrap();
                }
                assert_eq!(tx.flush().unwrap(), 20);
            }
            true
        } else {
            let mut rx = PackChannel::receiver(&unr, comm, 0, 4096, 0);
            for epoch in 0..5u8 {
                let msgs = rx.recv().unwrap();
                assert_eq!(msgs.len(), 20);
                for (i, m) in msgs.iter().enumerate() {
                    assert_eq!(m.len(), (i % 7) + 1);
                    assert!(m.iter().all(|&b| b == epoch * 20 + i as u8));
                }
            }
            true
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn push_rejects_overflow_cleanly() {
    let results = run_mpi_world(FabricConfig::test_default(2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        if comm.rank() == 0 {
            let mut tx = PackChannel::sender(&unr, comm, 1, 64, 1);
            assert!(tx.push(&[1u8; 40]).is_ok());
            // 4 (count) + 4+40 used; another 40B message cannot fit.
            assert!(tx.push(&[2u8; 40]).is_err());
            assert_eq!(tx.flush().unwrap(), 1);
            true
        } else {
            let mut rx = PackChannel::receiver(&unr, comm, 0, 64, 1);
            let msgs = rx.recv().unwrap();
            assert_eq!(msgs.len(), 1);
            assert_eq!(msgs[0], vec![1u8; 40]);
            true
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn empty_flush_is_valid() {
    let results = run_mpi_world(FabricConfig::test_default(2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        if comm.rank() == 0 {
            let mut tx = PackChannel::sender(&unr, comm, 1, 256, 2);
            assert_eq!(tx.flush().unwrap(), 0);
            tx.push(b"after-empty").unwrap();
            tx.flush().unwrap();
            true
        } else {
            let mut rx = PackChannel::receiver(&unr, comm, 0, 256, 2);
            assert!(rx.recv().unwrap().is_empty());
            assert_eq!(rx.recv().unwrap()[0], b"after-empty");
            true
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn pack_channel_works_on_fallback() {
    let mut cfg = FabricConfig::test_default(2);
    cfg.iface = InterfaceSpec::lookup(InterfaceKind::MpiOnly);
    let results = run_mpi_world(cfg, |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        if comm.rank() == 0 {
            let mut tx = PackChannel::sender(&unr, comm, 1, 1024, 3);
            for i in 0..8u8 {
                tx.push(&[i; 8]).unwrap();
            }
            tx.flush().unwrap();
            true
        } else {
            let mut rx = PackChannel::receiver(&unr, comm, 0, 1024, 3);
            let msgs = rx.recv().unwrap();
            assert_eq!(msgs.len(), 8);
            true
        }
    });
    assert!(results.into_iter().all(|b| b));
}

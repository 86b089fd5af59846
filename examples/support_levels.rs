//! Portability tour: the same notified-put program runs unchanged on
//! every interconnect of the paper's Table II — GLEX (level 3), Verbs
//! (level 2), uTofu (level 1), the level-0 companion channel, the MPI
//! fallback, and the proposed level-4 hardware — demonstrating the UNR
//! support levels and channel auto-selection.
//!
//! Run with: `cargo run -p unr-examples --example support_levels`

use unr_core::{convert, ChannelSelect, Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{FabricConfig, InterfaceKind, InterfaceSpec};

fn ping(iface: InterfaceKind, hardware: bool, select: ChannelSelect) -> (String, f64) {
    let mut fabric = FabricConfig::test_default(2);
    fabric.iface = InterfaceSpec::lookup(iface);
    if hardware {
        fabric.iface = fabric.iface.with_hardware_atomic_add();
    }
    let results = run_mpi_world(fabric, move |comm| {
        let ucfg = UnrConfig {
            channel: select,
            n_bits: 8, // small event field: fits every level's custom bits
            ..UnrConfig::default()
        };
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let mem = unr.mem_reg(1024);
        let sig = unr.sig_init(1);
        let iters = 20;
        let me = comm.rank();
        let recv_blk = unr.blk_init(&mem, 0, 256, Some(&sig));
        let send_blk = unr.blk_init(&mem, 0, 256, None);
        let remote = convert::exchange_blk(comm, 1 - me, 0, &recv_blk);
        let t0 = comm.ep().now();
        for _ in 0..iters {
            if me == 0 {
                unr.put(&send_blk, &remote).unwrap();
                unr.sig_wait(&sig).unwrap();
                sig.reset().unwrap();
            } else {
                unr.sig_wait(&sig).unwrap();
                sig.reset().unwrap();
                unr.put(&send_blk, &remote).unwrap();
            }
        }
        let lat = (comm.ep().now() - t0) as f64 / iters as f64 / 2.0;
        (
            format!("{:?}", unr.support_level()),
            unr.channel().name,
            lat,
        )
    });
    let (level, chan, lat) = results[0].clone();
    (format!("{chan} ({level})"), lat / 1000.0)
}

fn main() {
    println!("the same program, every interconnect (256 B notified-put latency):\n");
    let cases: Vec<(&str, InterfaceKind, bool, ChannelSelect)> = vec![
        (
            "TH Express (GLEX)",
            InterfaceKind::Glex,
            false,
            ChannelSelect::Auto,
        ),
        (
            "InfiniBand (Verbs m1)",
            InterfaceKind::Verbs,
            false,
            ChannelSelect::Auto,
        ),
        (
            "InfiniBand (Verbs m2)",
            InterfaceKind::Verbs,
            false,
            ChannelSelect::Mode2 { key_bits: 16 },
        ),
        (
            "Tofu (uTofu)",
            InterfaceKind::Utofu,
            false,
            ChannelSelect::Auto,
        ),
        (
            "Aries (uGNI)",
            InterfaceKind::Ugni,
            false,
            ChannelSelect::Auto,
        ),
        (
            "level-0 companion",
            InterfaceKind::Glex,
            false,
            ChannelSelect::ForceLevel0,
        ),
        (
            "MPI-only fallback",
            InterfaceKind::MpiOnly,
            false,
            ChannelSelect::Auto,
        ),
        (
            "next-gen NIC (level 4)",
            InterfaceKind::Glex,
            true,
            ChannelSelect::Auto,
        ),
    ];
    for (name, iface, hw, sel) in cases {
        let (desc, lat_us) = ping(iface, hw, sel);
        println!("  {name:<24} -> {desc:<28} {lat_us:>6.2} us");
    }
}

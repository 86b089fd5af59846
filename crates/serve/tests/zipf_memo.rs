//! The zipf table is built once per process and shared. One test in
//! its own binary: the memo is process-wide, and a test running beside
//! it in the same process could replace the slot between two builds.

use std::sync::Arc;

use unr_serve::{ClientGen, ServeConfig, ZipfKeys};

fn gen(seed: u64, cfg: &ServeConfig) -> ClientGen {
    ClientGen::new(
        seed,
        cfg.clients,
        cfg.mean_think_ns,
        cfg.keys,
        cfg.zipf_s,
        cfg.read_frac,
    )
}

#[test]
fn equal_shapes_share_one_table_and_a_new_shape_rebuilds_it() {
    let cfg = ServeConfig::default();
    // Two ranks' generators: different seeds, one table.
    let (a, b) = (gen(1, &cfg), gen(2, &cfg));
    assert!(Arc::ptr_eq(a.zipf().cdf(), b.zipf().cdf()));
    assert_eq!(a.zipf().cdf().len(), cfg.keys as usize);

    // A different skew is a different table, and takes the slot.
    let flatter = ServeConfig {
        zipf_s: 0.5,
        ..cfg.clone()
    };
    let c = gen(1, &flatter);
    assert!(!Arc::ptr_eq(a.zipf().cdf(), c.zipf().cdf()));
    assert_ne!(a.zipf().prob(0), c.zipf().prob(0));
    assert!(Arc::ptr_eq(c.zipf().cdf(), gen(3, &flatter).zipf().cdf()));

    // Back to the first shape: rebuilt, bit for bit the same table.
    let d = gen(1, &cfg);
    assert!(!Arc::ptr_eq(a.zipf().cdf(), d.zipf().cdf()));
    assert!(a
        .zipf()
        .cdf()
        .iter()
        .zip(d.zipf().cdf().iter())
        .all(|(x, y)| x.to_bits() == y.to_bits()));

    // The key count is half the memo's key: same skew, fewer keys.
    let small = ZipfKeys::new(9, 1024, cfg.zipf_s);
    assert!(!Arc::ptr_eq(d.zipf().cdf(), small.cdf()));
    assert_eq!(small.cdf().len(), 1024);
    assert_eq!(small.cdf()[1023], 1.0);
}

//! Ablation — level-2 mode-2 bit budget (paper Table I).
//!
//! On a 32-bit-immediate NIC (Verbs), mode 2 splits the custom bits
//! into `x` key bits and `32-x` addend bits. This quantifies the
//! trade-off the paper states qualitatively: more key bits → more
//! concurrent signals; more addend bits → wider striping units
//! (`1 << (N+1)` must fit the signed addend field).

use unr_bench::print_table;
use unr_core::{striped_addends, Encoding, Notif};

fn main() {
    let mut rows = Vec::new();
    for key_bits in [8u16, 12, 16, 20, 24, 28] {
        let a_bits = 32 - key_bits;
        let enc = Encoding::Mode2 { bits: 32, key_bits };
        let max_signals = enc.max_key();
        // Largest event-field width N whose 2-stripe carrier addend
        // (-1 + 1*(1 << (N+1))) still encodes.
        let mut max_n = 0u32;
        for n in 1..32 {
            let probe = striped_addends(2, n)[0];
            if enc
                .encode(Notif {
                    key: 1,
                    addend: probe,
                })
                .is_ok()
            {
                max_n = n;
            }
        }
        // Largest stripe count K at the modest N = 4 (num_event ≤ 15).
        let mut max_k = 1usize;
        for k in 2..=64 {
            let probe = striped_addends(k, 4)[0];
            if enc
                .encode(Notif {
                    key: 1,
                    addend: probe,
                })
                .is_ok()
            {
                max_k = k;
            } else {
                break;
            }
        }
        rows.push(vec![
            format!("{key_bits} + {a_bits}"),
            format!("{max_signals}"),
            if max_n == 0 {
                "none".into()
            } else {
                format!("N <= {max_n} (num_event <= {})", (1u64 << max_n) - 1)
            },
            format!("{max_k}"),
        ]);
    }
    print_table(
        "Ablation — Verbs mode-2 bit budget (32 custom bits)",
        &[
            "key + addend bits",
            "max concurrent signals",
            "event-field width for 2-way striping",
            "max stripes at N=4",
        ],
        &rows,
    );
    println!(
        "\nMode 1 (all 32 bits key) allows 4.29e9 signals but no striping at\n\
         all; level 3's 64-bit fields remove the trade-off entirely — the\n\
         quantified version of Table I's 'limited number of signals and\n\
         events' caveat."
    );
}

//! Regenerate paper Table III: the four experiment platform presets.

use unr_bench::print_table;
use unr_simnet::Platform;

fn main() {
    let rows: Vec<Vec<String>> = Platform::all()
        .iter()
        .map(|p| {
            vec![
                format!("{} ({}, {})", p.name, p.abbrev, p.deployed),
                p.cpu_desc.to_string(),
                p.nic_desc.to_string(),
                p.paper_nodes.to_string(),
                format!("{:?}", p.iface),
                format!(
                    "{:.1} us / {:.0} Gbps x{}",
                    p.latency_us, p.gbps, p.nics_per_node
                ),
            ]
        })
        .collect();
    print_table(
        "Table III — experiment platform specifications",
        &[
            "System (abbreviation, deployed year)",
            "CPU",
            "NIC(s)",
            "Used nodes (paper)",
            "Interface",
            "Simulated model",
        ],
        &rows,
    );
}

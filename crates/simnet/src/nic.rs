//! NIC models and the notifiable-RMA interface registry (paper Table II).
//!
//! Each simulated NIC is described by a performance model (latency,
//! bandwidth, jitter) plus an [`InterfaceSpec`] describing its notifiable
//! RMA primitives: how many *custom bits* a PUT or GET can deliver to the
//! local and remote completion queues, and whether the NIC can apply a
//! remote atomic add itself (the paper's proposed level-4 hardware).

use crate::time::{Bandwidth, Ns};

/// Widths (in bits) of the custom-bits payload a NIC delivers with each
/// operation's completion events. `0` means the corresponding completion
/// carries no user payload (and for the remote side, that no remote
/// completion event is generated at all, as with Verbs RDMA READ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomBits {
    pub put_local: u16,
    pub put_remote: u16,
    pub get_local: u16,
    pub get_remote: u16,
}

impl CustomBits {
    pub const fn symmetric(bits: u16) -> Self {
        CustomBits {
            put_local: bits,
            put_remote: bits,
            get_local: bits,
            get_remote: bits,
        }
    }

    /// Mask a payload down to `bits` (the fabric truncates what the
    /// hardware cannot carry — honesty layer for the encodings above).
    pub fn mask(value: u128, bits: u16) -> u128 {
        match bits {
            0 => 0,
            b if b >= 128 => value,
            b => value & ((1u128 << b) - 1),
        }
    }
}

/// Low-level network programming interfaces from the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceKind {
    /// GLEX — TH Express network (Tianhe systems).
    Glex,
    /// Verbs — Slingshot / InfiniBand / RoCE.
    Verbs,
    /// uTofu — Tofu Interconnect (Fugaku, K).
    Utofu,
    /// uGNI — Aries (Piz Daint, Trinity).
    Ugni,
    /// PAMI — Blue Gene/Q.
    Pami,
    /// Portals — SeaStar (Red Storm lineage).
    Portals,
    /// No RMA primitives at all; everything over two-sided messaging.
    /// Exercises UNR's MPI fallback channel.
    MpiOnly,
    /// Unix-domain sockets between OS processes (the `unr-netfab`
    /// backend). Emulated RMA with full 128-bit custom bits carried in
    /// the frame header; no hardware atomic add (the receiver's reader
    /// thread applies `*p += a`, which is level-2/level-4 *emulation*).
    TcpLoopback,
}

/// Static description of an interface's notifiable RMA primitives.
#[derive(Debug, Clone, Copy)]
pub struct InterfaceSpec {
    pub kind: InterfaceKind,
    pub name: &'static str,
    pub interconnect: &'static str,
    pub representative_systems: &'static str,
    pub custom_bits: CustomBits,
    /// True for the proposed next-generation NIC: the NIC itself applies
    /// `*p += a` on completion (UNR level 4), so no software polling is
    /// needed.
    pub hardware_atomic_add: bool,
    /// True if the interface supports RMA at all (false only for MpiOnly).
    pub rma_capable: bool,
}

impl InterfaceSpec {
    /// Table II registry (plus this reproduction's TCP-loopback row).
    pub const fn registry() -> [InterfaceSpec; 8] {
        [
            InterfaceSpec {
                kind: InterfaceKind::Glex,
                name: "Glex",
                interconnect: "TH Express network",
                representative_systems: "Tianhe-2A(1), Tianhe-Xingyi",
                custom_bits: CustomBits::symmetric(128),
                hardware_atomic_add: false,
                rma_capable: true,
            },
            InterfaceSpec {
                kind: InterfaceKind::Verbs,
                name: "Verbs",
                interconnect: "Slingshot, Infiniband, RoCE",
                representative_systems: "Frontier(1), Summit(1)",
                custom_bits: CustomBits {
                    put_local: 64,
                    put_remote: 32,
                    get_local: 64,
                    get_remote: 0,
                },
                hardware_atomic_add: false,
                rma_capable: true,
            },
            InterfaceSpec {
                kind: InterfaceKind::Utofu,
                name: "uTofu",
                interconnect: "Tofu Interconnect",
                representative_systems: "Fugaku(1), K(1)",
                custom_bits: CustomBits {
                    put_local: 64,
                    put_remote: 8,
                    get_local: 64,
                    get_remote: 8,
                },
                hardware_atomic_add: false,
                rma_capable: true,
            },
            InterfaceSpec {
                kind: InterfaceKind::Ugni,
                name: "uGNI",
                interconnect: "Aries Interconnect",
                representative_systems: "Piz Daint(3), Trinity(6)",
                custom_bits: CustomBits::symmetric(32),
                hardware_atomic_add: false,
                rma_capable: true,
            },
            InterfaceSpec {
                kind: InterfaceKind::Pami,
                name: "PAMI",
                interconnect: "Blue Gene/Q Interconnection",
                representative_systems: "Sequoia(1), Mira(3)",
                custom_bits: CustomBits {
                    put_local: 64,
                    put_remote: 64, // 64 shared between local/remote
                    get_local: 64,
                    get_remote: 0,
                },
                hardware_atomic_add: false,
                rma_capable: true,
            },
            InterfaceSpec {
                kind: InterfaceKind::Portals,
                name: "Portals",
                interconnect: "SeaStar Interconnect",
                representative_systems: "Kraken(3), Jaguar(6)",
                custom_bits: CustomBits {
                    put_local: 64, // hash of (region, offset) usable as key
                    put_remote: 64,
                    get_local: 64,
                    get_remote: 0,
                },
                hardware_atomic_add: false,
                rma_capable: true,
            },
            InterfaceSpec {
                kind: InterfaceKind::MpiOnly,
                name: "MPI-only",
                interconnect: "(any, two-sided fallback)",
                representative_systems: "—",
                custom_bits: CustomBits::symmetric(0),
                hardware_atomic_add: false,
                rma_capable: false,
            },
            InterfaceSpec {
                kind: InterfaceKind::TcpLoopback,
                name: "TCP-loopback",
                interconnect: "kernel loopback (unr-netfab)",
                representative_systems: "any POSIX host",
                custom_bits: CustomBits::symmetric(128),
                hardware_atomic_add: false,
                rma_capable: true,
            },
        ]
    }

    pub fn lookup(kind: InterfaceKind) -> InterfaceSpec {
        Self::registry()
            .into_iter()
            .find(|s| s.kind == kind)
            .expect("every kind is in the registry")
    }

    /// A copy of this spec upgraded to the paper's proposed level-4
    /// hardware (128-bit custom bits everywhere + NIC-side atomic add).
    pub fn with_hardware_atomic_add(mut self) -> Self {
        self.custom_bits = CustomBits::symmetric(128);
        self.hardware_atomic_add = true;
        self
    }
}

/// Performance model of one NIC (or of a node's intra-node loopback path).
#[derive(Debug, Clone, Copy)]
pub struct NicModel {
    /// One-way wire latency.
    pub latency: Ns,
    /// Link bandwidth.
    pub bandwidth: Bandwidth,
    /// Arrival jitter as a fraction of latency, drawn uniformly from
    /// `[0, jitter_frac * latency]` per message (models adaptive routing).
    pub jitter_frac: f64,
    /// Software/doorbell overhead charged to the posting actor per
    /// operation (LogGP's `o`).
    pub post_overhead: Ns,
}

impl NicModel {
    pub fn new(latency_us: f64, gbps: f64) -> Self {
        NicModel {
            latency: crate::time::us(latency_us),
            bandwidth: Bandwidth::gbps(gbps),
            jitter_frac: 0.0,
            post_overhead: 150,
        }
    }

    pub fn with_jitter(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac));
        self.jitter_frac = frac;
        self
    }
}

/// Mutable state of one NIC instance: when its DMA engine frees up.
#[derive(Debug, Default, Clone)]
pub struct NicState {
    /// Virtual time at which the NIC finishes its queued work.
    pub busy_until: Ns,
}

impl NicState {
    /// Reserve the NIC for a transfer of `bytes` starting no earlier than
    /// `now`; returns (service_start, service_end).
    pub fn reserve(&mut self, now: Ns, bytes: usize, model: &NicModel) -> (Ns, Ns) {
        let start = self.busy_until.max(now);
        let end = start + model.bandwidth.transfer_time(bytes);
        self.busy_until = end;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table2_levels() {
        let glex = InterfaceSpec::lookup(InterfaceKind::Glex);
        assert_eq!(glex.custom_bits.put_remote, 128);
        let verbs = InterfaceSpec::lookup(InterfaceKind::Verbs);
        assert_eq!(verbs.custom_bits.put_remote, 32);
        assert_eq!(verbs.custom_bits.get_remote, 0);
        let utofu = InterfaceSpec::lookup(InterfaceKind::Utofu);
        assert_eq!(utofu.custom_bits.put_remote, 8);
        let mpi = InterfaceSpec::lookup(InterfaceKind::MpiOnly);
        assert!(!mpi.rma_capable);
    }

    #[test]
    fn mask_truncates_payload() {
        assert_eq!(CustomBits::mask(0xdead_beef, 0), 0);
        assert_eq!(CustomBits::mask(0xdead_beef, 8), 0xef);
        assert_eq!(CustomBits::mask(0xdead_beef, 32), 0xdead_beef);
        assert_eq!(CustomBits::mask(u128::MAX, 128), u128::MAX);
        assert_eq!(CustomBits::mask(u128::MAX, 64), u64::MAX as u128);
    }

    #[test]
    fn nic_reserve_serializes_transfers() {
        let model = NicModel::new(1.0, 80.0); // 10 GB/s => 100 ns per KB
        let mut st = NicState::default();
        let (s1, e1) = st.reserve(0, 10_000, &model); // 1 us transfer
        assert_eq!(s1, 0);
        assert_eq!(e1, 1_000);
        // Second transfer posted at t=200 must queue behind the first.
        let (s2, e2) = st.reserve(200, 10_000, &model);
        assert_eq!(s2, 1_000);
        assert_eq!(e2, 2_000);
        // After the NIC drains, a later post starts immediately.
        let (s3, _) = st.reserve(5_000, 1, &model);
        assert_eq!(s3, 5_000);
    }

    #[test]
    fn level4_upgrade() {
        let spec = InterfaceSpec::lookup(InterfaceKind::Glex).with_hardware_atomic_add();
        assert!(spec.hardware_atomic_add);
        assert_eq!(spec.custom_bits.get_remote, 128);
    }
}

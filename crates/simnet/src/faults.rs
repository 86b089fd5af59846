//! Seeded, deterministic fault injection for the simulated fabric.
//!
//! A [`FaultConfig`] attached to [`FabricConfig`](crate::FabricConfig)
//! turns the perfect network into a lossy one: per-delivery drop /
//! duplicate / delay / reorder probabilities, periodic NIC "flap"
//! windows during which an inter-node NIC delivers nothing, and a
//! completion-queue capacity override that creates CQ-overflow
//! pressure. Everything is driven by a dedicated in-tree
//! [`SimRng`] stream (xoshiro256**) seeded from `FaultConfig::seed`,
//! **separate from the jitter stream**, so
//!
//! * faulty runs are bit-replayable: same seed, same faults;
//! * the jitter stream of a faulty run matches the fault-free run
//!   with the same fabric seed, which makes A/B comparisons exact.
//!
//! Faults apply to the *delivery* of PUT sub-messages and of control
//! datagrams (optionally scoped to a port list). A PUT's data write,
//! remote completion and order-preserving companion datagram ride one
//! scheduler event, so a fault affects them as a unit — a dropped
//! sub-message loses its notification too, exactly like a lost packet
//! on a real network. GET responses and source-side (local)
//! completions are never faulted: the recovery layer above
//! (`unr-core`'s retry protocol) covers notifiable PUTs, which is
//! where the paper's MMAS accounting is at stake.
//!
//! When [`FaultConfig::enabled`] is `false` (the default) the fault
//! path is completely inert: no RNG draws, no metric registration, no
//! timing change — byte-identical output to a build without this
//! module.

use crate::rng::{splitmix64, SimRng};
use crate::time::Ns;
use std::sync::Arc;
use unr_obs::{Counter, Registry};

/// Periodic NIC outage windows ("flaps").
///
/// Each inter-node NIC is down for `down` nanoseconds out of every
/// `period`, with a per-NIC phase derived deterministically from the
/// fault seed — so on a multi-NIC node the windows are staggered and
/// traffic that fails over to a sibling NIC can get through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapConfig {
    /// Flap cycle length.
    pub period: Ns,
    /// Portion of each cycle the NIC is down (`down < period`).
    pub down: Ns,
}

/// Fault-injection knobs. All probabilities are per sub-message
/// delivery in `[0, 1]`; the default ([`FaultConfig::none`]) disables
/// everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a delivery is dropped entirely.
    pub drop_prob: f64,
    /// Probability a delivery is duplicated (the copy arrives later).
    pub dup_prob: f64,
    /// Probability a delivery is delayed by up to `delay_max` extra.
    pub delay_prob: f64,
    /// Maximum extra delay for delayed / duplicated deliveries.
    pub delay_max: Ns,
    /// Probability a delivery is pushed past later traffic (modeled as
    /// an extra delay of up to two link latencies — enough to overtake
    /// back-to-back messages on the same link).
    pub reorder_prob: f64,
    /// Periodic NIC outage windows (inter-node NICs only).
    pub flap: Option<FlapConfig>,
    /// Override the completion-queue capacity (CQ-overflow pressure).
    pub cq_capacity: Option<usize>,
    /// Datagram ports subject to faults. `None` faults every port;
    /// `Some(list)` faults only the listed ports (used to scope faults
    /// to one protocol's control traffic). PUT deliveries are always
    /// in scope.
    pub dgram_ports: Option<Vec<u32>>,
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all (the default).
    pub fn none() -> FaultConfig {
        FaultConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_max: 10_000,
            reorder_prob: 0.0,
            flap: None,
            cq_capacity: None,
            dgram_ports: None,
            seed: 0xFA_17,
        }
    }

    /// Convenience: drop each delivery with probability `p`.
    pub fn drops(p: f64) -> FaultConfig {
        FaultConfig {
            drop_prob: p,
            ..FaultConfig::none()
        }
    }

    /// Whether any fault mechanism is active.
    pub fn enabled(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.delay_prob > 0.0
            || self.reorder_prob > 0.0
            || self.flap.is_some()
            || self.cq_capacity.is_some()
    }

    /// Whether faults apply to datagrams on `port`.
    pub fn port_in_scope(&self, port: u32) -> bool {
        match &self.dgram_ports {
            None => true,
            Some(list) => list.contains(&port),
        }
    }

    /// Is inter-node NIC `nic` of `node` inside a flap window at `t`?
    ///
    /// Pure arithmetic on the fault seed (no RNG stream consumed): the
    /// per-NIC phase is `splitmix64(seed ^ id)` reduced mod `period`.
    pub fn nic_flapped(&self, node: usize, nic: usize, t: Ns) -> bool {
        let Some(flap) = self.flap else { return false };
        debug_assert!(flap.down < flap.period, "flap down must be < period");
        let mut s = self.seed ^ ((node as u64) << 32 | nic as u64);
        let phase = splitmix64(&mut s) % flap.period;
        (t + phase) % flap.period < flap.down
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// What the fault layer decided for one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Skip the delivery event entirely.
    Drop {
        /// Dropped because the NIC was in a flap window (not by the
        /// probabilistic drop draw).
        flapped: bool,
    },
    /// Deliver, possibly late, possibly twice.
    Deliver {
        /// Extra latency added to the arrival time.
        extra_delay: Ns,
        /// If `Some(dt)`, deliver a second copy `dt` after the first.
        duplicate: Option<Ns>,
    },
}

impl FaultAction {
    pub(crate) const CLEAN: FaultAction = FaultAction::Deliver {
        extra_delay: 0,
        duplicate: None,
    };
}

/// The mutable fault state: one dedicated deterministic RNG stream and
/// the `simnet.fault.*` counters of what it decides. Lives inside the
/// fabric's interior mutex; only instantiated when
/// `FaultConfig::enabled()`, so fault-free snapshots carry no
/// `simnet.fault.*` series at all.
#[derive(Debug)]
pub(crate) struct FaultState {
    rng: SimRng,
    dropped: Arc<Counter>,
    duplicated: Arc<Counter>,
    delayed: Arc<Counter>,
    flap_dropped: Arc<Counter>,
}

impl FaultState {
    pub(crate) fn new(cfg: &FaultConfig, metrics: &Registry) -> FaultState {
        FaultState {
            rng: SimRng::seed_from_u64(cfg.seed),
            dropped: metrics.counter("simnet.fault.dropped"),
            duplicated: metrics.counter("simnet.fault.duplicated"),
            delayed: metrics.counter("simnet.fault.delayed"),
            flap_dropped: metrics.counter("simnet.fault.flap_dropped"),
        }
    }

    /// Decide and count the fate of one delivery. `flap_site` carries
    /// `(node, nic)` when the delivery leaves through an inter-node
    /// NIC subject to flap windows; `t_wire` is the moment it would
    /// enter the wire; `link_latency` scales the reorder delay.
    pub(crate) fn decide(
        &mut self,
        cfg: &FaultConfig,
        flap_site: Option<(usize, usize)>,
        t_wire: Ns,
        link_latency: Ns,
    ) -> FaultAction {
        if let Some((node, nic)) = flap_site {
            if cfg.nic_flapped(node, nic, t_wire) {
                self.flap_dropped.inc();
                return FaultAction::Drop { flapped: true };
            }
        }
        if cfg.drop_prob > 0.0 && self.rng.gen_f64() < cfg.drop_prob {
            self.dropped.inc();
            return FaultAction::Drop { flapped: false };
        }
        let mut extra = 0;
        if cfg.delay_prob > 0.0 && self.rng.gen_f64() < cfg.delay_prob {
            extra += self.rng.gen_inclusive(cfg.delay_max.max(1));
        }
        if cfg.reorder_prob > 0.0 && self.rng.gen_f64() < cfg.reorder_prob {
            extra += self.rng.gen_inclusive((2 * link_latency).max(1));
        }
        let duplicate = (cfg.dup_prob > 0.0 && self.rng.gen_f64() < cfg.dup_prob)
            .then(|| 1 + self.rng.gen_inclusive(cfg.delay_max.max(1)));
        if extra > 0 {
            self.delayed.inc();
        }
        if duplicate.is_some() {
            self.duplicated.inc();
        }
        FaultAction::Deliver {
            extra_delay: extra,
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        assert_eq!(f, FaultConfig::none());
    }

    #[test]
    fn any_knob_enables() {
        assert!(FaultConfig::drops(0.01).enabled());
        let mut f = FaultConfig::none();
        f.dup_prob = 0.5;
        assert!(f.enabled());
        let mut f = FaultConfig::none();
        f.flap = Some(FlapConfig {
            period: 100,
            down: 10,
        });
        assert!(f.enabled());
        let mut f = FaultConfig::none();
        f.cq_capacity = Some(4);
        assert!(f.enabled());
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let cfg = FaultConfig {
            drop_prob: 0.3,
            dup_prob: 0.3,
            delay_prob: 0.3,
            reorder_prob: 0.2,
            ..FaultConfig::none()
        };
        let run = || {
            let mut st = FaultState::new(&cfg, &Registry::default());
            (0..200)
                .map(|i| st.decide(&cfg, None, i as Ns * 10, 1_200))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed must give the same fault trace");
        let other = {
            let cfg2 = FaultConfig {
                seed: 99,
                ..cfg.clone()
            };
            let mut st = FaultState::new(&cfg2, &Registry::default());
            (0..200)
                .map(|i| st.decide(&cfg2, None, i as Ns * 10, 1_200))
                .collect::<Vec<_>>()
        };
        assert_ne!(run(), other, "different seeds must diverge");
    }

    #[test]
    fn sure_drop_and_sure_dup() {
        let drop_all = FaultConfig::drops(1.0);
        let mut st = FaultState::new(&drop_all, &Registry::default());
        assert_eq!(
            st.decide(&drop_all, None, 0, 1_000),
            FaultAction::Drop { flapped: false }
        );
        let dup_all = FaultConfig {
            dup_prob: 1.0,
            ..FaultConfig::none()
        };
        let mut st = FaultState::new(&dup_all, &Registry::default());
        match st.decide(&dup_all, None, 0, 1_000) {
            FaultAction::Deliver {
                extra_delay: 0,
                duplicate: Some(dt),
            } => assert!(dt >= 1),
            other => panic!("expected a duplicate, got {other:?}"),
        }
    }

    #[test]
    fn flap_windows_cover_the_configured_fraction() {
        let cfg = FaultConfig {
            flap: Some(FlapConfig {
                period: 1_000,
                down: 250,
            }),
            ..FaultConfig::none()
        };
        // Sampling one full period hits the down window exactly
        // `down` times out of `period` (phase only shifts it).
        let down = (0..1_000)
            .filter(|&t| cfg.nic_flapped(0, 0, t as Ns))
            .count();
        assert_eq!(down, 250);
        // Phases differ per NIC so a 2-NIC node is never all-down
        // forever: some instant must see NIC1 up.
        assert!((0..1_000).any(|t| !cfg.nic_flapped(0, 1, t as Ns)));
    }

    #[test]
    fn port_scoping() {
        let all = FaultConfig::drops(0.5);
        assert!(all.port_in_scope(7));
        let scoped = FaultConfig {
            dgram_ports: Some(vec![0x554E]),
            ..FaultConfig::drops(0.5)
        };
        assert!(scoped.port_in_scope(0x554E));
        assert!(!scoped.port_in_scope(7));
    }
}

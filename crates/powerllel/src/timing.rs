//! Phase timers (virtual time) for the runtime breakdowns of the
//! paper's Figures 6 and 7, plus the `unr-obs` bridge that turns every
//! timed interval into a latency-histogram sample and a trace span.

use std::sync::Arc;

use unr_simnet::Ns;

/// Accumulated virtual time per solver phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Timers {
    /// Stencil / RK computation.
    pub rk_compute: Ns,
    /// Velocity halo exchanges (communication + pack/unpack waits).
    pub halo: Ns,
    /// x and y FFTs.
    pub fft: Ns,
    /// Pencil transposes (the all-to-alls).
    pub transpose: Ns,
    /// Distributed tridiagonal solve (incl. neighbor exchange).
    pub pdd: Ns,
    /// Pressure correction + divergence assembly.
    pub correct: Ns,
    /// Whole time-step wall (virtual) time.
    pub total: Ns,
}

impl Timers {
    /// Velocity-update portion (paper Fig 7 breakdown).
    pub fn velocity_update(&self) -> Ns {
        self.rk_compute + self.halo
    }

    /// PPE-solver portion (paper Fig 7 breakdown).
    pub fn ppe(&self) -> Ns {
        self.fft + self.transpose + self.pdd
    }

    /// Everything not covered by a specific phase.
    pub fn other(&self) -> Ns {
        self.total
            .saturating_sub(self.velocity_update() + self.ppe() + self.correct)
    }

    /// Accumulate another rank's / step's timers into this one.
    pub fn add(&mut self, o: &Timers) {
        self.rk_compute += o.rk_compute;
        self.halo += o.halo;
        self.fft += o.fft;
        self.transpose += o.transpose;
        self.pdd += o.pdd;
        self.correct += o.correct;
        self.total += o.total;
    }
}

/// A solver phase, for metric/span naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Stencil / RK computation.
    Rk,
    /// Velocity/pressure halo exchange.
    Halo,
    /// x / y FFT passes.
    Fft,
    /// Pencil transpose (the all-to-all).
    Transpose,
    /// Distributed tridiagonal solve.
    Pdd,
    /// Pressure correction + divergence assembly.
    Correct,
    /// One whole time step.
    Step,
}

impl Phase {
    /// Short phase name (span name; metric is `powerllel.<name>_ns`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Rk => "rk",
            Phase::Halo => "halo",
            Phase::Fft => "fft",
            Phase::Transpose => "transpose",
            Phase::Pdd => "pdd",
            Phase::Correct => "correct",
            Phase::Step => "step",
        }
    }

    const ALL: [Phase; 7] = [
        Phase::Rk,
        Phase::Halo,
        Phase::Fft,
        Phase::Transpose,
        Phase::Pdd,
        Phase::Correct,
        Phase::Step,
    ];
}

/// Pre-resolved observability handles for the solver phases: every
/// timed interval lands in a `powerllel.<phase>_ns` latency histogram
/// and (when the fabric traces) in the span log, so solver phases line
/// up with NIC transfers on one Chrome timeline.
pub struct PhaseObs {
    obs: Arc<unr_obs::Obs>,
    rank: u32,
    hists: [Arc<unr_obs::Histogram>; 7],
}

impl PhaseObs {
    /// Resolve the phase histograms in `obs` for world rank `rank`.
    pub fn new(obs: Arc<unr_obs::Obs>, rank: usize) -> PhaseObs {
        let hists = Phase::ALL.map(|ph| {
            obs.metrics
                .histogram(&format!("powerllel.{}_ns", ph.name()))
        });
        PhaseObs {
            obs,
            rank: rank as u32,
            hists,
        }
    }

    /// Record one interval `[t0, t1)` of `ph`.
    pub fn rec(&self, ph: Phase, t0: Ns, t1: Ns) {
        let dur = t1.saturating_sub(t0);
        self.hists[Phase::ALL.iter().position(|&p| p == ph).unwrap()].record(dur);
        self.obs
            .spans
            .span(ph.name(), "solver", self.rank, 0, t0, dur, Vec::new());
    }

    /// Record `[t0, t1)` and accumulate the duration into a [`Timers`]
    /// field — the usual call at the end of a timed section.
    pub fn acc(&self, ph: Phase, t0: Ns, t1: Ns, slot: &mut Ns) {
        *slot += t1.saturating_sub(t0);
        self.rec(ph, t0, t1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_are_consistent() {
        let t = Timers {
            rk_compute: 10,
            halo: 5,
            fft: 7,
            transpose: 3,
            pdd: 2,
            correct: 1,
            total: 30,
        };
        assert_eq!(t.velocity_update(), 15);
        assert_eq!(t.ppe(), 12);
        assert_eq!(t.other(), 2);
        let mut s = Timers::default();
        s.add(&t);
        s.add(&t);
        assert_eq!(s.total, 60);
        assert_eq!(s.ppe(), 24);
    }
}

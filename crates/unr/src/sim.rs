//! The simulator side of the UNR context (paper §IV): [`SimTransport`]
//! — registration, the progress pass and the polling agent on a
//! simulated rank — and `Unr::init`, the simulator's facts and transport
//! handed to [`Unr::bring_up`]. The put, get, wait and rank-level calls
//! over it are [`crate::post`]'s and [`crate::wait`]'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use unr_simnet::sync::Mutex;

use unr_simnet::{
    AtomicAddSink, CompletionQueue, Endpoint, GetOp, MemRegion, NicSel, Ns, PutOp, Sched,
};

use crate::agent::AgentState;
use crate::channel::Channel;
use crate::config::{ProgressMode, UnrConfig};
use crate::ctrl::{HwMetrics, TableSink};
use crate::epoch::{Epoch, MembershipView, PeerFailedCause};
use crate::error::UnrError;
use crate::metrics::RetryMetrics;
use crate::post::{FabricFacts, Unr, UnrCore};
use crate::retry::Route;
use crate::sim_state::{schedule_deadline, SimState};
use crate::transport::{RmaOp, SeqPost, Transport};
use crate::wait::{Until, Woke};

/// Fabric port carrying UNR control traffic (fallback data, level-0
/// companion messages, fallback GET requests, and the self-healing
/// transport's sequenced sub-messages and acks). Frame layouts live in
/// [`crate::wire`].
pub const UNR_PORT: u32 = 0x554E; // "UN"

/// The simulator under the post path — [`Transport`]'s simnet
/// implementor: the state the application rank shares with its polling
/// agent, and that agent.
pub struct SimTransport {
    pub(crate) sim: Arc<SimState>,
    pub(crate) agent: Mutex<Option<AgentState>>,
    /// The latest wait deadline whose wake-up has run: a timed wait has
    /// expired once this reaches its own.
    timer: Arc<AtomicU64>,
}

impl Transport for SimTransport {
    fn register(&self, len: usize) -> MemRegion {
        self.sim.ep.register(len, &self.sim.cq)
    }

    fn region(&self, id: u32) -> Option<&MemRegion> {
        self.sim.ep.region(id)
    }

    /// One [`unr_simnet::Endpoint::put_stripes`]: every check is made
    /// before the first stripe leaves, so a failed put sent none.
    fn put(
        &self,
        stripes: &[RmaOp<'_>],
        companion: Option<Vec<u8>>,
    ) -> Result<(), (usize, UnrError)> {
        let mut companion = companion.map(|c| (UNR_PORT, self.sim.stamp_ctrl(c)));
        let last = stripes.len().saturating_sub(1);
        let ops = stripes.iter().enumerate().map(|(i, op)| PutOp {
            src: op.local,
            src_offset: op.local_offset,
            len: op.len,
            dst: op.remote,
            dst_offset: op.remote_offset,
            nic: op.nic,
            custom_local: op.custom_local,
            custom_remote: op.custom_remote,
            local_cq: self.local_cq(op.custom_local),
            notify_remote: op.custom_remote != 0,
            companion: if i == last { companion.take() } else { None },
        });
        self.sim.ep.put_stripes(ops).map_err(|e| (0, e.into()))
    }

    fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError> {
        self.sim.ep.get(GetOp {
            dst: op.local,
            dst_offset: op.local_offset,
            len: op.len,
            src: op.remote,
            src_offset: op.remote_offset,
            nic: op.nic,
            custom_local: op.custom_local,
            custom_remote: op.custom_remote,
            local_cq: self.local_cq(op.custom_local),
            notify_remote: op.custom_remote != 0,
        })?;
        Ok(())
    }

    /// The first post in the rank's own scheduler entry, the rest as
    /// its train. Only the first can fail — on its route, which every
    /// stripe of a message shares but for a NIC the engine has already
    /// taken modulo the rank's NICs — and then none is sent.
    fn post_seq(&self, posts: Vec<SeqPost>) -> Result<(), (usize, UnrError)> {
        let mut rest = posts.into_iter();
        let Some(first) = rest.next() else {
            return Ok(());
        };
        let (sim, steps) = (Arc::clone(&self.sim), rest.len());
        self.sim.ep.actor().post_train(
            |st, t| match self.sim.post_seq_at(st, t, first) {
                Ok(overhead) => (Ok(()), overhead, steps),
                Err(e) => (Err((0, e.into())), 0, 0),
            },
            move |st, t| {
                let post = rest.next().expect("one step per sub-message");
                sim.post_seq_at(st, t, post)
                    .expect("a message's stripes share a route")
            },
        )
    }

    fn send_ctrl(&self, dst: usize, nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError> {
        let frame = self.sim.stamp_ctrl(frame);
        self.sim.ep.send_dgram(dst, UNR_PORT, frame, nic);
        Ok(())
    }

    fn charge(&self, ns: Ns) {
        self.sim.ep.advance(ns);
    }

    fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]) {
        if entries.is_empty() && locals.iter().all(|&(key, _)| key == 0) {
            return;
        }
        let core = &self.sim.core;
        // One scheduler entry arms the deadline wake-ups AND applies
        // the local addends.
        self.sim.ep.actor().with_sched(|st, t| {
            if let Some(retry) = &core.retry {
                retry.arm(t, entries, |d| schedule_deadline(st, retry, d));
            }
            for &(key, addend) in locals {
                if key != 0 {
                    core.table.apply(st, t, key, addend);
                    core.met.sig_adds.inc();
                }
            }
        });
    }

    fn peer_alive(&self, dst: usize) -> bool {
        !self.sim.membership_on() || self.sim.ep.fabric().rank_alive(dst)
    }

    /// A membership kill beats retry exhaustion as the cause, and then
    /// the lowest-numbered dead rank names the peer.
    /// `unr.recovery.peer_failures` counts every surfaced failure — but
    /// only once the membership layer is active, so packet-fault-only
    /// runs keep their pre-epoch metric snapshot.
    fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError {
        let sim = &self.sim;
        let (rank, cause) = match cause {
            PeerFailedCause::RetryExhausted { .. } if sim.dead_peer() => (
                sim.ep.fabric().first_dead_rank().unwrap_or(0),
                PeerFailedCause::Killed,
            ),
            _ => (rank, cause),
        };
        let epoch = if sim.membership_on() {
            sim.emet().peer_failures.inc();
            sim.observe_epoch()
        } else {
            Epoch::ZERO
        };
        UnrError::PeerFailed { rank, epoch, cause }
    }

    /// Observing the epoch also settles any advance since the last
    /// observation into `unr.epoch.bumps`.
    fn epoch(&self) -> Epoch {
        self.sim.observe_epoch()
    }

    /// A scheduler wait on the signals and the retry table while an
    /// agent (or the hardware) progresses; when the rank drives progress
    /// itself, a pass and then a park on the CQ, port and retry table. A
    /// timed wait first arms its deadline, in its own scheduler entry.
    fn park(&self, until: &Until<'_>) -> Woke {
        let sim = &self.sim;
        let retry = sim.core.retry.as_deref();
        let actor = self.sim.ep.actor();
        let deadline = until.deadline(None, |dt| {
            let (me, timer) = (actor.id(), Arc::clone(&self.timer));
            actor.with_sched(move |st, t| {
                let d = t + dt;
                st.schedule_at(d, move |st2| {
                    timer.fetch_max(d, Ordering::SeqCst);
                    st2.wake(me, d);
                });
                d
            })
        });
        let expired = || deadline.is_some_and(|d| self.timer.load(Ordering::SeqCst) >= d);
        let over = || until.met(retry) || expired() || sim.dead_peer();
        match sim.core.progress_mode {
            ProgressMode::PollingAgent { .. } | ProgressMode::Hardware => {
                actor.wait_until(
                    |_st| over(),
                    |_st, me| {
                        for s in until.sigs {
                            s.register_waiter(me);
                        }
                        if let Some(r) = retry {
                            r.add_waiter(me);
                        }
                    },
                );
            }
            ProgressMode::UserDriven => {
                sim.progress_on();
                if !over() {
                    // Until anything arrives that could progress us —
                    // a retransmit deadline and the wait's own included.
                    actor.wait_until(
                        |_st| {
                            !sim.cq.is_empty()
                                || !sim.port.is_empty()
                                || retry.is_some_and(|r| r.is_due() || r.failed())
                                || expired()
                                || sim.dead_peer()
                        },
                        |_st, me| {
                            sim.cq.add_waiter(me);
                            sim.port.add_waiter(me);
                            if let Some(r) = retry {
                                r.add_waiter(me);
                            }
                        },
                    );
                }
            }
        }
        if sim.dead_peer() {
            Woke::PeerDead
        } else if expired() {
            Woke::Expired
        } else {
            Woke::Retest
        }
    }

    fn progress_once(&self) -> usize {
        self.sim.progress_on()
    }

    fn shutdown(&self) {
        self.stop_agent();
    }

    fn now(&self) -> Ns {
        self.sim.ep.now()
    }

    fn sleep(&self, dt: Ns) {
        self.sim.ep.sleep(dt);
    }
}

impl SimTransport {
    /// Where a local completion carrying `custom` goes: the rank's CQ,
    /// unless the signal is null or a level-4 NIC applies it itself.
    fn local_cq(&self, custom: u128) -> Option<Arc<CompletionQueue>> {
        let software = custom != 0 && !self.sim.core.channel.hardware;
        software.then(|| Arc::clone(&self.sim.cq))
    }

    /// The rank's transport over `core`: its completion queue and control
    /// port, the level-4 sink on a hardware channel, and the agent its
    /// progress mode runs.
    fn new(ep: Arc<Endpoint>, core: &Arc<UnrCore>) -> SimTransport {
        let cq = ep.create_cq();
        let port = ep.open_port(UNR_PORT);
        let fabric = Arc::clone(ep.fabric());
        let (channel, reliable) = (core.channel, core.retry.is_some());
        let hwmet = channel.hardware.then(|| HwMetrics::new(&fabric.obs));
        if let Some(hw) = &hwmet {
            // A level-4 NIC applies *p += a itself, whatever the software
            // progress mode is; without the sink every notification would
            // be silently lost (hardware channels post no CQ events).
            let sink = TableSink::new(Arc::clone(&core.table), &fabric.obs, Some(hw.clone()));
            ep.set_add_sink(Arc::new(sink));
        }
        let sim = Arc::new(SimState {
            core: Arc::clone(core),
            cq,
            port,
            rmet: reliable.then(|| RetryMetrics::new(&fabric.obs)),
            hwmet,
            scratch: Mutex::new(Vec::new()),
            ep,
            emet: OnceLock::new(),
            last_epoch: AtomicU64::new(0),
        });
        let tx = SimTransport {
            sim,
            agent: Mutex::new(None),
            timer: Arc::new(AtomicU64::new(0)),
        };
        match core.progress_mode {
            ProgressMode::Hardware => {
                assert!(
                    channel.hardware,
                    "Hardware progress requires a level-4 fabric (hardware atomic add)"
                );
                // Hybrid progress (DESIGN.md §5g): the sink above owns
                // the data path; if the config also runs the reliable
                // transport or the coalescer, a ctrl-only drainer keeps
                // acks/retransmits/`MSG_AGG`/`MSG_EPOCH` flowing. Pure
                // notified-RMA traffic starts no software agent at all.
                if reliable || core.cfg.agg_eager_max > 0 {
                    tx.spawn_agent(0, true);
                }
            }
            ProgressMode::PollingAgent { interval } => tx.spawn_agent(interval, false),
            ProgressMode::UserDriven => {}
        }
        tx
    }
}

impl Drop for SimTransport {
    fn drop(&mut self) {
        // An unwinding rank leaves its agent be: the world runner is
        // about to poison the scheduler, and a callback has no thread to
        // stop. A shutdown would wait in a world that may never run it.
        if !std::thread::panicking() {
            self.shutdown();
        }
    }
}

/// What only the simnet engine has: `init` and the membership view
/// (netfab keeps no per-rank generations to report).
impl Unr {
    /// Initialize UNR on this rank: [`Unr::bring_up`] over the
    /// simulator. The channel is selected from the fabric's interface
    /// (Table II) unless forced by `cfg.channel`.
    ///
    /// # Panics
    ///
    /// On a config [`UnrConfig::validate`] rejects, with its
    /// [`UnrError::InvalidConfig`] message.
    pub fn init(ep: Arc<Endpoint>, cfg: UnrConfig) -> Arc<Unr> {
        let fabric = Arc::clone(ep.fabric());
        let fcfg = &fabric.cfg;
        let facts = FabricFacts {
            rank: ep.rank(),
            nranks: fcfg.total_ranks(),
            nics: fcfg.nics_per_node,
            sub_route: Route::Rma,
            faults: fcfg.faults.enabled(),
            // Approximate wire cost per byte for deadline scaling.
            ns_per_byte: fcfg.nic.bandwidth.transfer_time(4096) as f64 / 4096.0,
            min_rto: 0,
            min_backoff_cap: 0,
        };
        let channel = Channel::select(&ep.iface(), cfg.channel);
        let unr = Self::bring_up(cfg, channel, facts, &fabric.obs, |core| {
            SimTransport::new(ep, core)
        });
        Arc::new(unr.unwrap_or_else(|e| panic!("{e}")))
    }

    /// A consistent snapshot of rank membership: epoch, liveness and
    /// incarnation generation of every rank.
    ///
    /// Fault-free runs get the epoch-0 all-live view without touching
    /// any membership state.
    pub fn membership_view(&self) -> MembershipView {
        let sim = &self.tx.sim;
        let fabric = sim.ep.fabric();
        let n = fabric.cfg.total_ranks();
        if !sim.membership_on() {
            return MembershipView::world(n);
        }
        MembershipView {
            epoch: sim.observe_epoch(),
            live: (0..n).map(|r| fabric.rank_alive(r)).collect(),
            generation: (0..n).map(|r| fabric.rank_generation(r)).collect(),
        }
    }
}

/// Level-4 sink: the "NIC" applies `*p += a` (paper §IV-C) in
/// scheduler context, waking the signal's waiter. The fabric never
/// pushes a completion for sink-routed traffic, which
/// `unr.hw.cq_bypass` accounts one-for-one.
impl AtomicAddSink for TableSink {
    fn apply(&self, sched: &mut Sched, t: Ns, custom: u128) {
        if let Some(n) = self.decode(custom) {
            self.table.apply(sched, t, n.key, n.addend);
        }
    }
}

//! The communication backend selector and the PDD neighbor exchange.
//!
//! * [`Backend::Mpi`] — classic two-sided messaging (the paper's
//!   baseline: the original PowerLLEL).
//! * [`Backend::Unr`] — persistent UNR plans built once via the Code-3
//!   conversion interfaces; per step only notified PUTs + signal
//!   waits, with all pre-synchronization implicit in earlier traffic
//!   (paper §V-A) and computation–communication overlap enabled
//!   (halo: [`crate::halo::HaloOp`]; transpose pipelining:
//!   [`crate::transpose::TransposeOp`]).
//!
//! Both backends pack through staging buffers with identical layouts,
//! so they produce identical fields; the difference is purely the
//! synchronization structure — which is the experiment.

use std::sync::Arc;

use unr_core::{convert, RmaPlan, Signal, Unr};
use unr_minimpi::Comm;
use unr_simnet::mem::{as_bytes, vec_from_bytes};

use crate::decomp::Decomp;

const TAG_PDD_UP: i32 = 160;
const TAG_PDD_DOWN: i32 = 161;

/// Which communication layer drives the solver.
#[derive(Clone)]
pub enum Backend {
    Mpi,
    Unr(Arc<Unr>),
}

impl Backend {
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Mpi => "mpi",
            Backend::Unr(_) => "unr",
        }
    }
}

// ---------------------------------------------------------------------------
// PDD neighbor exchange
// ---------------------------------------------------------------------------

/// Persistent exchange of the PDD interface quantities with the z
/// neighbors (column communicator): each rank sends `(x0_last, w_last)`
/// per system upward and `(x0_first, v_first)` downward.
pub struct PddExchange {
    /// f64 values per direction (2 per tridiagonal system).
    count: usize,
    below: Option<usize>,
    above: Option<usize>,
    /// The payloads last received from each neighbor.
    from_below: Vec<f64>,
    from_above: Vec<f64>,
    imp: PddImpl,
}

enum PddImpl {
    Mpi {
        col: Comm,
    },
    Unr {
        unr: Arc<Unr>,
        send_mem: unr_core::UnrMem,
        recv_mem: unr_core::UnrMem,
        plan: RmaPlan,
        send_sig: Option<Signal>,
        recv_sig: Option<Signal>,
    },
}

impl PddExchange {
    /// `systems`: number of tridiagonal systems solved simultaneously.
    pub fn new(backend: &Backend, d: &Decomp, systems: usize) -> PddExchange {
        let count = 2 * systems;
        let below = (d.cz > 0).then(|| d.cz - 1);
        let above = (d.cz + 1 < d.pz).then(|| d.cz + 1);
        let imp = match backend {
            Backend::Mpi => PddImpl::Mpi { col: d.col.clone() },
            Backend::Unr(unr) => {
                let bytes = count * 8;
                // Send layout: [up_payload | down_payload];
                // Recv layout: [from_below | from_above].
                let send_mem = unr.mem_reg((2 * bytes).max(8));
                let recv_mem = unr.mem_reg((2 * bytes).max(8));
                let msgs = below.is_some() as i64 + above.is_some() as i64;
                let send_sig = (msgs > 0).then(|| unr.sig_init(msgs));
                let recv_sig = (msgs > 0).then(|| unr.sig_init(msgs));
                let mut plan = RmaPlan::new();
                if msgs > 0 {
                    let rsig = recv_sig.as_ref().expect("recv sig");
                    let ssig = send_sig.as_ref().expect("send sig");
                    // From below I receive its up-payload; from above its
                    // down-payload.
                    if let Some(b) = below {
                        let blk = unr.blk_init(&recv_mem, 0, bytes, Some(rsig));
                        convert::send_blk(&d.col, b, TAG_PDD_UP, &blk);
                    }
                    if let Some(a) = above {
                        let blk = unr.blk_init(&recv_mem, bytes, bytes, Some(rsig));
                        convert::send_blk(&d.col, a, TAG_PDD_DOWN, &blk);
                    }
                    if let Some(a) = above {
                        let tgt = convert::recv_blk(&d.col, a, TAG_PDD_UP);
                        let src = unr.blk_init(&send_mem, 0, bytes, Some(ssig));
                        plan.put(&src, &tgt);
                    }
                    if let Some(b) = below {
                        let tgt = convert::recv_blk(&d.col, b, TAG_PDD_DOWN);
                        let src = unr.blk_init(&send_mem, bytes, bytes, Some(ssig));
                        plan.put(&src, &tgt);
                    }
                }
                PddImpl::Unr {
                    unr: Arc::clone(unr),
                    send_mem,
                    recv_mem,
                    plan,
                    send_sig,
                    recv_sig,
                }
            }
        };
        PddExchange {
            count,
            below,
            above,
            from_below: vec![0.0; if below.is_some() { count } else { 0 }],
            from_above: vec![0.0; if above.is_some() { count } else { 0 }],
            imp,
        }
    }

    /// Exchange interface payloads. `up` is sent to the above neighbor,
    /// `down` to the below neighbor; returns `(from_below, from_above)`,
    /// `None` where there is no such neighbor.
    pub fn exchange(&mut self, up: &[f64], down: &[f64]) -> (Option<&[f64]>, Option<&[f64]>) {
        assert_eq!(up.len(), self.count);
        assert_eq!(down.len(), self.count);
        match &mut self.imp {
            PddImpl::Mpi { col } => {
                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                if let Some(a) = self.above {
                    sends.push(col.isend(a, TAG_PDD_UP, as_bytes(up)));
                    recvs.push((col.irecv(Some(a), TAG_PDD_DOWN), true));
                }
                if let Some(b) = self.below {
                    sends.push(col.isend(b, TAG_PDD_DOWN, as_bytes(down)));
                    recvs.push((col.irecv(Some(b), TAG_PDD_UP), false));
                }
                for (r, is_above) in recvs {
                    let m = col.wait_recv(r);
                    let v = vec_from_bytes::<f64>(&m.data);
                    if is_above {
                        self.from_above = v;
                    } else {
                        self.from_below = v;
                    }
                }
                for s in sends {
                    col.wait_send(s);
                }
            }
            PddImpl::Unr {
                unr,
                send_mem,
                recv_mem,
                plan,
                send_sig,
                recv_sig,
            } => {
                if plan.is_empty() && recv_sig.is_none() {
                    return (None, None);
                }
                send_mem.write_slice(0, up);
                send_mem.write_slice(self.count, down);
                plan.start(unr).expect("pdd puts");
                if let Some(sig) = recv_sig {
                    unr.sig_wait(sig).expect("pdd recv");
                    recv_mem.read_slice(0, &mut self.from_below);
                    recv_mem.read_slice(self.count, &mut self.from_above);
                    sig.reset().expect("pdd recv signal clean");
                }
                if let Some(sig) = send_sig {
                    unr.sig_wait(sig).expect("pdd send");
                    sig.reset().expect("pdd send signal clean");
                }
            }
        }
        (
            self.below.map(|_| &self.from_below[..]),
            self.above.map(|_| &self.from_above[..]),
        )
    }
}

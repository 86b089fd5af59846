//! # unr-core — Unified Notifiable RMA library
//!
//! A from-scratch reproduction of **UNR** (Feng, Xie, Dong, Lu — SC
//! 2024): a one-sided communication acceleration library that unifies
//! the *notifiable RMA primitives* of different HPC interconnects
//! behind one portable interface.
//!
//! ## Core concepts
//!
//! * [`Signal`] — the **MMAS** counter (§IV-B): one signal aggregates
//!   multiple messages from one or more peers *and* the sub-messages of
//!   one message striped across multiple NICs; it triggers exactly when
//!   everything has landed. The overflow-detect bit and
//!   [`Signal::reset`] catch synchronization bugs (§IV-D).
//! * [`Blk`] — the transportable data handle: exchanged once out of
//!   band, it removes all remote-offset arithmetic from the main loop.
//! * [`Channel`] / [`SupportLevel`] — the transport layer (§IV-C,
//!   Table I/II): GLEX-like level 3, Verbs-like level 2 (mode 1/2),
//!   uTofu-like level 1, the level-0 companion-message channel, the
//!   MPI fallback channel, and the proposed level-4 hardware offload
//!   (no polling thread).
//! * [`RmaPlan`] and the [`convert`] interfaces (Code 3) — persistent
//!   communication plans and drop-in replacements for
//!   `MPI_Isend/Irecv/Sendrecv/Alltoallv`.
//!
//! ## Example (paper Code 2)
//!
//! ```
//! use unr_core::{Unr, UnrConfig};
//! use unr_minimpi::run_mpi_world;
//! use unr_simnet::FabricConfig;
//!
//! let results = run_mpi_world(FabricConfig::test_default(2), |comm| {
//!     let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
//!     let mem = unr.mem_reg(4096);
//!     let sig = unr.sig_init(1); // trigger after 1 event
//!     if comm.rank() == 0 {
//!         let send_blk = unr.blk_init(&mem, 0, 11, None);
//!         mem.write_bytes(0, b"hello UNR!!");
//!         // Get the remote receiving address (Code 2 line 6).
//!         let rmt = unr_core::convert::recv_blk(comm, 1, 0);
//!         unr.put(&send_blk, &rmt).unwrap();
//!         0
//!     } else {
//!         let recv_blk = unr.blk_init(&mem, 64, 11, Some(&sig));
//!         unr_core::convert::send_blk(comm, 0, 0, &recv_blk);
//!         unr.sig_wait(&sig).unwrap(); // data has fully arrived
//!         let mut buf = [0u8; 11];
//!         mem.read_bytes(64, &mut buf);
//!         assert_eq!(&buf, b"hello UNR!!");
//!         1
//!     }
//! });
//! assert_eq!(results, vec![0, 1]);
//! ```
//!
//! ## Observability
//!
//! Every `Unr` context registers counters and histograms (message
//! counts per channel and level, striping fan-out, signal adds,
//! overflow trips) in its fabric's [`unr_obs::Obs`] registry, reached
//! via `unr.obs()` — see `OBSERVABILITY.md` at the
//! workspace root for the full metric catalogue.

#![deny(missing_docs)]

mod agent;
pub mod agg;
pub mod blk;
mod buffered;
pub mod channel;
pub mod config;
pub mod convert;
pub mod ctrl;
pub mod epoch;
pub mod error;
pub mod level;
pub mod metrics;
pub mod pack;
pub mod plan;
pub mod post;
pub mod retry;
pub mod signal;
pub mod sim;
mod sim_state;
pub mod transport;
pub mod wait;
pub mod wire;

pub use agg::{AggFlush, AggMetrics, Coalescer, FlushWhy};
pub use blk::{Blk, MemCheckpoint, UnrMem, BLK_WIRE_LEN};
pub use channel::{Channel, ChannelSelect, Mechanism};
pub use config::{ProgressMode, UnrConfig, UnrConfigBuilder};
pub use ctrl::{handle_ctrl, CtrlEvent, CtrlSink, HwMetrics, TableSink};
pub use epoch::{Epoch, MembershipView, PeerFailedCause, RecoveryPolicy};
pub use error::UnrError;
pub use level::{EncodeError, Encoding, Notif, SupportLevel};
pub use metrics::UnrStats;
pub use pack::{PackChannel, PackReceiver, PackSender};
pub use plan::{PlanOp, RmaPlan};
pub use post::{FabricFacts, Unr, UnrCore};
pub use retry::{
    DedupWindow, Registered, Reliability, Resend, RetryPolicy, RetryState, Route, SweepOutcome,
};
pub use signal::{striped_addends, Applied, SigKey, Signal, SignalError, SignalStats, SignalTable};
pub use sim::{SimTransport, UNR_PORT};
pub use transport::{Backend, CtrlFrame, RmaOp, SeqPost, Transport};
pub use wait::{Until, Woke};

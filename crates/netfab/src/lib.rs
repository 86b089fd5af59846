//! # unr-netfab — the TCP-loopback fabric backend for UNR
//!
//! Everything the UNR engine consumes from the deterministic simulator
//! (`unr-simnet`), rebuilt over real OS primitives: per-rank "NICs" are
//! loopback TCP sockets, completion processing is a fixed pool of
//! reactor threads over nonblocking sockets ([`reactor`]), and the
//! notifiable-RMA custom bits ride a length-prefixed wire protocol
//! ([`frame`]). The result is the paper's software emulation story
//! (§V): a level-3 interface (full 128-bit custom bits both ways,
//! [`Channel::netfab`](unr_core::Channel::netfab)) whose receiving side
//! applies `*p += a` in an agent thread — the [`NetAddSink`] — exactly
//! as a level-2 system emulates the proposed level-4 hardware.
//!
//! ## Layers
//!
//! * [`frame`] — framing + frame kinds (data plane and bootstrap), and
//!   the [`frame::FrameAssembler`] partial-read reassembly machine;
//! * [`reactor`] — the fixed event-loop pool: readiness polling,
//!   per-connection read/write state machines, lock-free writer
//!   queues, `unr.transport.reactor.*` metrics (thread budget flat in
//!   world size);
//! * [`fabric`] — [`NetFabric`]: the socket mesh, emulated RMA regions,
//!   the atomic-add sink, `unr.transport.*` metrics;
//! * [`launch`] — [`spawn_world`] / [`NetWorld`]: multi-process
//!   bootstrap (rank/port rendezvous) and out-of-band collectives;
//! * [`transport`] — [`NetTransport`]: `unr_core::Transport` over the
//!   mesh, i.e. the leaf operations under `unr-core`'s one post path;
//! * [`engine`] — [`NetUnr`]: that shared engine (`Unr<NetTransport>`,
//!   reached through `Deref`) plus what is still this fabric's own —
//!   bring-up, the wait loop, the progress thread — over `unr-core`'s
//!   [`RetryState`](unr_core::RetryState) table and its
//!   [`handle_ctrl`](unr_core::handle_ctrl) receive side.
//!
//! ## Quick start
//!
//! A binary that wants to run as a netfab world checks
//! [`NetWorld::from_env`] first; `Some` means "I am rank *i* of *n*,
//! bootstrap and go", `None` means "I am the launcher":
//!
//! ```no_run
//! use unr_netfab::{spawn_world, NetFaults, NetUnr, NetWorld};
//! use unr_core::{Backend, UnrConfig};
//! use std::sync::Arc;
//!
//! if let Some(world) = NetWorld::from_env() {
//!     let world = Arc::new(world.expect("bootstrap"));
//!     let cfg = UnrConfig::builder()
//!         .backend(Backend::Netfab)
//!         .build()
//!         .unwrap();
//!     let unr = NetUnr::init(world, cfg, NetFaults::default()).unwrap();
//!     // ... register memory, exchange BLKs, put/get, sig_wait ...
//!     unr.finalize();
//! } else {
//!     let res = spawn_world(4, 2, &[]).expect("launch");
//!     assert!(res.success());
//! }
//! ```
//!
//! The `unr-launch` binary packages this pattern as a CLI (see the
//! workspace README).

#![deny(missing_docs)]

#[cfg(test)]
mod differential;
pub mod engine;
pub mod fabric;
pub mod frame;
pub mod launch;
pub mod reactor;
pub mod storm;
pub mod transport;

pub use engine::{NetMem, NetUnr};
pub use fabric::{NetAddSink, NetFabric, NetRegion, TransportMetrics};
pub use launch::{
    spawn_world, spawn_world_with_recovery, Gathered, NetWorld, RespawnSpec, WorldResult,
};
pub use reactor::{process_thread_count, FrameQueue, ReactorMetrics, DEFAULT_REACTORS};
pub use storm::{run_storm, StormOpts, StormOutcome};
pub use transport::{NetFaults, NetTransport};

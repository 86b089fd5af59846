//! # unr-simnet — deterministic virtual-time interconnect simulator
//!
//! The hardware substrate for the UNR reproduction: simulated HPC NICs
//! exposing **notifiable RMA primitives** (PUT/GET whose completions
//! carry *custom bits* of per-interface width), multi-NIC nodes,
//! registered memory with rkeys, bounded completion queues, and ordered
//! control-datagram ports.
//!
//! The simulator is a conservative sequential discrete-event machine
//! (see [`sched`]): every rank is an OS thread and every library agent
//! a threadless callback, each with a virtual clock, executed strictly
//! in virtual-time order, so runs are deterministic and performance
//! results are noise-free even on a single-core host.
//!
//! ## Layering
//!
//! ```text
//! unr-powerllel     (mini CFD application)
//!     unr-core      (the UNR library: signals, BLKs, channels)
//!     unr-minimpi   (two-sided messaging, collectives, MPI-RMA)
//!         unr-simnet  <-- this crate
//! ```
//!
//! ## Quick example
//!
//! ```
//! use unr_simnet::{run_world, FabricConfig, NicSel};
//!
//! // Two ranks exchange a datagram through the simulated fabric.
//! let echoed = run_world(FabricConfig::test_default(2), |ep| {
//!     let port = ep.open_port(7);
//!     if ep.rank() == 0 {
//!         ep.send_dgram(1, 7, b"ping".to_vec(), NicSel::Auto);
//!         0
//!     } else {
//!         let d = ep.recv_dgram(&port);
//!         d.bytes.len()
//!     }
//! });
//! assert_eq!(echoed, vec![0, 4]);
//! ```

pub mod bytes;
mod endpoint;
pub mod fabric;
pub mod faults;
pub mod mem;
pub mod membership;
pub mod nic;
pub mod platform;
pub mod queues;
pub mod rng;
pub mod sched;
pub mod slots;
pub mod sync;
pub mod time;
pub mod trace;
pub mod world;

pub use bytes::Bytes;
pub use fabric::{
    AtomicAddSink, Endpoint, Fabric, FabricConfig, FabricError, GetOp, NicSel, PutOp,
};
pub use faults::{FaultConfig, FlapConfig};
pub use mem::{MemRegion, OutOfBounds, Pod, RKey};
pub use nic::{CustomBits, InterfaceKind, InterfaceSpec, NicModel};
pub use platform::Platform;
pub use queues::{Completion, CompletionKind, CompletionQueue, Dgram, Port};
pub use rng::SimRng;
pub use sched::{ActorHandle, ActorId, Sched, SimCore, Step};
pub use slots::SegSlots;
pub use sync::{Condvar, Mutex, MutexGuard};
pub use time::{to_ms, to_sec, to_us, us, Bandwidth, Ns, MS, SEC, US};
pub use trace::{TraceEvent, TraceRecorder};
pub use world::{run_on_fabric, run_world};

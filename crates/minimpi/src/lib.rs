//! # unr-minimpi — a mini message-passing layer over `unr-simnet`
//!
//! A from-scratch MPI-like library providing everything the UNR paper's
//! evaluation needs from "the vendor MPI":
//!
//! * two-sided point-to-point messaging with **eager** and **rendezvous**
//!   protocols, nonblocking requests and wildcard receives
//!   ([`comm::Comm`]);
//! * communicator management (`split`) for pencil decompositions;
//! * collectives: barrier, bcast, reduce/allreduce, gather/allgather,
//!   alltoall(v) ([`coll`]);
//! * **MPI-RMA windows** with fence, PSCW and lock/flush synchronization
//!   ([`rma::Win`]) — the baselines of the paper's Figure 4;
//! * strided-datatype pack/unpack helpers ([`datatype::StridedView`]).
//!
//! It also serves as UNR's bootstrap transport (BLK exchange) and the
//! substrate of UNR's MPI fallback channel.

pub mod coll;
pub mod comm;
pub mod datatype;
pub mod harness;
pub mod rma;
pub mod wire;

pub use coll::{
    allgather_bytes, allgather_fixed, allreduce_f64, alltoall_bytes, alltoallv_bytes, barrier,
    bcast, gather_bytes, reduce_f64, ReduceOp,
};
pub use comm::{Comm, MpiConfig, Msg, RecvReq, SendReq};
pub use datatype::StridedView;
pub use harness::{run_mpi_on_fabric, run_mpi_world, run_mpi_world_cfg};
pub use rma::Win;
pub use wire::{ANY_TAG, MPI_PORT};

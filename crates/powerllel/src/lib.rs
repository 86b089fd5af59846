//! # unr-powerllel — mini-PowerLLEL
//!
//! A compact reproduction of the communication structure of PowerLLEL
//! (Xie et al.), the CFD application the UNR paper optimizes (§V):
//! an incompressible staggered-grid finite-difference solver with
//!
//! * RK2 momentum advance with **halo exchanges** (Fig 3b/3d),
//! * an FFT-based pressure Poisson solver with **pencil transposes**
//!   (Fig 3c) and a **PDD** distributed tridiagonal solve,
//! * two interchangeable communication backends: classic two-sided
//!   mini-MPI, and sync-free **UNR** notified RMA built from the Code-3
//!   conversion interfaces.
//!
//! Both backends move identical bytes through identical staging
//! layouts, so fields agree to machine precision; only the
//! synchronization structure differs — which is precisely the paper's
//! experiment (Figures 6 and 7).

pub mod backend;
pub mod decomp;
pub mod fft;
pub mod field;
pub mod halo;
pub mod poisson;
pub mod solver;
pub mod timing;
pub mod transpose;
pub mod tridiag;

pub use backend::{Backend, PddExchange};
pub use decomp::{chunk, Decomp};
pub use fft::{fd_eigenvalue, Fft, C64};
pub use field::Field3;
pub use halo::HaloOp;
pub use poisson::PoissonSolver;
pub use solver::{Solver, SolverConfig};
pub use timing::Timers;
pub use transpose::TransposeOp;
pub use tridiag::bench_system as thomas_bench_system;

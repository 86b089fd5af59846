//! Multi-process bootstrap: `spawn_world` (parent) and
//! [`NetWorld::from_env`] (child) — plus rank respawn and the rejoin
//! rendezvous ([`spawn_world_with_recovery`]).
//!
//! The bootstrap sequence:
//!
//! 1. The parent binds a rendezvous listener at a Linux abstract
//!    socket name ([`fabric::listen`]) and spawns `nranks` copies of the
//!    *current executable* with the `UNR_NETFAB_*` environment
//!    variables set (rank, world size, NIC count, and the rendezvous
//!    name). These six variables
//!    ([`ENV_RANK`] … [`ENV_EPOCH`]) are the launcher's protocol with
//!    its children, not settings: the launcher writes them and
//!    [`NetWorld::from_env`] reads them. The netfab runtime reads no
//!    other environment variable.
//! 2. Each child binds one data listener at a name of its own, connects
//!    to the rendezvous name, and sends a `JOIN` frame carrying its rank
//!    and its listener's name. The parent waits on the rendezvous
//!    listener's readiness and accepts each `JOIN` as its child dials;
//!    at least every 5 ms it checks for a child that exited before
//!    joining, which fails the launch at once.
//! 3. Once all `JOIN`s are in, the parent broadcasts the full
//!    `rank → name` `TABLE` to every child.
//! 4. Children build the data mesh ([`NetFabric::connect`]): for each
//!    pair `(i, j)` with `i < j`, rank `i` dials rank `j`'s listener
//!    once per NIC, identifying each stream with a `HELLO` that names
//!    the rank and the NIC.
//! 5. The rendezvous connection stays open as an out-of-band collective
//!    channel: `GATHER`/`ALLDATA` rounds implement [`NetWorld::barrier`],
//!    [`NetWorld::allgather`] and BLK-handle exchange. When the
//!    children hang up, the parent reaps each one as it exits.
//!
//! Keeping collectives on the parent connection (not the data mesh)
//! means barriers still work while the data path is being storm-tested
//! or deliberately dropping frames.
//!
//! ## Recovery: respawn + rejoin
//!
//! With a [`RespawnSpec`], the parent turns a **signal-killed** child
//! (`kill -9`, the real-process analogue of the simulator's
//! `kill_rank`) into a membership-epoch bump instead of a failed run:
//!
//! 1. A child dying closes its collective connection; the parent reaps
//!    it and inspects the exit status. Exit *codes* (0 or not) mean the
//!    world is shutting down on its own terms; death *by signal* arms
//!    recovery.
//! 2. The parent finishes draining the interrupted `GATHER` round from
//!    the survivors, respawns the rank (generation + 1) with
//!    [`ENV_EPOCH`] set to the new membership epoch, and answers the
//!    survivors' round with `REJOIN` instead of `ALLDATA`.
//! 3. Survivors observe [`Gathered::Rejoin`], tear down their engine,
//!    and call [`NetWorld::rejoin`]: a fresh data listener, a fresh
//!    `JOIN` over the *existing* parent connection, a fresh `TABLE`, a
//!    fresh mesh. The respawned rank runs the ordinary bootstrap
//!    through the still-open rendezvous listener.
//! 4. Each kill + rejoin advances the membership epoch by **2** (the
//!    death and the revival are separate membership events, exactly as
//!    simnet's `kill_rank` + `revive_rank` each bump the epoch).
//!
//! Kills are recoverable only at collective boundaries where the caller
//! used the `*_or_rejoin` variants; a plain [`NetWorld::allgather`]
//! interrupted by a `REJOIN` surfaces `io::ErrorKind::Interrupted`.

use std::io;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};

use unr_core::{Blk, BLK_WIRE_LEN};

use crate::fabric::{self, NetFabric};
use crate::frame::{self, FRAME_ALLDATA, FRAME_GATHER, FRAME_JOIN, FRAME_REJOIN, FRAME_TABLE};
pub use crate::launcher::{spawn_world, spawn_world_with_recovery, RespawnSpec, WorldResult};

/// Launcher→child protocol: this process's rank.
pub const ENV_RANK: &str = "UNR_NETFAB_RANK";
/// Launcher→child protocol: world size.
pub const ENV_NRANKS: &str = "UNR_NETFAB_NRANKS";
/// Launcher→child protocol: sockets ("NICs") per peer.
pub const ENV_NICS: &str = "UNR_NETFAB_NICS";
/// Launcher→child protocol: the abstract socket name of the parent's
/// rendezvous listener.
pub const ENV_BOOTSTRAP: &str = "UNR_NETFAB_BOOTSTRAP";
/// Launcher→child protocol: incarnation generation of this process (0 for
/// the original spawn, +1 per respawn of the same rank).
pub const ENV_GENERATION: &str = "UNR_NETFAB_GENERATION";
/// Launcher→child protocol: the membership epoch this incarnation starts in
/// (0 for the original world; `2 × rejoins` after recoveries).
pub const ENV_EPOCH: &str = "UNR_NETFAB_EPOCH";

/// A child process's view of the world: the data-plane fabric plus the
/// out-of-band collective channel to the launching parent.
pub struct NetWorld {
    /// The established mesh.
    pub fabric: Arc<NetFabric>,
    parent: Mutex<UnixStream>,
    generation: u32,
    epoch: u64,
}

/// Outcome of a rejoin-aware collective round
/// ([`NetWorld::allgather_or_rejoin`] / [`NetWorld::barrier_or_rejoin`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gathered {
    /// Normal completion: one entry per rank, in rank order (empty
    /// bodies for a barrier).
    Data(Vec<Vec<u8>>),
    /// The parent interrupted the round: a rank died and is being
    /// respawned. Tear down the engine and call [`NetWorld::rejoin`].
    Rejoin,
}

impl NetWorld {
    /// Detect child mode: `Some(world)` iff the `UNR_NETFAB_*` variables
    /// are set, in which case the full bootstrap (join, table, mesh) is
    /// run before returning. Call this first in `main`; `None` means
    /// "not a netfab child" and the caller proceeds as parent/CLI.
    pub fn from_env() -> Option<io::Result<NetWorld>> {
        let rank: usize = std::env::var(ENV_RANK).ok()?.parse().ok()?;
        let nranks: usize = std::env::var(ENV_NRANKS).ok()?.parse().ok()?;
        let nics: usize = std::env::var(ENV_NICS).ok()?.parse().ok()?;
        let bootstrap = std::env::var(ENV_BOOTSTRAP).ok()?;
        let generation: u32 = std::env::var(ENV_GENERATION)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let epoch: u64 = std::env::var(ENV_EPOCH)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Some(Self::bootstrap(
            rank, nranks, nics, &bootstrap, generation, epoch,
        ))
    }

    fn bootstrap(
        rank: usize,
        nranks: usize,
        nics: usize,
        parent_name: &str,
        generation: u32,
        epoch: u64,
    ) -> io::Result<NetWorld> {
        let mut parent = fabric::dial(parent_name)?;
        let fabric = Self::mesh_rendezvous(&mut parent, rank, nranks, nics)?;
        Ok(NetWorld {
            fabric,
            parent: Mutex::new(parent),
            generation,
            epoch,
        })
    }

    /// Bind a fresh data listener, send a `JOIN` over `parent`, read the
    /// `TABLE`, and dial the mesh. Shared by the initial bootstrap and
    /// by every [`NetWorld::rejoin`].
    fn mesh_rendezvous(
        parent: &mut UnixStream,
        rank: usize,
        nranks: usize,
        nics: usize,
    ) -> io::Result<Arc<NetFabric>> {
        // Bind the data listener first so its name can ride the JOIN.
        let (listener, name) = fabric::listen()?;
        let mut join = Vec::with_capacity(8 + name.len());
        join.extend_from_slice(&(rank as u32).to_le_bytes());
        join.extend_from_slice(&(nics as u32).to_le_bytes());
        join.extend_from_slice(name.as_bytes());
        frame::write_frame(parent, FRAME_JOIN, &[&join])?;

        let table = frame::read_frame(parent)?;
        if table.kind != FRAME_TABLE {
            return Err(bad("expected TABLE from parent"));
        }
        let b = &table.body;
        let mut at = 0;
        let t_nranks = u32_field(b, &mut at)? as usize;
        let t_nics = u32_field(b, &mut at)? as usize;
        if t_nranks != nranks || t_nics != nics {
            return Err(bad("TABLE shape does not match the environment"));
        }
        let names: Vec<String> = get_parts(&b[at..], nranks)?
            .iter()
            .map(|n| String::from_utf8_lossy(n).into_owned())
            .collect();

        NetFabric::connect(rank, nranks, nics, &names, listener)
    }

    /// A world around `fabric` with no launcher behind it, for engine
    /// unit tests: collectives fail, everything else works.
    #[cfg(test)]
    pub(crate) fn without_launcher(fabric: Arc<NetFabric>) -> NetWorld {
        let (parent, _) = UnixStream::pair().expect("socketpair");
        NetWorld {
            fabric,
            parent: Mutex::new(parent),
            generation: 0,
            epoch: 0,
        }
    }

    /// This world as the incarnation of membership epoch `epoch`, for
    /// engine unit tests.
    #[cfg(test)]
    pub(crate) fn at_epoch(self, epoch: u64) -> NetWorld {
        NetWorld { epoch, ..self }
    }

    /// This process's world rank.
    pub fn rank(&self) -> usize {
        self.fabric.rank()
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.fabric.nranks()
    }

    /// Sockets ("NICs") per peer.
    pub fn nics(&self) -> usize {
        self.fabric.nics()
    }

    /// Incarnation generation of this process: 0 for the original
    /// spawn, +1 per respawn of this rank.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The membership epoch this world incarnation lives in. 0 until a
    /// rank has ever died; advances by 2 per kill + rejoin (the death
    /// and the revival each bump it, as on simnet).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All-gather `bytes` across the world via the parent, surfacing a
    /// recovery interruption as [`Gathered::Rejoin`] instead of an
    /// error. Collective: every live rank must call.
    pub fn allgather_or_rejoin(&self, bytes: &[u8]) -> io::Result<Gathered> {
        let mut s = self.parent.lock().expect("parent lock");
        frame::write_frame(&mut *s, FRAME_GATHER, &[bytes])?;
        let f = frame::read_frame(&mut *s)?;
        match f.kind {
            FRAME_ALLDATA => Ok(Gathered::Data(get_parts(&f.body, self.nranks())?)),
            FRAME_REJOIN => Ok(Gathered::Rejoin),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected ALLDATA or REJOIN from parent",
            )),
        }
    }

    /// All-gather `bytes` across the world via the parent: returns one
    /// entry per rank, in rank order. Collective: every rank must call.
    /// A recovery interruption surfaces as `ErrorKind::Interrupted`;
    /// rejoin-aware callers use [`NetWorld::allgather_or_rejoin`].
    pub fn allgather(&self, bytes: &[u8]) -> io::Result<Vec<Vec<u8>>> {
        match self.allgather_or_rejoin(bytes)? {
            Gathered::Data(d) => Ok(d),
            Gathered::Rejoin => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "world is rejoining — use allgather_or_rejoin",
            )),
        }
    }

    /// Barrier: an empty all-gather round.
    pub fn barrier(&self) -> io::Result<()> {
        self.allgather(&[]).map(|_| ())
    }

    /// Rejoin-aware barrier: an empty [`NetWorld::allgather_or_rejoin`]
    /// round with the per-rank bodies dropped.
    pub fn barrier_or_rejoin(&self) -> io::Result<Gathered> {
        self.allgather_or_rejoin(&[]).map(|g| match g {
            Gathered::Data(_) => Gathered::Data(Vec::new()),
            Gathered::Rejoin => Gathered::Rejoin,
        })
    }

    /// Exchange BLK handles: every rank contributes one [`Blk`], gets
    /// back all of them in rank order (the out-of-band handle exchange
    /// of the paper's Code 2, over the bootstrap channel).
    pub fn exchange_blks(&self, blk: &Blk) -> io::Result<Vec<Blk>> {
        let all = self.allgather(&blk.to_bytes())?;
        all.iter()
            .map(|b| {
                Blk::from_bytes(b).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("BLK frame of {} bytes (want {BLK_WIRE_LEN})", b.len()),
                    )
                })
            })
            .collect()
    }

    /// Re-run the JOIN→TABLE rendezvous into the next membership epoch
    /// after a [`Gathered::Rejoin`]: a fresh data listener, a fresh
    /// `JOIN` over the existing parent connection, a fresh mesh.
    ///
    /// The previous engine **must be finalized first** (its fabric shut
    /// down) — the old mesh contains sockets to the dead incarnation.
    /// The returned world is this rank's view of the post-recovery
    /// membership: same rank, same generation, epoch advanced by 2.
    pub fn rejoin(&self) -> io::Result<NetWorld> {
        let (rank, nranks, nics) = (self.rank(), self.nranks(), self.nics());
        let mut parent = self.parent.lock().expect("parent lock");
        let fabric = Self::mesh_rendezvous(&mut parent, rank, nranks, nics)?;
        let parent2 = parent.try_clone()?;
        Ok(NetWorld {
            fabric,
            parent: Mutex::new(parent2),
            generation: self.generation,
            epoch: self.epoch + 2,
        })
    }
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The `u32` at `*at` in `b`, advancing `at` past it.
pub(crate) fn u32_field(b: &[u8], at: &mut usize) -> io::Result<u32> {
    let f = b
        .get(*at..*at + 4)
        .ok_or_else(|| bad("short bootstrap frame"))?;
    *at += 4;
    Ok(u32::from_le_bytes(f.try_into().expect("4 bytes")))
}

/// `parts` as `(len u32, bytes)` runs: an `ALLDATA` body, a `TABLE`'s
/// names.
pub(crate) fn put_parts<P: AsRef<[u8]>>(out: &mut Vec<u8>, parts: &[P]) {
    for p in parts.iter().map(AsRef::as_ref) {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(p);
    }
}

/// The first `n` `(len u32, bytes)` runs of `b`.
pub(crate) fn get_parts(b: &[u8], n: usize) -> io::Result<Vec<Vec<u8>>> {
    let mut at = 0;
    (0..n)
        .map(|_| {
            let len = u32_field(b, &mut at)? as usize;
            let part = b
                .get(at..at + len)
                .ok_or_else(|| bad("short bootstrap frame"))?;
            at += len;
            Ok(part.to_vec())
        })
        .collect()
}

//! Multi-process bootstrap: `spawn_world` (parent) and
//! [`NetWorld::from_env`] (child) — plus rank respawn and the rejoin
//! rendezvous ([`spawn_world_with_recovery`]).
//!
//! The bootstrap sequence:
//!
//! 1. The parent binds a rendezvous `TcpListener` on `127.0.0.1:0` and
//!    spawns `nranks` copies of the *current executable* with the
//!    `UNR_NETFAB_*` environment variables set (rank, world size, NIC
//!    count, and the rendezvous address).
//! 2. Each child binds `nics` data listeners on `127.0.0.1:0`, connects
//!    to the rendezvous address, and sends a `JOIN` frame carrying its
//!    rank and listener ports.
//! 3. Once all `JOIN`s are in, the parent broadcasts the full
//!    `rank × NIC → port` `TABLE` to every child.
//! 4. Children build the data mesh ([`NetFabric::connect`]): for each
//!    pair `(i, j)` with `i < j`, rank `i` dials rank `j`, identifying
//!    the stream with a `HELLO`.
//! 5. The rendezvous connection stays open as an out-of-band collective
//!    channel: `GATHER`/`ALLDATA` rounds implement [`NetWorld::barrier`],
//!    [`NetWorld::allgather`] and BLK-handle exchange.
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
//!    and call [`NetWorld::rejoin`]: fresh data listeners, a fresh
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

use std::io::{self, BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unr_core::{Blk, BLK_WIRE_LEN};

use crate::fabric::NetFabric;
use crate::frame::{
    self, FRAME_ALLDATA, FRAME_GATHER, FRAME_JOIN, FRAME_REJOIN, FRAME_TABLE,
};

/// Child-side env var: this process's rank.
pub const ENV_RANK: &str = "UNR_NETFAB_RANK";
/// Child-side env var: world size.
pub const ENV_NRANKS: &str = "UNR_NETFAB_NRANKS";
/// Child-side env var: sockets ("NICs") per peer.
pub const ENV_NICS: &str = "UNR_NETFAB_NICS";
/// Child-side env var: `host:port` of the parent's rendezvous listener.
pub const ENV_BOOTSTRAP: &str = "UNR_NETFAB_BOOTSTRAP";
/// Child-side env var: incarnation generation of this process (0 for
/// the original spawn, +1 per respawn of the same rank).
pub const ENV_GENERATION: &str = "UNR_NETFAB_GENERATION";
/// Child-side env var: the membership epoch this incarnation starts in
/// (0 for the original world; `2 × rejoins` after recoveries).
pub const ENV_EPOCH: &str = "UNR_NETFAB_EPOCH";

/// A child process's view of the world: the data-plane fabric plus the
/// out-of-band collective channel to the launching parent.
pub struct NetWorld {
    /// The established TCP mesh.
    pub fabric: Arc<NetFabric>,
    parent: Mutex<TcpStream>,
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
        Some(Self::bootstrap(rank, nranks, nics, &bootstrap, generation, epoch))
    }

    fn bootstrap(
        rank: usize,
        nranks: usize,
        nics: usize,
        parent_addr: &str,
        generation: u32,
        epoch: u64,
    ) -> io::Result<NetWorld> {
        let mut parent = TcpStream::connect(parent_addr)?;
        parent.set_nodelay(true)?;
        let fabric = Self::mesh_rendezvous(&mut parent, rank, nranks, nics)?;
        Ok(NetWorld {
            fabric,
            parent: Mutex::new(parent),
            generation,
            epoch,
        })
    }

    /// Bind fresh data listeners, send a `JOIN` over `parent`, read the
    /// `TABLE`, and dial the mesh. Shared by the initial bootstrap and
    /// by every [`NetWorld::rejoin`].
    fn mesh_rendezvous(
        parent: &mut TcpStream,
        rank: usize,
        nranks: usize,
        nics: usize,
    ) -> io::Result<Arc<NetFabric>> {
        // Bind the data listeners first so their ports can ride the JOIN.
        let mut listeners = Vec::with_capacity(nics);
        let mut ports = Vec::with_capacity(nics);
        for _ in 0..nics {
            let l = TcpListener::bind("127.0.0.1:0")?;
            ports.push(l.local_addr()?.port());
            listeners.push(l);
        }

        let mut join = Vec::with_capacity(8 + nics * 2);
        join.extend_from_slice(&(rank as u32).to_le_bytes());
        join.extend_from_slice(&(nics as u32).to_le_bytes());
        for p in &ports {
            join.extend_from_slice(&p.to_le_bytes());
        }
        frame::write_frame(parent, FRAME_JOIN, &[&join])?;

        let table = frame::read_frame(parent)?;
        if table.kind != FRAME_TABLE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected TABLE from parent",
            ));
        }
        let b = &table.body;
        let t_nranks = u32::from_le_bytes(b[0..4].try_into().expect("table nranks")) as usize;
        let t_nics = u32::from_le_bytes(b[4..8].try_into().expect("table nics")) as usize;
        if t_nranks != nranks || t_nics != nics {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "TABLE shape does not match the environment",
            ));
        }
        let mut all_ports = vec![vec![0u16; nics]; nranks];
        let mut at = 8;
        for row in all_ports.iter_mut() {
            for p in row.iter_mut() {
                *p = u16::from_le_bytes(b[at..at + 2].try_into().expect("table port"));
                at += 2;
            }
        }

        NetFabric::connect(rank, nranks, nics, &all_ports, listeners)
    }

    /// A world around `fabric` with no launcher behind it, for engine
    /// unit tests: collectives fail, everything else works.
    #[cfg(test)]
    pub(crate) fn without_launcher(fabric: Arc<NetFabric>) -> NetWorld {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let parent = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        NetWorld {
            fabric,
            parent: Mutex::new(parent),
            generation: 0,
            epoch: 0,
        }
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
            FRAME_ALLDATA => {
                let b = &f.body;
                let mut out = Vec::with_capacity(self.nranks());
                let mut at = 0;
                for _ in 0..self.nranks() {
                    let len =
                        u32::from_le_bytes(b[at..at + 4].try_into().expect("alldata len")) as usize;
                    at += 4;
                    out.push(b[at..at + len].to_vec());
                    at += len;
                }
                Ok(Gathered::Data(out))
            }
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
    /// after a [`Gathered::Rejoin`]: fresh data listeners, a fresh
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

/// Parent-side env var: milliseconds to wait for every child's `JOIN`
/// before declaring the rendezvous wedged (default 120000).
pub const ENV_JOIN_TIMEOUT_MS: &str = "UNR_NETFAB_JOIN_TIMEOUT_MS";
/// Parent-side env var: milliseconds to wait for children to exit after
/// the collective channel closes (default 60000); survivors are killed.
pub const ENV_EXIT_TIMEOUT_MS: &str = "UNR_NETFAB_EXIT_TIMEOUT_MS";

fn env_ms(key: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms),
    )
}

/// Kill-on-drop guard over the spawned ranks: if `spawn_world` unwinds
/// or errors anywhere past spawning — a wedged rendezvous, a corrupt
/// JOIN, a panic — dropping this guard kills and reaps every child
/// still running, so a failed storm can never strand 64 orphan
/// processes behind a hung CI job.
struct KillOnDrop {
    children: Vec<Option<Child>>,
    /// Exit codes of ranks reaped early (collective-connection EOF),
    /// so `wait_all` can still report them. `-1`: killed by signal.
    reaped: Vec<Option<i32>>,
}

impl KillOnDrop {
    fn new(children: Vec<Child>) -> KillOnDrop {
        let n = children.len();
        KillOnDrop {
            children: children.into_iter().map(Some).collect(),
            reaped: vec![None; n],
        }
    }

    /// Has any child already exited? Returns the first `(rank, code)`.
    /// Used while waiting on the rendezvous: a child that dies before
    /// joining means the launch can only hang, so fail fast.
    fn poll_dead(&mut self) -> Option<(usize, i32)> {
        for (rank, slot) in self.children.iter_mut().enumerate() {
            if let Some(child) = slot {
                if let Ok(Some(st)) = child.try_wait() {
                    let code = st.code().unwrap_or(-1);
                    *slot = None;
                    return Some((rank, code));
                }
            }
        }
        None
    }

    /// Blocking-reap one rank after its collective connection closed.
    /// `code() == None` on the returned status means death by signal —
    /// the trigger for recovery.
    fn reap(&mut self, rank: usize) -> io::Result<ExitStatus> {
        match self.children[rank].take() {
            Some(mut child) => {
                let st = child.wait()?;
                self.reaped[rank] = Some(st.code().unwrap_or(-1));
                Ok(st)
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rank {rank} already reaped"),
            )),
        }
    }

    /// Install a respawned incarnation of `rank` (its predecessor's
    /// reaped status no longer represents the rank).
    fn replace(&mut self, rank: usize, child: Child) {
        self.children[rank] = Some(child);
        self.reaped[rank] = None;
    }

    /// Reap every child, waiting up to `timeout` for natural exits and
    /// killing whatever remains. Returns exit codes in rank order
    /// (`-1`: killed by signal or by this deadline).
    fn wait_all(&mut self, timeout: Duration) -> Vec<i32> {
        let deadline = Instant::now() + timeout;
        let mut statuses: Vec<i32> = self.reaped.iter().map(|r| r.unwrap_or(-1)).collect();
        loop {
            let mut alive = false;
            for (rank, slot) in self.children.iter_mut().enumerate() {
                if let Some(child) = slot {
                    match child.try_wait() {
                        Ok(Some(st)) => {
                            statuses[rank] = st.code().unwrap_or(-1);
                            *slot = None;
                        }
                        Ok(None) => alive = true,
                        Err(_) => {
                            *slot = None;
                        }
                    }
                }
            }
            if !alive {
                return statuses;
            }
            if Instant::now() >= deadline {
                for slot in self.children.iter_mut() {
                    if let Some(mut child) = slot.take() {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
                return statuses;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        for slot in self.children.iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Result of a [`spawn_world`] run.
pub struct WorldResult {
    /// Captured stdout of each rank, in rank order (every incarnation's
    /// output concatenated when a rank was respawned).
    pub outputs: Vec<String>,
    /// Exit codes of each rank's **final** incarnation (`-1`: killed by
    /// signal).
    pub statuses: Vec<i32>,
}

impl WorldResult {
    /// Whether every rank exited 0.
    pub fn success(&self) -> bool {
        self.statuses.iter().all(|&s| s == 0)
    }
}

/// Recovery contract for [`spawn_world_with_recovery`]: treat a
/// signal-killed child as a recoverable membership event.
#[derive(Debug, Clone, Copy)]
pub struct RespawnSpec {
    /// Total respawns allowed across the run before the launch gives up
    /// (must be ≥ 1).
    pub max_attempts: u32,
}

/// The env-var triple identifying one child incarnation (what the
/// child reads back in `NetWorld::from_env`).
#[derive(Clone, Copy)]
struct Incarnation {
    rank: usize,
    generation: u32,
    epoch: u64,
}

fn spawn_rank(
    exe: &Path,
    args: &[String],
    inc: Incarnation,
    nranks: usize,
    nics: usize,
    addr: &str,
) -> io::Result<Child> {
    Command::new(exe)
        .args(args)
        .env(ENV_RANK, inc.rank.to_string())
        .env(ENV_NRANKS, nranks.to_string())
        .env(ENV_NICS, nics.to_string())
        .env(ENV_BOOTSTRAP, addr)
        .env(ENV_GENERATION, inc.generation.to_string())
        .env(ENV_EPOCH, inc.epoch.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
}

/// Echo a child's stdout live (prefixed `[rank N]`) and capture it.
fn pump_stdout(rank: usize, child: &mut Child) -> JoinHandle<String> {
    let out = child.stdout.take().expect("child stdout is piped");
    std::thread::spawn(move || {
        let mut captured = String::new();
        for line in BufReader::new(out).lines() {
            let Ok(line) = line else { break };
            println!("[rank {rank}] {line}");
            captured.push_str(&line);
            captured.push('\n');
        }
        captured
    })
}

fn parse_join(f: &frame::Frame, nranks: usize, nics: usize) -> io::Result<(usize, Vec<u16>)> {
    if f.kind != FRAME_JOIN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected JOIN from child",
        ));
    }
    let b = &f.body;
    let rank = u32::from_le_bytes(b[0..4].try_into().expect("join rank")) as usize;
    let j_nics = u32::from_le_bytes(b[4..8].try_into().expect("join nics")) as usize;
    if rank >= nranks || j_nics != nics {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad JOIN from rank {rank}"),
        ));
    }
    let mut ports = vec![0u16; nics];
    for (nic, p) in ports.iter_mut().enumerate() {
        *p = u16::from_le_bytes(b[8 + nic * 2..10 + nic * 2].try_into().expect("join port"));
    }
    Ok((rank, ports))
}

/// Accept one `JOIN` on the rendezvous listener (nonblocking, bounded
/// by `deadline`), failing fast if any child dies before joining.
fn accept_join(
    listener: &TcpListener,
    guard: &mut KillOnDrop,
    deadline: Instant,
    nranks: usize,
    nics: usize,
) -> io::Result<(TcpStream, usize, Vec<u16>)> {
    let mut s = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some((rank, code)) = guard.poll_dead() {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("rank {rank} exited {code} before joining the rendezvous"),
                    ));
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "rendezvous timed out waiting for JOINs (children killed)",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    // Accepted sockets must not inherit the listener's nonblocking
    // mode; the JOIN read is bounded instead of blocking forever.
    s.set_nonblocking(false)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(
        deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(10)),
    ))?;
    let f = frame::read_frame(&mut s)?;
    s.set_read_timeout(None)?;
    let (rank, ports) = parse_join(&f, nranks, nics)?;
    Ok((s, rank, ports))
}

fn broadcast_table(conns: &mut [TcpStream], table: &[Vec<u16>], nics: usize) -> io::Result<()> {
    let nranks = table.len();
    let mut tbl = Vec::with_capacity(8 + nranks * nics * 2);
    tbl.extend_from_slice(&(nranks as u32).to_le_bytes());
    tbl.extend_from_slice(&(nics as u32).to_le_bytes());
    for row in table {
        for p in row {
            tbl.extend_from_slice(&p.to_le_bytes());
        }
    }
    for c in conns.iter_mut() {
        frame::write_frame(c, FRAME_TABLE, &[&tbl])?;
    }
    Ok(())
}

/// Parent side: spawn `nranks` copies of the current executable as
/// netfab children (passing `args` through verbatim), serve the
/// rendezvous + collective rounds until every child closes its
/// bootstrap connection, and collect outputs and exit codes.
///
/// Children echo their stdout live, prefixed `[rank N]`, and the raw
/// text is also returned for parsing (`BENCH`/`STORM` result lines).
///
/// The spawned world is held by a kill-on-drop guard: any error or
/// panic after spawning — including a rendezvous that never completes
/// (deadline: [`ENV_JOIN_TIMEOUT_MS`]) or children that outlive the
/// collective channel ([`ENV_EXIT_TIMEOUT_MS`]) — kills and reaps every
/// remaining child before `spawn_world` returns.
///
/// Equivalent to [`spawn_world_with_recovery`] with recovery `None`:
/// any child hanging up ends the collective service.
pub fn spawn_world(nranks: usize, nics: usize, args: &[String]) -> io::Result<WorldResult> {
    spawn_world_with_recovery(nranks, nics, args, None)
}

/// [`spawn_world`] with rank recovery: when `recovery` is set and a
/// child dies **by signal** mid-run, the parent respawns the rank
/// (generation + 1, membership epoch `2 × rejoins`), interrupts the
/// survivors' collective round with `REJOIN`, and re-runs the
/// JOIN→TABLE rendezvous with all `nranks` ranks before resuming
/// collective service. Children exiting with a code (success or
/// failure) still end the run normally.
pub fn spawn_world_with_recovery(
    nranks: usize,
    nics: usize,
    args: &[String],
    recovery: Option<RespawnSpec>,
) -> io::Result<WorldResult> {
    assert!(nranks >= 1 && nics >= 1, "need at least one rank and NIC");
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let exe = std::env::current_exe()?;

    let mut children = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let inc = Incarnation {
            rank,
            generation: 0,
            epoch: 0,
        };
        children.push(spawn_rank(&exe, args, inc, nranks, nics, &addr)?);
    }

    // Echo each child's stdout live and capture it for the caller. Each
    // rank owns a *list* of pump handles: respawns append a new one.
    let mut pumps: Vec<Vec<JoinHandle<String>>> = Vec::with_capacity(nranks);
    for (rank, child) in children.iter_mut().enumerate() {
        pumps.push(vec![pump_stdout(rank, child)]);
    }

    // From here on every error path reaps the world: the guard kills
    // whatever is still running when it drops.
    let mut guard = KillOnDrop::new(children);

    // Rendezvous: accept one JOIN per rank, under a deadline, failing
    // fast if any child dies before joining (its JOIN will never come,
    // so blocking forever would wedge CI).
    let join_timeout = env_ms(ENV_JOIN_TIMEOUT_MS, 120_000);
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Option<TcpStream>> = (0..nranks).map(|_| None).collect();
    let mut table = vec![vec![0u16; nics]; nranks];
    let join_deadline = Instant::now() + join_timeout;
    for _ in 0..nranks {
        let (s, rank, ports) = accept_join(&listener, &mut guard, join_deadline, nranks, nics)?;
        if conns[rank].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate JOIN from rank {rank}"),
            ));
        }
        table[rank] = ports;
        conns[rank] = Some(s);
    }
    let mut conns: Vec<TcpStream> = conns.into_iter().map(|c| c.expect("all joined")).collect();
    broadcast_table(&mut conns, &table, nics)?;

    // Collective service: lockstep GATHER -> ALLDATA rounds until the
    // children hang up (their natural exit closes the stream) — or,
    // under a RespawnSpec, until a *signal-killed* rank has been
    // respawned and rejoined too many times.
    let mut gens = vec![0u32; nranks];
    let mut rejoins: u32 = 0;
    'rounds: loop {
        let mut parts: Vec<Vec<u8>> = Vec::with_capacity(nranks);
        for r in 0..nranks {
            match frame::read_frame(&mut conns[r]) {
                Ok(f) if f.kind == FRAME_GATHER => parts.push(f.body),
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "expected GATHER from child",
                    ))
                }
                Err(_) => {
                    // EOF on rank r's collective connection. Without a
                    // recovery spec this always means the world is
                    // shutting down; with one, ask the exit status.
                    let Some(spec) = recovery else { break 'rounds };
                    let status = guard.reap(r)?;
                    if status.code().is_some() {
                        break 'rounds; // exited on its own terms
                    }
                    rejoins += 1;
                    if rejoins > spec.max_attempts {
                        return Err(io::Error::other(format!(
                            "rank {r} killed by signal; respawn budget ({}) exhausted",
                            spec.max_attempts
                        )));
                    }
                    let epoch = 2 * rejoins as u64;
                    gens[r] += 1;
                    eprintln!(
                        "rank {r} killed by signal; respawning generation {} into epoch {epoch}",
                        gens[r]
                    );
                    // The survivors of this round are (or will shortly
                    // be) parked in the same collective; drain their
                    // GATHERs so the abandoned round leaves no bytes
                    // behind on any connection.
                    for c in conns.iter_mut().skip(r + 1) {
                        let f = frame::read_frame(c)?;
                        if f.kind != FRAME_GATHER {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "expected GATHER from child",
                            ));
                        }
                    }
                    let inc = Incarnation {
                        rank: r,
                        generation: gens[r],
                        epoch,
                    };
                    let mut child = spawn_rank(&exe, args, inc, nranks, nics, &addr)?;
                    pumps[r].push(pump_stdout(r, &mut child));
                    guard.replace(r, child);
                    // Answer the survivors' round with REJOIN: they tear
                    // down their engines and re-run the rendezvous over
                    // these same connections.
                    let ej = epoch.to_le_bytes();
                    for (s, c) in conns.iter_mut().enumerate() {
                        if s != r {
                            frame::write_frame(c, FRAME_REJOIN, &[&ej])?;
                        }
                    }
                    // Fresh JOINs: the respawned rank dials the still-
                    // open rendezvous listener; survivors re-JOIN over
                    // their existing connections.
                    let deadline = Instant::now() + join_timeout;
                    let (s_new, jr, ports) =
                        accept_join(&listener, &mut guard, deadline, nranks, nics)?;
                    if jr != r {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("respawned rank {r} joined as rank {jr}"),
                        ));
                    }
                    table[r] = ports;
                    conns[r] = s_new;
                    for (s, c) in conns.iter_mut().enumerate() {
                        if s == r {
                            continue;
                        }
                        let (jr, ports) = parse_join(&frame::read_frame(c)?, nranks, nics)?;
                        if jr != s {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("survivor rank {s} re-joined as rank {jr}"),
                            ));
                        }
                        table[s] = ports;
                    }
                    broadcast_table(&mut conns, &table, nics)?;
                    continue 'rounds;
                }
            }
        }
        let mut all = Vec::new();
        for p in &parts {
            all.extend_from_slice(&(p.len() as u32).to_le_bytes());
            all.extend_from_slice(p);
        }
        for c in conns.iter_mut() {
            frame::write_frame(c, FRAME_ALLDATA, &[&all])?;
        }
    }
    drop(conns);

    // Bounded reap: children should exit as soon as their collective
    // channel closes; one that wedges (a rank stuck mid-`sig_wait`
    // after a sibling died) is killed at the deadline instead of
    // hanging the launcher forever.
    let statuses = guard.wait_all(env_ms(ENV_EXIT_TIMEOUT_MS, 60_000));
    let mut outputs = Vec::with_capacity(nranks);
    for rank_pumps in pumps {
        let mut combined = String::new();
        for p in rank_pumps {
            combined.push_str(&p.join().expect("stdout pump"));
        }
        outputs.push(combined);
    }
    Ok(WorldResult { outputs, statuses })
}

//! The launcher half of the bootstrap ([`crate::launch`]): spawning the
//! ranks, the `JOIN`/`TABLE` rendezvous, the collective rounds it
//! relays, and rank respawn.

use std::io::{self, BufRead, BufReader};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fabric;
use crate::frame::{self, FRAME_ALLDATA, FRAME_GATHER, FRAME_JOIN, FRAME_REJOIN, FRAME_TABLE};
use crate::launch::{
    bad, put_parts, u32_field, ENV_BOOTSTRAP, ENV_EPOCH, ENV_GENERATION, ENV_NICS, ENV_NRANKS,
    ENV_RANK,
};
use crate::poll::{self, PollSlot, POLL_IN};

/// How long the parent waits for every child's `JOIN` before declaring
/// the rendezvous wedged.
const JOIN_TIMEOUT: Duration = Duration::from_secs(120);
/// How long the parent waits for children to exit after the collective
/// channel closes; survivors are killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest the rendezvous waits on the listener before checking for a
/// child that died before joining (whose `JOIN` will never come).
const DEAD_CHECK_MS: i32 = 5;
/// First and longest pause between two reap sweeps: a child that exits
/// is noticed within about `REAP_PAUSE_MAX`.
const REAP_PAUSE_MIN: Duration = Duration::from_micros(50);
const REAP_PAUSE_MAX: Duration = Duration::from_millis(1);

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
    /// (`-1`: killed by signal or by this deadline). The pause between
    /// sweeps doubles from `REAP_PAUSE_MIN` to `REAP_PAUSE_MAX`, so an
    /// exit is noticed within about a millisecond.
    fn wait_all(&mut self, timeout: Duration) -> Vec<i32> {
        let deadline = Instant::now() + timeout;
        let mut statuses: Vec<i32> = self.reaped.iter().map(|r| r.unwrap_or(-1)).collect();
        let mut pause = REAP_PAUSE_MIN;
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
            std::thread::sleep(pause);
            pause = (pause * 2).min(REAP_PAUSE_MAX);
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
    rendezvous: &str,
) -> io::Result<Child> {
    Command::new(exe)
        .args(args)
        .env(ENV_RANK, inc.rank.to_string())
        .env(ENV_NRANKS, nranks.to_string())
        .env(ENV_NICS, nics.to_string())
        .env(ENV_BOOTSTRAP, rendezvous)
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

/// `(rank, listener name)` of a `JOIN`.
fn parse_join(f: &frame::Frame, nranks: usize, nics: usize) -> io::Result<(usize, String)> {
    if f.kind != FRAME_JOIN {
        return Err(bad("expected JOIN from child"));
    }
    let b = &f.body;
    let mut at = 0;
    let rank = u32_field(b, &mut at)? as usize;
    let j_nics = u32_field(b, &mut at)? as usize;
    if rank >= nranks || j_nics != nics {
        return Err(bad(&format!("bad JOIN from rank {rank}")));
    }
    Ok((rank, String::from_utf8_lossy(&b[at..]).into_owned()))
}

/// Accept one `JOIN` on the rendezvous listener (nonblocking, bounded
/// by `deadline`), failing fast if any child dies before joining.
/// Between attempts it waits on the listener's readiness, for at most
/// `DEAD_CHECK_MS` before it looks for dead children again.
fn accept_join(
    listener: &UnixListener,
    guard: &mut KillOnDrop,
    deadline: Instant,
    nranks: usize,
    nics: usize,
) -> io::Result<(UnixStream, usize, String)> {
    let mut ready = [PollSlot {
        fd: listener.as_raw_fd(),
        events: POLL_IN,
        revents: 0,
    }];
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
                poll::poll_wait(&mut ready, DEAD_CHECK_MS)?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    // Accepted sockets must not inherit the listener's nonblocking
    // mode; the JOIN read is bounded instead of blocking forever.
    s.set_nonblocking(false)?;
    s.set_read_timeout(Some(
        deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(10)),
    ))?;
    let f = frame::read_frame(&mut s)?;
    s.set_read_timeout(None)?;
    let (rank, name) = parse_join(&f, nranks, nics)?;
    Ok((s, rank, name))
}

fn broadcast_table(conns: &mut [UnixStream], table: &[String], nics: usize) -> io::Result<()> {
    let mut tbl = Vec::new();
    tbl.extend_from_slice(&(table.len() as u32).to_le_bytes());
    tbl.extend_from_slice(&(nics as u32).to_le_bytes());
    put_parts(&mut tbl, table);
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
/// (deadline: 120 s) or children that outlive the collective channel
/// (by 60 s) — kills and reaps every remaining child before
/// `spawn_world` returns.
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
    let (listener, rendezvous) = fabric::listen()?;
    let exe = std::env::current_exe()?;

    let mut children = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let inc = Incarnation {
            rank,
            generation: 0,
            epoch: 0,
        };
        children.push(spawn_rank(&exe, args, inc, nranks, nics, &rendezvous)?);
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
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Option<UnixStream>> = (0..nranks).map(|_| None).collect();
    let mut table = vec![String::new(); nranks];
    let join_deadline = Instant::now() + JOIN_TIMEOUT;
    for _ in 0..nranks {
        let (s, rank, name) = accept_join(&listener, &mut guard, join_deadline, nranks, nics)?;
        if conns[rank].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate JOIN from rank {rank}"),
            ));
        }
        table[rank] = name;
        conns[rank] = Some(s);
    }
    let mut conns: Vec<UnixStream> = conns.into_iter().map(|c| c.expect("all joined")).collect();
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
                    let mut child = spawn_rank(&exe, args, inc, nranks, nics, &rendezvous)?;
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
                    let deadline = Instant::now() + JOIN_TIMEOUT;
                    let (s_new, jr, name) =
                        accept_join(&listener, &mut guard, deadline, nranks, nics)?;
                    if jr != r {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("respawned rank {r} joined as rank {jr}"),
                        ));
                    }
                    table[r] = name;
                    conns[r] = s_new;
                    for (s, c) in conns.iter_mut().enumerate() {
                        if s == r {
                            continue;
                        }
                        let (jr, name) = parse_join(&frame::read_frame(c)?, nranks, nics)?;
                        if jr != s {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("survivor rank {s} re-joined as rank {jr}"),
                            ));
                        }
                        table[s] = name;
                    }
                    broadcast_table(&mut conns, &table, nics)?;
                    continue 'rounds;
                }
            }
        }
        let mut all = Vec::new();
        put_parts(&mut all, &parts);
        for c in conns.iter_mut() {
            frame::write_frame(c, FRAME_ALLDATA, &[&all])?;
        }
    }
    drop(conns);

    // Bounded reap: children should exit as soon as their collective
    // channel closes; one that wedges (a rank stuck mid-`sig_wait`
    // after a sibling died) is killed at the deadline instead of
    // hanging the launcher forever.
    let statuses = guard.wait_all(EXIT_TIMEOUT);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A child running `sh -c script`, its stdout discarded.
    fn sh(script: &str) -> Child {
        Command::new("sh")
            .args(["-c", script])
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn sh")
    }

    /// A rendezvous listener in the mode `spawn_world` puts it in.
    fn rendezvous() -> (UnixListener, String) {
        let (listener, name) = fabric::listen().expect("listen");
        listener.set_nonblocking(true).expect("nonblocking");
        (listener, name)
    }

    /// Dial `name` and send `JOIN(rank, nics, listener)`, as a child does.
    fn join(name: &str, rank: u32, nics: u32, listener: &str) -> UnixStream {
        let mut s = fabric::dial(name).expect("dial");
        let mut body = Vec::new();
        body.extend_from_slice(&rank.to_le_bytes());
        body.extend_from_slice(&nics.to_le_bytes());
        body.extend_from_slice(listener.as_bytes());
        frame::write_frame(&mut s, FRAME_JOIN, &[&body]).expect("JOIN");
        s
    }

    fn deadline() -> Instant {
        Instant::now() + JOIN_TIMEOUT
    }

    #[test]
    fn a_child_that_exits_before_joining_fails_the_rendezvous_at_once() {
        let (listener, _) = rendezvous();
        let mut guard = KillOnDrop::new(vec![sh("sleep 30"), sh("exit 3")]);
        let t0 = Instant::now();
        let err = accept_join(&listener, &mut guard, deadline(), 2, 1)
            .expect_err("a dead child's JOIN never comes");
        let took = t0.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(
            err.to_string().contains("rank 1 exited 3"),
            "names rank and code: {err}"
        );
        // The exit itself takes a fork and an exec; the check runs every
        // DEAD_CHECK_MS. A second bounds a loaded machine, far inside
        // the 120 s deadline.
        assert!(took < Duration::from_secs(1), "noticed after {took:?}");
    }

    #[test]
    fn a_join_that_dials_while_the_launcher_waits_is_accepted() {
        let (listener, name) = rendezvous();
        let mut guard = KillOnDrop::new(vec![sh("sleep 30")]);
        // The delay only makes it likely that the dial lands while
        // `accept_join` is in its poll; a dial before it must pass too.
        let child = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            join(&name, 2, 2, "rank-two")
        });
        let (_s, rank, peer) =
            accept_join(&listener, &mut guard, deadline(), 3, 2).expect("JOIN accepted");
        assert_eq!((rank, peer.as_str()), (2, "rank-two"));
        drop(child.join().expect("dialer"));
    }

    #[test]
    fn a_join_with_the_wrong_shape_is_invalid_data() {
        let (listener, name) = rendezvous();
        let mut guard = KillOnDrop::new(Vec::new());
        // NIC count 1 against the launcher's 2, then rank 3 of 3.
        for (rank, nics) in [(0, 1), (3, 2)] {
            let _s = join(&name, rank, nics, "x");
            let err = accept_join(&listener, &mut guard, deadline(), 3, 2)
                .expect_err("a JOIN of the wrong shape is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err
                .to_string()
                .contains(&format!("bad JOIN from rank {rank}")));
        }
    }

    #[test]
    fn wait_all_reports_codes_in_rank_order_as_children_exit() {
        let mut guard = KillOnDrop::new(vec![
            sh("sleep 0.2; exit 5"),
            sh("exit 0"),
            sh("sleep 0.05; exit 2"),
        ]);
        assert_eq!(guard.wait_all(Duration::from_secs(30)), vec![5, 0, 2]);
    }

    #[test]
    fn wait_all_kills_a_child_that_outlives_the_timeout() {
        let mut guard = KillOnDrop::new(vec![sh("exit 4"), sh("sleep 30")]);
        let t0 = Instant::now();
        assert_eq!(guard.wait_all(Duration::from_millis(100)), vec![4, -1]);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(5), "killed after {took:?}");
        assert!(guard.children.iter().all(Option::is_none));
    }
}

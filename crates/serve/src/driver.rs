//! The open-loop driver: pace arrivals against the engine's clock,
//! submit, reap, and drain — then report.
//!
//! The loop is *open*: requests are issued at their scheduled arrival
//! times whether or not earlier ones completed, and latency is
//! measured from the scheduled arrival (not the issue instant), so
//! queueing delay under load is part of the number — the
//! coordinated-omission-free convention.

use unr_core::{Blk, Transport, Unr, UnrMem};
use unr_obs::{percentile_from_buckets, HIST_BUCKETS};

use crate::service::KvService;
use crate::workload::{mix64, ClientGen};
use crate::{ServeConfig, ServeError};

/// Virtual/wall time budget for the final drain before the run fails
/// with [`ServeError::DrainTimeout`] instead of hanging.
const DRAIN_BUDGET_NS: u64 = 30_000_000_000;

/// Everything one rank has to say about its run.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Arrivals generated.
    pub ops: u64,
    /// PUTs durably replicated.
    pub puts: u64,
    /// GETs completed.
    pub gets: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Remote replica legs acknowledged through the summed ack signal.
    pub replica_acks: u64,
    /// Hard-budget signal allocation refusals (must be 0).
    pub sig_alloc_fails: u64,
    /// Remote writes that landed in this rank's window (window-signal
    /// tally), for cross-rank accounting.
    pub window_writes: u64,
    /// Wall nanoseconds spent in the arrival + drain loop.
    pub wall_ns: u64,
    /// Latency histogram (log2 buckets, `unr-obs` layout).
    pub lat: [u64; HIST_BUCKETS],
    /// Signal-table fingerprint after the drain.
    pub fingerprint: u64,
}

impl RankReport {
    /// Merge per-rank reports into a cluster-wide view (wall time is
    /// the max — ranks run concurrently; everything else sums).
    pub fn merge(reports: &[RankReport]) -> RankReport {
        let mut out = RankReport {
            ops: 0,
            puts: 0,
            gets: 0,
            hits: 0,
            misses: 0,
            shed: 0,
            replica_acks: 0,
            sig_alloc_fails: 0,
            window_writes: 0,
            wall_ns: 1,
            lat: [0; HIST_BUCKETS],
            fingerprint: 0,
        };
        for r in reports {
            out.ops += r.ops;
            out.puts += r.puts;
            out.gets += r.gets;
            out.hits += r.hits;
            out.misses += r.misses;
            out.shed += r.shed;
            out.replica_acks += r.replica_acks;
            out.sig_alloc_fails += r.sig_alloc_fails;
            out.window_writes += r.window_writes;
            out.wall_ns = out.wall_ns.max(r.wall_ns);
            for (o, l) in out.lat.iter_mut().zip(r.lat.iter()) {
                *o += l;
            }
            // Order-insensitive combine, like the table's own digest.
            out.fingerprint ^= r.fingerprint;
        }
        out
    }

    /// Completed requests (everything that wasn't shed).
    pub fn completed(&self) -> u64 {
        self.puts + self.gets
    }

    /// Completed requests per wall second.
    pub fn ops_per_sec(&self) -> f64 {
        self.completed() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Latency percentile estimate from the merged buckets.
    pub fn percentile(&self, q: f64) -> f64 {
        percentile_from_buckets(&self.lat, q)
    }

    /// One machine-parsable line (used by netfab child ranks to report
    /// to the spawning parent).
    pub fn to_wire(&self) -> String {
        let lat: Vec<String> = self.lat.iter().map(|b| b.to_string()).collect();
        format!(
            "{{\"ops\":{},\"puts\":{},\"gets\":{},\"hits\":{},\"misses\":{},\"shed\":{},\
             \"replica_acks\":{},\"sig_alloc_fails\":{},\"window_writes\":{},\"wall_ns\":{},\
             \"fingerprint\":{},\"lat\":[{}]}}",
            self.ops,
            self.puts,
            self.gets,
            self.hits,
            self.misses,
            self.shed,
            self.replica_acks,
            self.sig_alloc_fails,
            self.window_writes,
            self.wall_ns,
            self.fingerprint,
            lat.join(",")
        )
    }

    /// Parse a [`RankReport::to_wire`] line.
    pub fn from_wire(line: &str) -> Option<RankReport> {
        fn field(line: &str, key: &str) -> Option<u64> {
            let pat = format!("\"{key}\":");
            let at = line.find(&pat)? + pat.len();
            let digits: String = line[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        }
        let lat_at = line.find("\"lat\":[")? + "\"lat\":[".len();
        let lat_end = line[lat_at..].find(']')? + lat_at;
        let mut lat = [0u64; HIST_BUCKETS];
        for (i, tok) in line[lat_at..lat_end].split(',').enumerate() {
            if i >= HIST_BUCKETS {
                return None;
            }
            lat[i] = tok.trim().parse().ok()?;
        }
        Some(RankReport {
            ops: field(line, "ops")?,
            puts: field(line, "puts")?,
            gets: field(line, "gets")?,
            hits: field(line, "hits")?,
            misses: field(line, "misses")?,
            shed: field(line, "shed")?,
            replica_acks: field(line, "replica_acks")?,
            sig_alloc_fails: field(line, "sig_alloc_fails")?,
            window_writes: field(line, "window_writes")?,
            wall_ns: field(line, "wall_ns")?,
            fingerprint: field(line, "fingerprint")?,
            lat,
        })
    }
}

/// Run the full open-loop workload on one rank of either fabric.
///
/// Between arrivals the rank blocks in one wait on its in-flight
/// requests' signals ([`Unr::sig_wait_any_timeout`]) whose deadline is
/// the next scheduled arrival, and reaps whatever fired; the drain
/// waits the same way under a `DRAIN_BUDGET_NS` deadline. The wait
/// drives the fabric's progress in every progress mode, so the loop
/// neither calls [`Unr::progress`] nor polls on a timer, and a request
/// completes at the instant its signal fires.
///
/// `mem` is the rank's [`ServeConfig::region_len`] region and `windows`
/// the exchanged per-rank shard-window blocks; `window_writes` is read
/// from the rank's window signal by the caller afterwards (backend
/// harnesses own that signal), so it enters the report via
/// [`RankReport::window_writes`] post-hoc — this function leaves it 0.
pub fn run_open_loop<T: Transport>(
    unr: &Unr<T>,
    mem: UnrMem,
    cfg: &ServeConfig,
    windows: Vec<Blk>,
    base_live: usize,
) -> Result<RankReport, ServeError> {
    let me = unr.rank();
    let mut svc = KvService::new(unr, mem, cfg.clone(), windows, base_live);
    let mut gen = ClientGen::new(
        cfg.seed ^ mix64(me as u64),
        cfg.clients,
        cfg.mean_think_ns,
        cfg.keys,
        cfg.zipf_s,
        cfg.read_frac,
    );

    let wall_t0 = std::time::Instant::now();
    let t0 = unr.now();
    for _ in 0..cfg.ops_per_rank {
        let arr = gen.next_arrival();
        let target = t0 + arr.at_ns;
        // Up to the arrival: wait on what is in flight, reaping what
        // fires, or, with nothing in flight, sleep.
        loop {
            let now = unr.now();
            if now >= target {
                break;
            }
            if svc.inflight() == 0 {
                unr.sleep(target - now);
            } else {
                svc.wait_reap(target - now)?;
            }
        }
        match svc.submit(arr) {
            Ok(()) => {}
            Err(ServeError::Overloaded(_)) => {} // typed shed, tallied
            Err(e) => return Err(e),
        }
        // Keep coalesced puts moving toward their replicas.
        unr.flush()?;
        svc.reap();
    }

    // Drain: bounded, so saturation can never become a hang.
    let drain_t0 = unr.now();
    while svc.inflight() > 0 {
        let left = DRAIN_BUDGET_NS.saturating_sub(unr.now() - drain_t0);
        if left == 0 {
            return Err(ServeError::DrainTimeout {
                pending: svc.inflight(),
            });
        }
        svc.wait_reap(left)?;
    }
    let wall_ns = wall_t0.elapsed().as_nanos() as u64;

    let t = &svc.tallies;
    Ok(RankReport {
        ops: cfg.ops_per_rank as u64,
        puts: t.puts,
        gets: t.gets,
        hits: t.hits,
        misses: t.misses,
        shed: t.shed,
        replica_acks: t.replica_acks,
        sig_alloc_fails: t.sig_alloc_fails,
        window_writes: 0,
        wall_ns,
        lat: t.lat,
        fingerprint: unr.table_fingerprint(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let mut r = RankReport {
            ops: 10,
            puts: 3,
            gets: 6,
            hits: 2,
            misses: 4,
            shed: 1,
            replica_acks: 5,
            sig_alloc_fails: 0,
            window_writes: 7,
            wall_ns: 123_456,
            lat: [0; HIST_BUCKETS],
            fingerprint: 0xdead_beef,
        };
        r.lat[3] = 9;
        r.lat[64] = 1;
        let parsed = RankReport::from_wire(&r.to_wire()).expect("parse");
        assert_eq!(parsed.ops, 10);
        assert_eq!(parsed.fingerprint, 0xdead_beef);
        assert_eq!(parsed.lat, r.lat);
        assert_eq!(parsed.window_writes, 7);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = RankReport {
            ops: 5,
            puts: 1,
            gets: 4,
            hits: 1,
            misses: 3,
            shed: 0,
            replica_acks: 2,
            sig_alloc_fails: 0,
            window_writes: 1,
            wall_ns: 100,
            lat: [0; HIST_BUCKETS],
            fingerprint: 0b01,
        };
        a.lat[2] = 5;
        let mut b = a.clone();
        b.wall_ns = 300;
        b.fingerprint = 0b11;
        let m = RankReport::merge(&[a, b]);
        assert_eq!(m.ops, 10);
        assert_eq!(m.completed(), 10);
        assert_eq!(m.wall_ns, 300);
        assert_eq!(m.lat[2], 10);
        assert_eq!(m.fingerprint, 0b10);
    }
}

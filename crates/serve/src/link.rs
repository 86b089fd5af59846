//! The backend seam: one trait over the two UNR engines.
//!
//! [`RmaLink`] is the narrow waist the service core is written
//! against — exactly the operations a KV rank needs (one registered
//! region, keyed puts/gets, per-request signals, the occupancy and
//! backlog probes for admission control, and a clock). [`SimLink`]
//! binds it to the in-process simulated fabric (`Backend::Simnet`,
//! virtual nanoseconds, deterministic); [`NetLink`] binds it to the
//! TCP-loopback multi-process fabric (`Backend::Netfab`, wall
//! nanoseconds, real OS scheduling).
//!
//! Completion semantics differ per backend and the service is honest
//! about it: a PUT's local ack fires at *source completion* (the
//! buffered-send point on netfab; the engine's local-completion event
//! on simnet), after which the reliable transport owns delivery. A
//! GET's local ack fires only when the response payload has landed,
//! so GET latency is a real round trip on both backends.

use std::sync::Arc;
use std::time::Instant;

use unr_core::{Blk, SigKey, Signal, Unr, UnrError, UnrMem};
use unr_netfab::{NetMem, NetUnr};
use unr_obs::Obs;

/// What the KV service needs from an RMA engine.
pub trait RmaLink {
    /// This rank.
    fn rank(&self) -> usize;
    /// World size.
    fn nranks(&self) -> usize;
    /// Write into this rank's registered region.
    fn write_local(&self, offset: usize, data: &[u8]);
    /// Read from this rank's registered region.
    fn read_local(&self, offset: usize, out: &mut [u8]);
    /// Describe a block of this rank's region carrying `sig_key`.
    fn local_blk(&self, offset: usize, len: usize, sig_key: SigKey) -> Blk;
    /// Allocate a signal expecting `num_event` events.
    fn sig_init(&self, num_event: i64) -> Signal;
    /// Notified put with explicit local/remote signal keys.
    fn put_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError>;
    /// Notified get with explicit local/remote signal keys.
    fn get_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError>;
    /// Block until `sig` fires.
    fn sig_wait(&self, sig: &Signal) -> Result<(), UnrError>;
    /// Flush any coalesced puts.
    fn flush(&self) -> Result<(), UnrError>;
    /// Drive engine progress (no-op where progress is autonomous).
    fn progress(&self);
    /// `(live, capacity)` of the signal table — the admission probe.
    fn signal_occupancy(&self) -> (usize, usize);
    /// `(bytes, puts)` buffered for `dst` — the other admission probe.
    fn agg_backlog(&self, dst: usize) -> (usize, usize);
    /// Order-insensitive digest of live signal state.
    fn table_fingerprint(&self) -> u64;
    /// Monotonic nanoseconds: virtual on simnet, wall on netfab.
    fn now_ns(&self) -> u64;
    /// Advance time by `dt` ns (virtual sleep / bounded wall wait).
    fn sleep_ns(&self, dt: u64);
    /// The observability sink `unr.serve.*` instruments register in.
    fn obs(&self) -> &Obs;
}

/// [`RmaLink`] over the deterministic in-process fabric.
pub struct SimLink {
    unr: Arc<Unr>,
    mem: UnrMem,
    nranks: usize,
}

impl SimLink {
    /// Wrap an initialized engine and register one `region_len`-byte
    /// region for the store.
    pub fn new(unr: Arc<Unr>, region_len: usize, nranks: usize) -> SimLink {
        let mem = unr.mem_reg(region_len);
        SimLink { unr, mem, nranks }
    }

    /// The wrapped engine (for harness-side assertions).
    pub fn engine(&self) -> &Arc<Unr> {
        &self.unr
    }
}

impl RmaLink for SimLink {
    fn rank(&self) -> usize {
        self.unr.rank()
    }
    fn nranks(&self) -> usize {
        self.nranks
    }
    fn write_local(&self, offset: usize, data: &[u8]) {
        self.mem.write_bytes(offset, data);
    }
    fn read_local(&self, offset: usize, out: &mut [u8]) {
        self.mem.read_bytes(offset, out);
    }
    fn local_blk(&self, offset: usize, len: usize, sig_key: SigKey) -> Blk {
        self.mem.blk(offset, len, sig_key)
    }
    fn sig_init(&self, num_event: i64) -> Signal {
        self.unr.sig_init(num_event)
    }
    fn put_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.unr.put_keyed(local, remote, local_sig, remote_sig)
    }
    fn get_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.unr.get_keyed(local, remote, local_sig, remote_sig)
    }
    fn sig_wait(&self, sig: &Signal) -> Result<(), UnrError> {
        self.unr.sig_wait(sig)
    }
    fn flush(&self) -> Result<(), UnrError> {
        self.unr.flush()
    }
    fn progress(&self) {
        self.unr.progress();
    }
    fn signal_occupancy(&self) -> (usize, usize) {
        self.unr.signal_occupancy()
    }
    fn agg_backlog(&self, dst: usize) -> (usize, usize) {
        self.unr.agg_backlog(dst)
    }
    fn table_fingerprint(&self) -> u64 {
        self.unr.table_fingerprint()
    }
    fn now_ns(&self) -> u64 {
        self.unr.ep().now()
    }
    fn sleep_ns(&self, dt: u64) {
        self.unr.ep().sleep(dt);
    }
    fn obs(&self) -> &Obs {
        &self.unr.ep().fabric().obs
    }
}

/// [`RmaLink`] over the multi-process TCP-loopback fabric.
pub struct NetLink {
    unr: NetUnr,
    mem: NetMem,
    t0: Instant,
}

impl NetLink {
    /// Wrap an initialized netfab engine and register one
    /// `region_len`-byte region for the store.
    pub fn new(unr: NetUnr, region_len: usize) -> NetLink {
        let mem = unr.mem_reg(region_len);
        NetLink {
            unr,
            mem,
            t0: Instant::now(),
        }
    }

    /// The wrapped engine (finalize, drain, assertions).
    pub fn engine(&self) -> &NetUnr {
        &self.unr
    }
}

impl RmaLink for NetLink {
    fn rank(&self) -> usize {
        self.unr.world().rank()
    }
    fn nranks(&self) -> usize {
        self.unr.world().nranks()
    }
    fn write_local(&self, offset: usize, data: &[u8]) {
        self.mem.write_bytes(offset, data);
    }
    fn read_local(&self, offset: usize, out: &mut [u8]) {
        self.mem.read_bytes(offset, out);
    }
    fn local_blk(&self, offset: usize, len: usize, sig_key: SigKey) -> Blk {
        self.mem.blk(offset, len, sig_key)
    }
    fn sig_init(&self, num_event: i64) -> Signal {
        self.unr.sig_init(num_event)
    }
    fn put_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.unr.put_keyed(local, remote, local_sig, remote_sig)
    }
    fn get_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.unr.get_keyed(local, remote, local_sig, remote_sig)
    }
    fn sig_wait(&self, sig: &Signal) -> Result<(), UnrError> {
        self.unr.sig_wait(sig)
    }
    fn flush(&self) -> Result<(), UnrError> {
        self.unr.flush()
    }
    fn progress(&self) {
        // Reactor threads progress the engine autonomously.
    }
    fn signal_occupancy(&self) -> (usize, usize) {
        self.unr.signal_occupancy()
    }
    fn agg_backlog(&self, dst: usize) -> (usize, usize) {
        self.unr.agg_backlog(dst)
    }
    fn table_fingerprint(&self) -> u64 {
        self.unr.table_fingerprint()
    }
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
    fn sleep_ns(&self, dt: u64) {
        // Open-loop pacing needs sub-OS-quantum resolution; for short
        // waits a yield loop against the wall deadline is the only way
        // to keep the arrival schedule honest.
        if dt >= 500_000 {
            std::thread::sleep(std::time::Duration::from_nanos(dt));
            return;
        }
        let deadline = self.t0.elapsed().as_nanos() as u64 + dt;
        while (self.t0.elapsed().as_nanos() as u64) < deadline {
            std::thread::yield_now();
        }
    }
    fn obs(&self) -> &Obs {
        &self.unr.fabric().obs
    }
}

//! The fabric's receive side ([`crate::fabric`]): the engine's installed
//! [`NetSink`], what a sink is lent to answer a control message with,
//! and the reader-side frame handler every reading thread runs.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use unr_simnet::MemRegion;

#[cfg(doc)]
use crate::fabric::NetFabric;
use crate::fabric::{invalid_input, Shared, TransportMetrics};
use crate::frame;
use crate::reactor::FrameDispatch;

/// The engine's receive side, installed once ([`NetFabric::install`])
/// and run by whichever thread read the frame — a reactor, or a rank
/// thread in a wait. `NetUnr` installs its control path: the emulated
/// atomic-add unit ([`unr_core::TableSink`]), the control handler
/// ([`unr_core::handle_ctrl`]) and the retry table's sweep.
pub trait NetSink: Send + Sync {
    /// Apply one delivery of custom bits (`*p += a` on the MMAS table).
    fn apply(&self, custom: u128);

    /// Handle control message `msg` from rank `src`, landing its
    /// payloads and answering `src` through `rx`.
    fn on_ctrl(&self, src: usize, msg: &[u8], rx: &mut CtrlRx<'_>);

    /// Retransmit what is due (reactor 0 calls this at the top of every
    /// pass); how long until something is next due, `None` with nothing
    /// to watch.
    fn tick(&self) -> Option<Duration>;
}

/// What the fabric lends a [`NetSink`] to handle one control message
/// with: the rank's regions, and the way back to the message's source.
pub struct CtrlRx<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) met: &'a TransportMetrics,
    pub(crate) reply: &'a mut dyn FnMut(&[u8]),
}

impl CtrlRx<'_> {
    /// Land `payload` at `(region, offset)` of this rank; `false`,
    /// counted in `unr.transport.bad_dma`, when it cannot.
    #[must_use]
    pub fn deposit(&self, region: u32, offset: u64, payload: &[u8]) -> bool {
        self.shared.deposit(self.met, region, offset, payload)
    }

    /// Send control message `msg` back to the source: on the connection
    /// the message came in on, once it has been handled.
    pub fn reply(&mut self, msg: &[u8]) {
        (self.reply)(msg);
    }
}

/// One wire frame around `len` bytes of `mem`, built in one pass:
/// length prefix, kind, `header`, then the payload copied once, straight
/// into the frame. `Err` if the range is out of bounds.
pub(crate) fn region_frame(
    mem: &MemRegion,
    kind: u8,
    header: &[u8],
    offset: usize,
    len: usize,
) -> io::Result<Vec<u8>> {
    // A GET names `len` from the wire: bound it by the region before
    // allocating for it.
    if len > mem.len() {
        return Err(invalid_input(format!(
            "{len} bytes of a {}-byte region",
            mem.len()
        )));
    }
    let mut buf = frame::frame_prefix(kind, header.len() + len)?;
    buf.extend_from_slice(header);
    mem.append_to(offset, len, &mut buf)
        .map_err(|e| invalid_input(e.to_string()))?;
    Ok(buf)
}

/// The reader-side protocol handler: applies each reassembled inbound
/// frame against the shared state, on whichever thread read it. Holds
/// no `NetFabric` reference — GET replies and acks ride back to the
/// reader as pre-encoded frames for the same connection — so reactor
/// threads never keep the fabric alive and teardown joins them without
/// self-join hazards.
pub(crate) struct FabricDispatch {
    pub(crate) shared: Arc<Shared>,
    pub(crate) met: TransportMetrics,
}

impl FabricDispatch {
    /// Deposit an inbound payload, then apply the custom bits that rode
    /// with it — or neither, when the payload cannot land.
    fn land(&self, region: u32, offset: u64, payload: &[u8], custom: u128) {
        self.met.rx_bytes.add(payload.len() as u64);
        if self.shared.deposit(&self.met, region, offset, payload) {
            self.met.atomic_adds.inc();
            self.shared.apply_custom(custom);
        }
    }

    /// The `GET_REP` frame answering `g`; `None` if the request names
    /// no region of this rank or a range outside it.
    fn get_reply(&self, g: &frame::GetReq) -> Option<Vec<u8>> {
        let off = usize::try_from(g.offset).ok()?;
        let len = usize::try_from(g.len).ok()?;
        let header = frame::get_rep_header(g.reply_region, g.reply_offset, g.custom_local);
        let src = self.shared.region(g.region)?;
        region_frame(src, frame::FRAME_GET_REP, &header, off, len).ok()
    }
}

impl FrameDispatch for FabricDispatch {
    fn on_frame(
        &self,
        peer: usize,
        nic: usize,
        kind: u8,
        body: &[u8],
        replies: &mut Vec<Vec<u8>>,
    ) -> bool {
        let shared = &self.shared;
        // Peer bytes: the fixed-offset parsers below index up to the
        // kind's header length, so a shorter body is a protocol error,
        // not a panic on the reading thread.
        if body.len() < frame::min_body_len(kind) {
            self.on_corrupt(peer, nic);
            return false;
        }
        self.met.rx_frames.inc();
        match kind {
            frame::FRAME_PUT => {
                let (region, offset, custom, payload) = frame::parse_put(body);
                self.land(region, offset, payload, custom);
            }
            frame::FRAME_GET_REQ => {
                let g = frame::parse_get_req(body);
                match self.get_reply(&g) {
                    Some(rep) => {
                        self.met.atomic_adds.inc();
                        shared.apply_custom(g.custom_remote);
                        self.met.tx_frames.inc();
                        self.met.tx_bytes.add(g.len);
                        replies.push(rep);
                    }
                    // Bad request: drop it whole, like a NIC NAK — no
                    // reply, no remote addend.
                    None => self.met.bad_dma.inc(),
                }
            }
            frame::FRAME_GET_REP => {
                let (region, offset, custom, payload) = frame::parse_get_rep(body);
                self.land(region, offset, payload, custom);
            }
            frame::FRAME_ATOMIC => {
                self.met.atomic_adds.inc();
                shared.apply_custom(frame::parse_atomic(body));
            }
            frame::FRAME_CTRL => {
                let mut ack = |reply: &[u8]| {
                    if let Ok(rep) = frame::encode_frame(frame::FRAME_CTRL, &[reply]) {
                        self.met.tx_frames.inc();
                        replies.push(rep);
                    }
                };
                shared.on_ctrl(&self.met, (peer, nic), body, &mut ack);
            }
            _ => return false, // unknown kind post-handshake
        }
        true
    }

    fn announce(&self) {
        self.shared.events.ring();
    }

    fn tick(&self) -> Option<Duration> {
        self.shared.sink.get()?.tick()
    }

    fn on_corrupt(&self, peer: usize, nic: usize) {
        self.met.frame_errors.inc();
        if self.shared.latch_down(peer, nic) {
            self.met.streams_down.inc();
        }
        self.shared.ring_bell();
    }

    fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }
}

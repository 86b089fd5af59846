//! Small-message aggregation (paper §IV-E.4).
//!
//! "When transmitting small messages, users have to pack and unpack
//! them to avoid performance decrease caused by throughput limitation."
//! This module is that pack/unpack, done once so applications don't
//! hand-roll it: a [`PackChannel`] aggregates any number of small
//! messages destined for one peer into a single staging buffer and
//! ships them as **one** notified PUT per flush — one signal event, one
//! NIC doorbell, instead of one per message. Epoch reuse is guarded by
//! a credit put from the consumer, so the channel is sync-free end to
//! end.
//!
//! Wire format inside the staging buffer:
//!
//! ```text
//! [count: u32] then per message: [len: u32][payload bytes]
//! ```

use std::sync::Arc;

use unr_minimpi::Comm;

use crate::blk::{Blk, UnrMem};
use crate::convert;
use crate::error::UnrError;
use crate::plan::RmaPlan;
use crate::post::Unr;
use crate::signal::Signal;

/// Reserved tag space for pack-channel setup.
const TAG_PACK: i32 = (1 << 21) + 9000;

/// One direction of an aggregated small-message channel to a peer.
///
/// Construct collectively on both endpoints with mirrored
/// (`sender`, `receiver`) roles via [`PackChannel::sender`] /
/// [`PackChannel::receiver`].
pub struct PackSender {
    unr: Arc<Unr>,
    staging: UnrMem,
    capacity: usize,
    cursor: usize,
    count: u32,
    target: Blk,
    send_sig: Signal,
    credit_sig: Signal,
    epoch: u64,
}

/// The receive half: waits for one aggregated buffer per epoch and
/// iterates its messages.
pub struct PackReceiver {
    unr: Arc<Unr>,
    landing: UnrMem,
    capacity: usize,
    recv_sig: Signal,
    credit_plan: RmaPlan,
    credit_mem: UnrMem,
    epoch: u64,
}

/// Builder for the two halves.
pub struct PackChannel;

impl PackChannel {
    /// Create the sending half toward `peer`. The peer must call
    /// [`PackChannel::receiver`] with the same `capacity`/`instance`.
    pub fn sender(
        unr: &Arc<Unr>,
        comm: &Comm,
        peer: usize,
        capacity: usize,
        instance: i32,
    ) -> PackSender {
        let staging = unr.mem_reg(capacity.max(16));
        let send_sig = unr.sig_init(1);
        let credit_sig = unr.sig_init(1);
        let tag = TAG_PACK + 2 * instance;
        // Receive the landing blk; publish my credit slot.
        let credit_blk = unr.blk_init(&staging, 0, 1, Some(&credit_sig));
        convert::send_blk(comm, peer, tag + 1, &credit_blk);
        let target = convert::recv_blk(comm, peer, tag);
        assert!(
            target.len >= capacity,
            "receiver landing buffer smaller than sender capacity"
        );
        PackSender {
            unr: Arc::clone(unr),
            staging,
            capacity,
            cursor: 4,
            count: 0,
            target,
            send_sig,
            credit_sig,
            epoch: 0,
        }
    }

    /// Create the receiving half from `peer`.
    pub fn receiver(
        unr: &Arc<Unr>,
        comm: &Comm,
        peer: usize,
        capacity: usize,
        instance: i32,
    ) -> PackReceiver {
        let landing = unr.mem_reg(capacity.max(16));
        let credit_mem = unr.mem_reg(8);
        let recv_sig = unr.sig_init(1);
        let tag = TAG_PACK + 2 * instance;
        let blk = unr.blk_init(&landing, 0, capacity.max(16), Some(&recv_sig));
        convert::send_blk(comm, peer, tag, &blk);
        let sender_credit = convert::recv_blk(comm, peer, tag + 1);
        let mut credit_plan = RmaPlan::new();
        credit_plan.put(&unr.blk_init(&credit_mem, 0, 1, None), &sender_credit);
        PackReceiver {
            unr: Arc::clone(unr),
            landing,
            capacity,
            recv_sig,
            credit_plan,
            credit_mem,
            epoch: 0,
        }
    }
}

impl PackSender {
    /// Bytes still available in the current epoch's buffer.
    pub fn remaining(&self) -> usize {
        self.capacity.saturating_sub(self.cursor)
    }

    /// Queue one message. Errors if it does not fit (callers flush and
    /// retry, or size the channel for their epoch).
    pub fn push(&mut self, msg: &[u8]) -> Result<(), UnrError> {
        let need = 4 + msg.len();
        if self.cursor + need > self.capacity {
            return Err(UnrError::LenMismatch {
                local: need,
                remote: self.remaining(),
            });
        }
        self.staging
            .write_bytes(self.cursor, &(msg.len() as u32).to_le_bytes());
        self.staging.write_bytes(self.cursor + 4, msg);
        self.cursor += need;
        self.count += 1;
        Ok(())
    }

    /// Ship everything queued as one notified PUT; returns the number
    /// of messages sent. Waits for the consumer's credit of the
    /// previous epoch first, and for local completion before returning
    /// (the staging buffer is immediately reusable).
    pub fn flush(&mut self) -> Result<u32, UnrError> {
        if self.epoch > 0 {
            self.unr.sig_wait(&self.credit_sig)?;
            self.credit_sig.reset()?;
        }
        self.staging.write_bytes(0, &self.count.to_le_bytes());
        let used = self.cursor;
        let local = self.staging.blk(0, used, self.send_sig.key());
        let remote = Blk {
            len: used,
            ..self.target
        };
        self.unr.put(&local, &remote)?;
        self.unr.sig_wait(&self.send_sig)?;
        self.send_sig.reset()?;
        let n = self.count;
        self.cursor = 4;
        self.count = 0;
        self.epoch += 1;
        Ok(n)
    }
}

impl PackReceiver {
    /// Wait for one aggregated buffer and return its messages. Credits
    /// the sender once the contents have been copied out.
    pub fn recv(&mut self) -> Result<Vec<Vec<u8>>, UnrError> {
        self.unr.sig_wait(&self.recv_sig)?;
        let mut header = [0u8; 4];
        self.landing.read_bytes(0, &mut header);
        let count = u32::from_le_bytes(header);
        let mut out = Vec::with_capacity(count as usize);
        let mut off = 4usize;
        for _ in 0..count {
            let mut lenb = [0u8; 4];
            self.landing.read_bytes(off, &mut lenb);
            let len = u32::from_le_bytes(lenb) as usize;
            assert!(
                off + 4 + len <= self.capacity,
                "corrupt pack header: message runs past the landing buffer"
            );
            let mut payload = vec![0u8; len];
            self.landing.read_bytes(off + 4, &mut payload);
            out.push(payload);
            off += 4 + len;
        }
        self.recv_sig.reset()?;
        self.credit_plan.start(&self.unr)?;
        let _ = &self.credit_mem;
        self.epoch += 1;
        Ok(out)
    }
}

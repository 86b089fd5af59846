//! The buffered put paths of [`crate::post`]: a put through the
//! self-healing transport, and the small-message coalescer's rings and
//! their flushes.

use std::sync::atomic::Ordering;

use unr_simnet::sync::Mutex;
use unr_simnet::{MemRegion, NicSel, RKey};

use crate::agg::{AggFlush, Coalescer, FlushWhy};
use crate::blk::Blk;
use crate::channel::Mechanism;
use crate::error::UnrError;
use crate::post::Unr;
use crate::retry::{RetryState, Route};
use crate::signal::striped_addends;
#[cfg(doc)]
use crate::signal::Signal;
use crate::transport::{CtrlFrame, SeqPost, Transport};
use crate::wire;

impl<T: Transport> Unr<T> {
    /// `UNR_Put` through the self-healing transport: every sub-message
    /// carries a per-destination sequence number, is buffered until the
    /// receiver's ack and retransmitted on timeout (NIC rotation, then
    /// datagram fallback). Notifications ride sequenced control
    /// messages so the receiver's dedup window keeps the MMAS addend
    /// accounting exact under duplicates and replays; the local signal
    /// is applied once at post time (buffered-send semantics — the
    /// source buffer is snapshotted and immediately reusable).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put_reliable(
        &self,
        region: &MemRegion,
        local: &Blk,
        remote: &Blk,
        local_sig: u64,
        remote_sig: u64,
        len: usize,
        retry: &RetryState,
    ) -> Result<(), UnrError> {
        let core = &self.core;
        let dst = remote.rank;
        // The fallback channel has no RMA to ride; elsewhere the
        // fabric says how its sub-messages travel.
        let two_sided = matches!(core.channel.mech, Mechanism::Dgram);
        let route = if two_sided {
            core.stats.fallback_msgs.fetch_add(1, Ordering::Relaxed);
            core.met.fallback_msgs.inc();
            Route::Dgram
        } else {
            core.facts.sub_route
        };
        let k = self.stripes_for_reliable(len);
        core.met.stripe_fanout.record(k as u64);
        if two_sided {
            // The fallback channel never stripes: one pack copy.
            self.tx
                .charge(core.copy_bw.transfer_time(len) + core.cfg.fallback_overhead);
        }
        let adds = striped_addends(k, core.table.n_bits());
        let chunk = len / k;
        let rem = len % k;
        let mut off = 0usize;
        let mut posts = Vec::with_capacity(k);
        let mut entries: Vec<(usize, u64)> = Vec::with_capacity(k);
        // One snapshot of the whole block, at most one copy: each stripe
        // is a slice of it, and its retry entry, its wire post and any
        // retransmission all alias that one buffer — as does the next
        // put of the same unchanged block.
        let snap = region
            .snapshot_shared(local.offset, len)
            .expect("local block in bounds");
        for (i, &add) in adds.iter().enumerate() {
            let this = chunk + usize::from(i < rem);
            let payload = snap.slice(off, this);
            let nic = if k == 1 {
                retry.first_nic(core.cfg.pin_nic)
            } else {
                i % core.facts.nics
            };
            // Register before posting: the progress driver sweeps this
            // state concurrently, and the ack must never be able to
            // outrun the registration it settles.
            let reg = retry.register_data(
                route,
                payload.clone(), // refcount bump, not a copy
                remote.rkey(),
                remote.offset + off,
                remote_sig,
                if remote_sig == 0 { 0 } else { add },
                nic,
            );
            entries.push((dst, reg.seq));
            posts.push(SeqPost {
                route,
                dst: remote.rkey(),
                dst_offset: remote.offset + off,
                payload,
                frame: reg.frame,
                // An unstriped control frame goes where every other one
                // does; stripes and RMA sub-messages go by the NIC the
                // table will rotate away from.
                nic: if k == 1 && route != Route::Rma {
                    self.default_nic()
                } else {
                    NicSel::Index(nic)
                },
                first: reg.first,
            });
            off += this;
        }
        // Every stripe in one call: on simnet one scheduler entry and
        // its train. The caller's `Err` is the whole story for the
        // stripes that did not leave; the ones on the wire stay watched.
        let (sent, failed) = match self.tx.post_seq(posts) {
            Ok(()) => (k, None),
            Err((sent, e)) => (sent, Some(e)),
        };
        for &(dst, seq) in &entries[sent..] {
            retry.unregister(dst, seq);
        }
        self.count_sub_messages(sent);
        // Stamp post times and arm the deadlines — on simnet without
        // these wake-ups a lost message would leave the virtual clock
        // with nothing to run and the world would deadlock. This is the
        // rank's own scheduler entry, after the train: it waits for the
        // last stripe, so the next put registers nothing before this
        // one is armed.
        self.tx.complete(&entries[..sent], &[]);
        if let Some(e) = failed {
            return Err(e);
        }
        self.tx.complete(&[], &[(local_sig, -1)]);
        Ok(())
    }

    /// Append one eligible small put to its destination's aggregate
    /// ring: one lock, the pack memcpy and a few vector pushes. The
    /// per-message fallback overhead, the retry entry, every scheduler
    /// entry and the put counters are deferred to the flush and
    /// amortized across the whole aggregate.
    pub(crate) fn put_agg(
        &self,
        region: &MemRegion,
        local: &Blk,
        remote: &Blk,
        local_sig: u64,
        remote_sig: u64,
        len: usize,
    ) -> Result<(), UnrError> {
        let trigger = {
            let mut c = self.core.agg.as_ref().expect("agg enabled").lock();
            c.owe(self.core.copy_bw.transfer_time(len));
            c.push_blk(region, local, remote, (remote_sig, -1), (local_sig, -1))
                .expect("local block in bounds")
        };
        match trigger {
            Some(why) => self.agg_flush_dst(remote.rank, why),
            None => Ok(()),
        }
    }

    /// Flush one destination's aggregate ring, if non-empty.
    pub(crate) fn agg_flush_dst(&self, dst: usize, why: FlushWhy) -> Result<(), UnrError> {
        let Some(aggm) = &self.core.agg else {
            return Ok(());
        };
        let fl = aggm.lock().drain(dst);
        match fl {
            Some(fl) => self.send_aggregate(aggm, dst, fl, why),
            None => Ok(()),
        }
    }

    /// Flush every pending aggregate ring, in first-touch order,
    /// counting the flushes under `why` (blocking waits, plan
    /// boundaries, explicit flushes, finalize).
    pub fn agg_flush_all(&self, why: FlushWhy) -> Result<(), UnrError> {
        let Some(aggm) = &self.core.agg else {
            return Ok(());
        };
        loop {
            let next = aggm.lock().drain_next();
            let Some((dst, fl)) = next else {
                return Ok(());
            };
            self.send_aggregate(aggm, dst, fl, why)?;
        }
    }

    /// Flush all pending small-message aggregates now. Aggregated puts
    /// are otherwise delivered when a ring crosses its threshold, when
    /// this rank enters any blocking wait (`sig_wait` family), at plan
    /// boundaries, and at finalize — a peer polling [`Signal::test`]
    /// without ever blocking observes them only after one of those.
    pub fn flush(&self) -> Result<(), UnrError> {
        self.agg_flush_all(FlushWhy::Explicit)
    }

    /// Serialize one drained aggregate ring into a [`wire::MSG_AGG`]
    /// control message and send it: one fallback sub-message (and, when
    /// reliable, one retry entry) for the whole aggregate. The local
    /// (source-completion) addends the coalescer deferred are applied
    /// here, in the same step that arms the entry's deadline, and the
    /// puts inside are counted here. The ring's buffers go back to it
    /// afterwards, sent or not.
    fn send_aggregate(
        &self,
        aggm: &Mutex<Coalescer>,
        dst: usize,
        fl: AggFlush,
        why: FlushWhy,
    ) -> Result<(), UnrError> {
        let core = &self.core;
        self.count_puts(fl.puts, fl.payload.len());
        core.stats.fallback_msgs.fetch_add(1, Ordering::Relaxed);
        core.met.fallback_msgs.inc();
        self.count_sub_messages(1);
        if let Some(am) = &core.amet {
            am.count_flush(why);
            am.addends_summed.add(fl.sigs.len() as u64);
            am.puts_coalesced.add(fl.puts as u64);
            am.bytes_packed.add(fl.payload.len() as u64);
        }
        // One per-message software overhead for the whole aggregate —
        // this amortization is the modeled speedup — plus the pack
        // copies' accumulated virtual time, settled in one clock op.
        self.tx.charge(core.cfg.fallback_overhead + fl.owed);
        let sent = match &core.retry {
            None => {
                let msg = wire::agg_msg(0, false, &fl.spans, &fl.sigs, &fl.payload);
                self.tx
                    .send_ctrl(dst, self.default_nic(), msg)
                    .map(|()| self.tx.complete(&[], &fl.local_sigs))
            }
            Some(retry) => self.post_aggregate(retry, dst, &fl),
        };
        aggm.lock().recycle(dst, fl);
        sent
    }

    /// The reliable half of [`Unr::send_aggregate`]: register the
    /// aggregate, then send its frame — the replay buffer and every
    /// transmission share the one buffer the frame was written into.
    fn post_aggregate(
        &self,
        retry: &RetryState,
        dst: usize,
        fl: &AggFlush,
    ) -> Result<(), UnrError> {
        let nic = retry.first_nic(self.core.cfg.pin_nic);
        let reg = retry.register_agg(dst, nic, &fl.spans, &fl.sigs, &fl.payload);
        let posted = self.tx.post_seq(vec![SeqPost {
            route: Route::Agg,
            dst: RKey {
                rank: dst,
                id: 0,
                len: 0,
            },
            dst_offset: 0,
            payload: reg.frame.clone(),
            frame: CtrlFrame::Shared(reg.frame),
            nic: self.default_nic(),
            first: reg.first,
        }]);
        if let Err((_, e)) = posted {
            retry.unregister(dst, reg.seq);
            return Err(e);
        }
        self.tx.complete(&[(dst, reg.seq)], &fl.local_sigs);
        Ok(())
    }
}

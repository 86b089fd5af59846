//! Recursive-doubling allgather over notified puts.
//!
//! For power-of-two communicators: `log2 n` rounds, in round `k` each
//! rank exchanges its accumulated `2^k`-block range with partner
//! `me XOR 2^k`. Latency-optimal (log rounds) where the ring
//! ([`crate::NotifiedAllgather`]) is bandwidth-friendly — the classic
//! trade-off; pick per message size.
//!
//! Every round's arrival is one MMAS signal; epoch reuse is guarded by
//! a per-partner credit put (sent at the *start* of the next epoch, so
//! `run` returning leaves the buffer stable for the caller).

use std::sync::Arc;

use unr_core::{convert, Blk, RmaPlan, Signal, Unr, UnrMem};
use unr_minimpi::Comm;

use crate::tags::{tag_range_epoch, TagKind};

/// Persistent recursive-doubling allgather (communicator size must be a
/// power of two).
pub struct NotifiedAllgatherRd {
    unr: Arc<Unr>,
    n: usize,
    me: usize,
    block: usize,
    /// The `n * block` gather buffer (slot `r` belongs to rank `r`).
    pub mem: UnrMem,
    /// Per-round arrival signals.
    round_sigs: Vec<Signal>,
    /// Per-round put target covering my accumulated range at the
    /// partner.
    round_targets: Vec<Blk>,
    send_sig: Option<Signal>,
    /// Per-round partner epoch credits.
    credit_sigs: Vec<Signal>,
    credit_plans: Vec<RmaPlan>,
    credit_mem: UnrMem,
    epoch: u64,
}

impl NotifiedAllgatherRd {
    /// Collective constructor (`instance` separates tag spaces).
    pub fn new(unr: &Arc<Unr>, comm: &Comm, block: usize, instance: i32) -> NotifiedAllgatherRd {
        let n = comm.size();
        assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
        let me = comm.rank();
        let rounds = n.trailing_zeros() as usize;
        let mem = unr.mem_reg((n * block).max(8));
        let credit_mem = unr.mem_reg(8);
        // Data tags use [tag, tag+rounds), credit tags
        // [tag+rounds, tag+2*rounds); `tag_range_epoch` asserts both
        // fit the per-instance stride.
        let tag = tag_range_epoch(TagKind::AllgatherRd, n, instance, unr.epoch()).start;

        let round_sigs: Vec<Signal> = (0..rounds).map(|_| unr.sig_init(1)).collect();
        let credit_sigs: Vec<Signal> = (0..rounds).map(|_| unr.sig_init(1)).collect();
        let send_sig = (rounds > 0).then(|| unr.sig_init(rounds as i64));

        let mut round_targets = Vec::with_capacity(rounds);
        let mut credit_plans = Vec::with_capacity(rounds);
        for k in 0..rounds {
            let dist = 1usize << k;
            let partner = me ^ dist;
            // Partner's accumulated range before round k is
            // [partner & !(dist-1), +dist) blocks — that is what it
            // sends me, landing at the same offsets in my buffer.
            let their_base = (partner & !(dist - 1)) * block;
            let range = dist * block;
            // Publish the landing area for the partner's range.
            let blk = unr.blk_init(&mem, their_base, range, Some(&round_sigs[k]));
            convert::send_blk(comm, partner, tag + k as i32, &blk);
            let tgt = convert::recv_blk(comm, partner, tag + k as i32);
            round_targets.push(tgt);
            // Credits.
            let cblk = unr.blk_init(&credit_mem, 0, 1, Some(&credit_sigs[k]));
            convert::send_blk(comm, partner, tag + rounds as i32 + k as i32, &cblk);
            let their_credit = convert::recv_blk(comm, partner, tag + rounds as i32 + k as i32);
            let mut plan = RmaPlan::new();
            plan.put(&unr.blk_init(&credit_mem, 0, 1, None), &their_credit);
            credit_plans.push(plan);
        }

        NotifiedAllgatherRd {
            unr: Arc::clone(unr),
            n,
            me,
            block,
            mem,
            round_sigs,
            round_targets,
            send_sig,
            credit_sigs,
            credit_plans,
            credit_mem,
            epoch: 0,
        }
    }

    /// Run one epoch; the caller must have written its own block into
    /// slot `rank` beforehand.
    pub fn run(&mut self) -> Result<(), unr_core::UnrError> {
        let rounds = self.n.trailing_zeros() as usize;
        if rounds == 0 {
            return Ok(());
        }
        // Credit all partners for the previous epoch, then require
        // theirs (they may overwrite our ranges once we credit).
        if self.epoch > 0 {
            for plan in &self.credit_plans {
                plan.start(&self.unr)?;
            }
            for cs in &self.credit_sigs {
                self.unr.sig_wait(cs)?;
                cs.reset()?;
            }
        }
        for k in 0..rounds {
            let dist = 1usize << k;
            let my_base = (self.me & !(dist - 1)) * self.block;
            let range = dist * self.block;
            let src = self.mem.blk(
                my_base,
                range,
                self.send_sig
                    .as_ref()
                    .map(|s| s.key())
                    .unwrap_or(unr_core::SigKey::NULL),
            );
            self.unr.put(&src, &self.round_targets[k])?;
            self.unr.sig_wait(&self.round_sigs[k])?;
            self.round_sigs[k].reset()?;
        }
        if let Some(ss) = &self.send_sig {
            self.unr.sig_wait(ss)?;
            ss.reset()?;
        }
        let _ = &self.credit_mem;
        self.epoch += 1;
        Ok(())
    }
}

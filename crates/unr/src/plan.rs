//! `UNR_RMA_Plan`: record a series of PUT/GET operations before the main
//! loop; replay them with one call per iteration (paper §IV-D).
//!
//! Plans capture the paper's usage pattern: communication topology is
//! fixed across time steps, so the address resolution, signal binding
//! and striping decisions are made once, and `start` only issues the
//! operations.

use crate::agg::FlushWhy;
use crate::blk::Blk;
use crate::engine::UnrError;
use crate::post::Unr;
use crate::signal::SigKey;

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// `UNR_Put(local, remote)` with explicit signal keys.
    Put {
        /// Source block on the issuing rank.
        local: Blk,
        /// Destination block on the peer rank.
        remote: Blk,
        /// Signal key triggered on the issuing rank at local completion.
        local_sig: SigKey,
        /// Signal key triggered on the peer at delivery.
        remote_sig: SigKey,
    },
    /// `UNR_Get(local, remote)` with explicit signal keys.
    Get {
        /// Destination block on the issuing rank.
        local: Blk,
        /// Source block on the peer rank.
        remote: Blk,
        /// Signal key triggered on the issuing rank when data lands.
        local_sig: SigKey,
        /// Signal key triggered on the peer (if the channel supports it).
        remote_sig: SigKey,
    },
}

/// A recorded series of RMA operations.
#[derive(Debug, Default, Clone)]
pub struct RmaPlan {
    ops: Vec<PlanOp>,
}

impl RmaPlan {
    /// Create an empty plan (`UNR_RMA_Plan`).
    pub fn new() -> RmaPlan {
        RmaPlan::default()
    }

    /// Record a put using the blocks' bound signals.
    pub fn put(&mut self, local: &Blk, remote: &Blk) -> &mut Self {
        self.put_with_keys(local, remote, local.sig_key, remote.sig_key)
    }

    /// Record a put with explicit signal keys.
    pub fn put_with_keys(
        &mut self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> &mut Self {
        self.ops.push(PlanOp::Put {
            local: *local,
            remote: *remote,
            local_sig,
            remote_sig,
        });
        self
    }

    /// Record a get using the blocks' bound signals.
    pub fn get(&mut self, local: &Blk, remote: &Blk) -> &mut Self {
        self.get_with_keys(local, remote, local.sig_key, remote.sig_key)
    }

    /// Record a get with explicit signal keys.
    pub fn get_with_keys(
        &mut self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> &mut Self {
        self.ops.push(PlanOp::Get {
            local: *local,
            remote: *remote,
            local_sig,
            remote_sig,
        });
        self
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan has no recorded operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operations (introspection / tests).
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// `UNR_Plan_Start`: issue every recorded operation.
    pub fn start(&self, unr: &Unr) -> Result<(), UnrError> {
        unr.met().plan_starts.inc();
        unr.met().plan_ops.add(self.ops.len() as u64);
        for op in &self.ops {
            match *op {
                PlanOp::Put {
                    local,
                    remote,
                    local_sig,
                    remote_sig,
                } => unr.put_keyed(&local, &remote, local_sig, remote_sig)?,
                PlanOp::Get {
                    local,
                    remote,
                    local_sig,
                    remote_sig,
                } => unr.get_keyed(&local, &remote, local_sig, remote_sig)?,
            }
        }
        // Plan boundary: a replayed iteration is complete as soon as
        // `start` returns, so nothing it buffered may linger.
        unr.agg_flush_all(FlushWhy::Plan)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(rank: usize) -> Blk {
        Blk {
            rank,
            region_id: 1,
            region_len: 1024,
            offset: 0,
            len: 64,
            sig_key: SigKey::from_raw(5),
        }
    }

    #[test]
    fn plan_records_in_order() {
        let mut p = RmaPlan::new();
        p.put(&blk(0), &blk(1)).get(&blk(0), &blk(2));
        assert_eq!(p.len(), 2);
        assert!(matches!(p.ops()[0], PlanOp::Put { remote, .. } if remote.rank == 1));
        assert!(matches!(p.ops()[1], PlanOp::Get { remote, .. } if remote.rank == 2));
    }

    #[test]
    fn plan_with_overrides() {
        let mut p = RmaPlan::new();
        p.put_with_keys(&blk(0), &blk(1), SigKey::from_raw(77), SigKey::from_raw(88));
        match p.ops()[0] {
            PlanOp::Put {
                local_sig,
                remote_sig,
                ..
            } => {
                assert_eq!(local_sig.raw(), 77);
                assert_eq!(remote_sig.raw(), 88);
            }
            _ => unreachable!(),
        }
    }

}

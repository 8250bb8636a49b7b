//! The inter-AP admission protocol: epoch-stamped claims, releases and
//! grant transfers over a lossy backhaul.
//!
//! Layered on the same primitives as the node control plane
//! ([`crate::control`]): one monotonic epoch counter, last-writer-wins
//! by epoch, and explicit stale-message accounting. Messages travel
//! the inter-AP link through the fault injector
//! ([`crate::faults::FaultInjector::control_fate`]), so they can be
//! lost, duplicated or delayed; the arbiter's job is to stay consistent
//! anyway.
//!
//! ## Epoch rules
//!
//! * The coordinator owns one **global, monotonic** epoch counter.
//!   Every successful claim/transfer bumps it and stamps the node's
//!   ownership record with the new value.
//! * An incoming message carrying an epoch *older* than the subject
//!   node's ownership record is **stale** — a duplicate or a reordered
//!   straggler — and is discarded (counted, never applied).
//! * A transfer is valid only from the current owner; anyone else gets
//!   a denial naming the real owner, so a confused AP can resync.
//!
//! Together with the node-side watermark
//! ([`crate::link::NodeLink::on_transfer_grant`]) this yields the
//! make-before-break safety property: at any instant at most one AP
//! holds a *current* grant for a node, so a packet is never counted
//! delivered twice.

use crate::ap::ApId;
use crate::control::NodeId;
use std::collections::BTreeMap;

/// A message on the inter-AP coordination plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApMsg {
    /// AP `ap` claims slot ownership of `node` (initial association or
    /// re-claim after an aborted transfer).
    Claim {
        /// The claiming AP.
        ap: ApId,
        /// The subject node.
        node: NodeId,
        /// The newest epoch the sender has seen for this node.
        epoch: u64,
    },
    /// AP `ap` releases `node` (node left, or lease expired).
    Release {
        /// The releasing AP.
        ap: ApId,
        /// The subject node.
        node: NodeId,
        /// The newest epoch the sender has seen for this node.
        epoch: u64,
    },
    /// AP `from` asks the coordinator to move `node`'s grant to `to`
    /// (roaming handoff).
    Transfer {
        /// The current serving AP.
        from: ApId,
        /// The target AP.
        to: ApId,
        /// The subject node.
        node: NodeId,
        /// The newest epoch the sender has seen for this node.
        epoch: u64,
    },
}

impl ApMsg {
    /// The subject node of the message.
    pub fn node(&self) -> NodeId {
        match self {
            ApMsg::Claim { node, .. }
            | ApMsg::Release { node, .. }
            | ApMsg::Transfer { node, .. } => *node,
        }
    }

    /// The epoch the sender stamped.
    pub fn epoch(&self) -> u64 {
        match self {
            ApMsg::Claim { epoch, .. }
            | ApMsg::Release { epoch, .. }
            | ApMsg::Transfer { epoch, .. } => *epoch,
        }
    }
}

/// The coordinator's answer to one [`ApMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterVerdict {
    /// Applied; the node's ownership record now carries `epoch`.
    Granted {
        /// The fresh epoch stamped on the new ownership record.
        epoch: u64,
    },
    /// Refused: `owner` currently holds the node.
    Denied {
        /// The actual owner.
        owner: ApId,
    },
    /// Stale epoch (duplicate or reordered straggler); discarded.
    Stale,
}

/// The deterministic slot arbiter: who owns each node's grant, at what
/// epoch. `BTreeMap`-backed (like [`crate::control::Admission`]) so
/// iteration — and therefore every downstream trace — is ordered and
/// reproducible.
#[derive(Debug, Clone, Default)]
pub struct SlotArbiter {
    owner: BTreeMap<NodeId, (ApId, u64)>,
    epoch: u64,
    stale: u64,
    transfers: u64,
}

impl SlotArbiter {
    /// An empty arbiter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The newest epoch issued.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stale messages discarded so far.
    pub fn stale_discarded(&self) -> u64 {
        self.stale
    }

    /// Successful grant transfers so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// The owning AP and grant epoch of `node`, if owned.
    pub fn owner_of(&self, node: NodeId) -> Option<(ApId, u64)> {
        self.owner.get(&node).copied()
    }

    /// Applies one message per the epoch rules (module docs).
    pub fn handle(&mut self, msg: &ApMsg) -> ArbiterVerdict {
        match *msg {
            ApMsg::Claim { ap, node, epoch } => match self.owner.get(&node) {
                None => self.grant(node, ap),
                Some(&(owner, cur)) => {
                    if epoch < cur {
                        self.discard()
                    } else if owner == ap {
                        // Idempotent re-claim/refresh by the owner.
                        self.grant(node, ap)
                    } else {
                        ArbiterVerdict::Denied { owner }
                    }
                }
            },
            ApMsg::Release { ap, node, epoch } => match self.owner.get(&node) {
                None => self.discard(),
                Some(&(owner, cur)) => {
                    if epoch < cur || owner != ap {
                        self.discard()
                    } else {
                        self.owner.remove(&node);
                        ArbiterVerdict::Granted { epoch: cur }
                    }
                }
            },
            ApMsg::Transfer {
                from,
                to,
                node,
                epoch,
            } => match self.owner.get(&node) {
                None => ArbiterVerdict::Denied { owner: from },
                Some(&(owner, cur)) => {
                    if epoch < cur {
                        // A duplicate of an already-applied transfer
                        // lands here: after the first copy bumped the
                        // record, the second copy's epoch is old.
                        self.discard()
                    } else if owner != from {
                        ArbiterVerdict::Denied { owner }
                    } else {
                        self.transfers += 1;
                        self.grant(node, to)
                    }
                }
            },
        }
    }

    fn grant(&mut self, node: NodeId, ap: ApId) -> ArbiterVerdict {
        self.epoch += 1;
        self.owner.insert(node, (ap, self.epoch));
        ArbiterVerdict::Granted { epoch: self.epoch }
    }

    fn discard(&mut self) -> ArbiterVerdict {
        self.stale += 1;
        ArbiterVerdict::Stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_then_transfer_moves_ownership_with_fresh_epochs() {
        let mut arb = SlotArbiter::new();
        let v = arb.handle(&ApMsg::Claim {
            ap: ApId(0),
            node: 7,
            epoch: 0,
        });
        let e1 = match v {
            ArbiterVerdict::Granted { epoch } => epoch,
            other => panic!("claim denied: {other:?}"),
        };
        assert_eq!(arb.owner_of(7), Some((ApId(0), e1)));
        let v = arb.handle(&ApMsg::Transfer {
            from: ApId(0),
            to: ApId(1),
            node: 7,
            epoch: e1,
        });
        let e2 = match v {
            ArbiterVerdict::Granted { epoch } => epoch,
            other => panic!("transfer refused: {other:?}"),
        };
        assert!(e2 > e1, "epochs are monotonic");
        assert_eq!(arb.owner_of(7), Some((ApId(1), e2)));
        assert_eq!(arb.transfers(), 1);
    }

    #[test]
    fn duplicated_transfer_is_stale_not_a_second_move() {
        let mut arb = SlotArbiter::new();
        arb.handle(&ApMsg::Claim {
            ap: ApId(0),
            node: 3,
            epoch: 0,
        });
        let msg = ApMsg::Transfer {
            from: ApId(0),
            to: ApId(1),
            node: 3,
            epoch: 1,
        };
        assert!(matches!(arb.handle(&msg), ArbiterVerdict::Granted { .. }));
        // The fault injector duplicated the message: the second copy
        // carries the old epoch and must not bounce ownership around.
        assert_eq!(arb.handle(&msg), ArbiterVerdict::Stale);
        assert_eq!(arb.owner_of(3).unwrap().0, ApId(1));
        assert_eq!(arb.transfers(), 1);
        assert_eq!(arb.stale_discarded(), 1);
    }

    #[test]
    fn transfer_from_a_non_owner_is_denied_with_the_real_owner() {
        let mut arb = SlotArbiter::new();
        arb.handle(&ApMsg::Claim {
            ap: ApId(0),
            node: 1,
            epoch: 0,
        });
        let v = arb.handle(&ApMsg::Transfer {
            from: ApId(2),
            to: ApId(3),
            node: 1,
            epoch: 1,
        });
        assert_eq!(v, ArbiterVerdict::Denied { owner: ApId(0) });
        assert_eq!(arb.owner_of(1).unwrap().0, ApId(0));
    }

    #[test]
    fn foreign_claim_is_denied_owner_reclaim_is_idempotent() {
        let mut arb = SlotArbiter::new();
        arb.handle(&ApMsg::Claim {
            ap: ApId(0),
            node: 9,
            epoch: 0,
        });
        assert_eq!(
            arb.handle(&ApMsg::Claim {
                ap: ApId(1),
                node: 9,
                epoch: 1
            }),
            ArbiterVerdict::Denied { owner: ApId(0) }
        );
        // The owner re-claiming (after an aborted handoff) refreshes.
        let v = arb.handle(&ApMsg::Claim {
            ap: ApId(0),
            node: 9,
            epoch: 1,
        });
        assert!(matches!(v, ArbiterVerdict::Granted { .. }));
        assert_eq!(arb.owner_of(9).unwrap().0, ApId(0));
    }

    #[test]
    fn release_frees_the_node_and_stale_release_does_not() {
        let mut arb = SlotArbiter::new();
        arb.handle(&ApMsg::Claim {
            ap: ApId(0),
            node: 4,
            epoch: 0,
        });
        let cur = arb.owner_of(4).unwrap().1;
        // A release stamped before the claim (reordered) is stale.
        assert_eq!(
            arb.handle(&ApMsg::Release {
                ap: ApId(0),
                node: 4,
                epoch: cur - 1
            }),
            ArbiterVerdict::Stale
        );
        assert!(arb.owner_of(4).is_some());
        assert!(matches!(
            arb.handle(&ApMsg::Release {
                ap: ApId(0),
                node: 4,
                epoch: cur
            }),
            ArbiterVerdict::Granted { .. }
        ));
        assert_eq!(arb.owner_of(4), None);
        // Releasing an unowned node: stale.
        assert_eq!(
            arb.handle(&ApMsg::Release {
                ap: ApId(0),
                node: 4,
                epoch: cur
            }),
            ArbiterVerdict::Stale
        );
    }

    #[test]
    fn accessors_expose_subject_and_epoch() {
        let m = ApMsg::Transfer {
            from: ApId(1),
            to: ApId(2),
            node: 11,
            epoch: 5,
        };
        assert_eq!(m.node(), 11);
        assert_eq!(m.epoch(), 5);
    }
}

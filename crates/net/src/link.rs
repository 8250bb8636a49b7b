//! The node-side control-link state machine and retransmit backoff.
//!
//! A node's relationship to the AP moves through six states:
//!
//! ```text
//! Idle ──join──▶ Joining ──grant──▶ Granted ──K low-SINR pkts──▶ Outage
//!   ▲                                  │  ▲                        │
//!   └────────── crash ─────────────────┘  └──grant── Rejoining ◀───┘
//!                                      │  ▲             ▲ (also after
//!                            better AP │  │ transfer    └─reject─
//!                                      ▼  │ grant          AP restart)
//!                                   Handoff { from, to }
//! ```
//!
//! The machine is pure bookkeeping — it decides *what* the node should
//! do (send a join, start streaming, back off); the simulator decides
//! *when* by scheduling the resulting control messages through the
//! fault injector. Grants carry an epoch number; a grant older than the
//! newest one the node has seen is stale (reordered or duplicated on
//! the control plane) and is discarded, so FDM re-packing can never
//! strand the node on an outdated center frequency.
//!
//! `Handoff { from, to }` is the multi-AP roaming state
//! (`mmx_net::multi_ap`): per-packet SINR margin hysteresis asks the
//! coordinator to move the node's grant to a better AP, and the node
//! keeps streaming to `from` — make-before-break — until a
//! *fresh-epoch* transfer grant from `to` arrives. The monotonic epoch
//! watermark is what makes the break safe: at most one AP's grant is
//! current, so a packet can never be counted delivered at two APs.

use crate::ap::ApId;
use mmx_units::Seconds;

/// The control-link states of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Not participating (before `active_from`, or crashed).
    Idle,
    /// First admission attempt in flight.
    Joining,
    /// Holding a live lease; streaming.
    Granted,
    /// Streaming but undecodable at the AP; FSK-only fallback active,
    /// re-admission requested.
    Outage,
    /// Lost the lease (crash reboot, AP restart, or outage) and
    /// re-requesting admission.
    Rejoining,
    /// Roaming: still streaming to `from` while the coordinator moves
    /// the grant to `to` (make-before-break, `mmx_net::multi_ap`).
    Handoff {
        /// The serving AP the node keeps streaming to meanwhile.
        from: ApId,
        /// The AP the grant is being transferred to.
        to: ApId,
    },
}

/// Exponential backoff with deterministic jitter for control
/// retransmissions.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First retransmit timeout.
    pub base: Seconds,
    /// Cap on the doubled timeout.
    pub max: Seconds,
    /// Jitter fraction: the delay is scaled by `1 + jitter_frac * u`
    /// with `u ∈ [0, 1)` supplied by the caller's seeded RNG.
    pub jitter_frac: f64,
}

impl Backoff {
    /// The standard control-plane policy: 60 ms doubling to 1 s with up
    /// to 50% jitter (a BLE connection interval is ~30 ms, so the first
    /// retry waits two of them).
    pub fn standard() -> Self {
        Backoff {
            base: Seconds::from_millis(60.0),
            max: Seconds::new(1.0),
            jitter_frac: 0.5,
        }
    }

    /// The retransmit delay after `attempt` failures (attempt 0 = first
    /// retry), jittered by `u ∈ [0, 1)`.
    pub fn delay(&self, attempt: u32, u: f64) -> Seconds {
        debug_assert!((0.0..=1.0).contains(&u), "jitter draw out of range");
        let doubled = self.base * 2f64.powi(attempt.min(16) as i32);
        let capped = doubled.min(self.max);
        capped * (1.0 + self.jitter_frac * u.clamp(0.0, 1.0))
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::standard()
    }
}

/// The per-node control-link bookkeeping the simulator carries.
#[derive(Debug, Clone)]
pub struct NodeLink {
    state: LinkState,
    /// Newest grant epoch accepted; older grants are stale.
    epoch_seen: u64,
    /// Consecutive failed join attempts in the current (re)join cycle.
    attempt: u32,
    /// Center frequency of the live grant, Hz (0 until first grant).
    center_hz: f64,
    /// When the current join/outage episode began (for time-to-recover).
    episode_start: Option<Seconds>,
    /// Consecutive packets below the decode threshold.
    low_sinr_run: u32,
    /// Stale (reordered or duplicated) grants discarded so far.
    stale_discarded: u64,
    /// The AP currently serving this node (always `ap0` under one AP).
    serving: ApId,
    /// Completed handoffs.
    handoffs: u64,
}

/// What the state machine asks the simulator to do after an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAction {
    /// Nothing to do.
    None,
    /// Send (or resend) a `JoinRequest`.
    SendJoin,
    /// Send a `GrantAck` and begin/resume streaming.
    AckGrant,
    /// Ask the coordinator to transfer the grant to a better AP
    /// (`mmx_net::multi_ap`).
    SendTransfer,
}

impl NodeLink {
    /// A fresh link in [`LinkState::Idle`].
    pub fn new() -> Self {
        NodeLink {
            state: LinkState::Idle,
            epoch_seen: 0,
            attempt: 0,
            center_hz: 0.0,
            episode_start: None,
            low_sinr_run: 0,
            stale_discarded: 0,
            serving: ApId::default(),
            handoffs: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// The newest grant epoch accepted.
    pub fn epoch_seen(&self) -> u64 {
        self.epoch_seen
    }

    /// Consecutive failed attempts in this join cycle.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Center frequency of the live grant, Hz.
    pub fn center_hz(&self) -> f64 {
        self.center_hz
    }

    /// Stale grants this node has discarded.
    pub fn stale_discarded(&self) -> u64 {
        self.stale_discarded
    }

    /// The AP currently serving this node.
    pub fn serving(&self) -> ApId {
        self.serving
    }

    /// Completed grant transfers.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Pins the serving AP at initial association (before the first
    /// handoff; the transfer path updates it from then on).
    pub fn set_serving(&mut self, ap: ApId) {
        self.serving = ap;
    }

    /// True while the node should be transmitting data packets
    /// (Granted, Outage on the FSK fallback, or mid-handoff — the
    /// make-before-break window keeps the uplink on air).
    pub fn is_streaming(&self) -> bool {
        matches!(
            self.state,
            LinkState::Granted | LinkState::Outage | LinkState::Handoff { .. }
        )
    }

    /// The node wakes up (at `active_from` or on reboot) and starts the
    /// admission handshake.
    pub fn start_join(&mut self, now: Seconds) -> LinkAction {
        self.state = if self.epoch_seen == 0 {
            LinkState::Joining
        } else {
            LinkState::Rejoining
        };
        self.attempt = 0;
        self.low_sinr_run = 0;
        if self.episode_start.is_none() {
            self.episode_start = Some(now);
        }
        LinkAction::SendJoin
    }

    /// A retransmit timer for join attempt `attempt` fired. Returns the
    /// action (resend) only when the timer is still current — a stale
    /// timer from a superseded attempt is ignored.
    pub fn retry_join(&mut self, attempt: u32) -> LinkAction {
        if !matches!(
            self.state,
            LinkState::Joining | LinkState::Rejoining | LinkState::Outage
        ) || attempt != self.attempt
        {
            return LinkAction::None;
        }
        self.attempt += 1;
        LinkAction::SendJoin
    }

    /// A `Grant` with `epoch` for `center_hz` arrived. Stale epochs are
    /// discarded; a fresh one retunes the node and — when it closes a
    /// join episode — moves it to Granted, reporting the elapsed time.
    /// A node in Outage retunes and acks but stays in the FSK fallback:
    /// its problem is the mmWave channel, not the lease, and it returns
    /// to Granted when a packet decodes again
    /// ([`Self::on_packet_sinr`]).
    pub fn on_grant(
        &mut self,
        epoch: u64,
        center_hz: f64,
        now: Seconds,
    ) -> (LinkAction, Option<Seconds>) {
        if epoch <= self.epoch_seen {
            self.stale_discarded += 1;
            return (LinkAction::None, None); // stale or duplicate
        }
        self.epoch_seen = epoch;
        self.center_hz = center_hz;
        match self.state {
            // Grant for a crashed node (it raced the lease expiry);
            // accept the epoch so the eventual rejoin discards
            // anything older, but do not start streaming.
            LinkState::Idle => (LinkAction::None, None),
            LinkState::Joining | LinkState::Rejoining => {
                let recovered = self.episode_start.take().map(|t0| now - t0);
                self.state = LinkState::Granted;
                self.attempt = 0;
                self.low_sinr_run = 0;
                (LinkAction::AckGrant, recovered)
            }
            // Re-pack move while streaming: retune and confirm.
            LinkState::Granted => {
                self.attempt = 0;
                (LinkAction::AckGrant, None)
            }
            // Stay in the fallback until the channel itself heals.
            LinkState::Outage => (LinkAction::AckGrant, None),
            // A fresh grant from the *serving* AP supersedes an
            // in-flight transfer: abort the handoff and stay home.
            LinkState::Handoff { .. } => {
                self.state = LinkState::Granted;
                self.attempt = 0;
                self.episode_start = None;
                (LinkAction::AckGrant, None)
            }
        }
    }

    /// A `Reject` arrived (band exhausted, or the AP no longer knows
    /// this node after a restart/lease expiry). A granted node falls
    /// back to Rejoining; a joining node keeps backing off.
    pub fn on_reject(&mut self, now: Seconds) -> LinkAction {
        match self.state {
            LinkState::Granted | LinkState::Outage => {
                self.state = LinkState::Rejoining;
                self.attempt = 0;
                self.episode_start = Some(now);
                LinkAction::SendJoin
            }
            LinkState::Joining | LinkState::Rejoining => LinkAction::None,
            LinkState::Idle => LinkAction::None,
            // The *target* AP denied the transfer (admission full):
            // abort the handoff and keep the current grant — the node
            // never stopped streaming to `from`.
            LinkState::Handoff { .. } => {
                self.abort_handoff();
                LinkAction::None
            }
        }
    }

    /// Starts a make-before-break handoff toward `to`. Only a cleanly
    /// granted node roams (an outage wants re-admission, not a move);
    /// the returned action asks the simulator to send an epoch-stamped
    /// `ApMsg::Transfer` through the serving AP.
    pub fn begin_handoff(&mut self, to: ApId, now: Seconds) -> LinkAction {
        match self.state {
            LinkState::Granted if to != self.serving => {
                self.state = LinkState::Handoff {
                    from: self.serving,
                    to,
                };
                self.attempt = 0;
                self.episode_start = Some(now);
                LinkAction::SendTransfer
            }
            _ => LinkAction::None,
        }
    }

    /// A transfer retransmit timer for attempt `attempt` fired. Stale
    /// timers (superseded attempt, or the handoff already resolved) are
    /// ignored, mirroring [`Self::retry_join`].
    pub fn retry_transfer(&mut self, attempt: u32) -> LinkAction {
        if !matches!(self.state, LinkState::Handoff { .. }) || attempt != self.attempt {
            return LinkAction::None;
        }
        self.attempt += 1;
        LinkAction::SendTransfer
    }

    /// A transfer grant from AP `to` with `epoch` for `center_hz`
    /// arrived. Stale epochs are discarded (the monotonic watermark is
    /// what guarantees at most one AP holds a current grant — the
    /// zero-duplicate-delivery invariant). A fresh epoch completes the
    /// handoff: the node retunes, switches its serving AP and reports
    /// how long the transfer took. A fresh transfer grant arriving
    /// *outside* a matching handoff (the node aborted meanwhile) only
    /// advances the watermark, exactly like
    /// [`Self::on_grant`] for a crashed node.
    pub fn on_transfer_grant(
        &mut self,
        epoch: u64,
        center_hz: f64,
        to: ApId,
        now: Seconds,
    ) -> (LinkAction, Option<Seconds>) {
        if epoch <= self.epoch_seen {
            self.stale_discarded += 1;
            return (LinkAction::None, None);
        }
        self.epoch_seen = epoch;
        match self.state {
            LinkState::Handoff { to: expected, .. } if expected == to => {
                self.center_hz = center_hz;
                self.serving = to;
                self.state = LinkState::Granted;
                self.attempt = 0;
                self.low_sinr_run = 0;
                self.handoffs += 1;
                let took = self.episode_start.take().map(|t0| now - t0);
                (LinkAction::AckGrant, took)
            }
            _ => (LinkAction::None, None),
        }
    }

    /// Gives up on an in-flight handoff (transfer retries exhausted):
    /// back to Granted on the unchanged serving AP. The break never
    /// happened, so nothing else to undo. No-op outside Handoff.
    pub fn abort_handoff(&mut self) {
        if matches!(self.state, LinkState::Handoff { .. }) {
            self.state = LinkState::Granted;
            self.attempt = 0;
            self.episode_start = None;
        }
    }

    /// The node crashed: all link state except the epoch watermark is
    /// lost.
    pub fn on_crash(&mut self) {
        self.state = LinkState::Idle;
        self.attempt = 0;
        self.low_sinr_run = 0;
        self.episode_start = None;
        self.center_hz = 0.0;
    }

    /// Records one data packet's SINR against the decode threshold.
    /// After `window` consecutive failures a granted node enters Outage
    /// (FSK-only fallback, §6.2) and asks for re-admission; the first
    /// decodable packet afterwards closes the outage, reporting its
    /// duration.
    pub fn on_packet_sinr(
        &mut self,
        decodable: bool,
        window: u32,
        now: Seconds,
    ) -> (LinkAction, Option<Seconds>) {
        if decodable {
            self.low_sinr_run = 0;
            if self.state == LinkState::Outage {
                let recovered = self.episode_start.take().map(|t0| now - t0);
                self.state = LinkState::Granted;
                self.attempt = 0;
                return (LinkAction::None, recovered);
            }
            return (LinkAction::None, None);
        }
        self.low_sinr_run += 1;
        if self.state == LinkState::Granted && self.low_sinr_run >= window {
            self.state = LinkState::Outage;
            self.attempt = 0;
            self.episode_start = Some(now);
            return (LinkAction::SendJoin, None);
        }
        (LinkAction::None, None)
    }
}

impl Default for NodeLink {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_idle_joining_granted() {
        let mut l = NodeLink::new();
        assert_eq!(l.state(), LinkState::Idle);
        assert_eq!(l.start_join(Seconds::ZERO), LinkAction::SendJoin);
        assert_eq!(l.state(), LinkState::Joining);
        let (act, rec) = l.on_grant(1, 24.05e9, Seconds::from_millis(30.0));
        assert_eq!(act, LinkAction::AckGrant);
        assert_eq!(rec, Some(Seconds::from_millis(30.0)));
        assert_eq!(l.state(), LinkState::Granted);
        assert!(l.is_streaming());
        assert_eq!(l.center_hz(), 24.05e9);
    }

    #[test]
    fn stale_grant_is_discarded() {
        let mut l = NodeLink::new();
        l.start_join(Seconds::ZERO);
        l.on_grant(5, 24.10e9, Seconds::new(0.1));
        // A reordered epoch-3 grant must not move the center.
        let (act, _) = l.on_grant(3, 24.00e9, Seconds::new(0.2));
        assert_eq!(act, LinkAction::None);
        assert_eq!(l.center_hz(), 24.10e9);
        // A duplicate of the current epoch is also ignored.
        let (act, _) = l.on_grant(5, 24.20e9, Seconds::new(0.3));
        assert_eq!(act, LinkAction::None);
        assert_eq!(l.center_hz(), 24.10e9);
        assert_eq!(l.stale_discarded(), 2);
        // A genuinely newer grant retunes a granted node in place.
        let (act, rec) = l.on_grant(6, 24.15e9, Seconds::new(0.4));
        assert_eq!(act, LinkAction::AckGrant);
        assert!(rec.is_none(), "a re-pack move is not a recovery");
        assert_eq!(l.center_hz(), 24.15e9);
        assert_eq!(l.state(), LinkState::Granted);
    }

    #[test]
    fn outage_after_k_bad_packets_then_recovery() {
        let mut l = NodeLink::new();
        l.start_join(Seconds::ZERO);
        l.on_grant(1, 24.05e9, Seconds::ZERO);
        for k in 0..7 {
            assert_eq!(
                l.on_packet_sinr(false, 8, Seconds::new(0.1 * k as f64)),
                (LinkAction::None, None)
            );
        }
        assert_eq!(
            l.on_packet_sinr(false, 8, Seconds::new(1.0)),
            (LinkAction::SendJoin, None)
        );
        assert_eq!(l.state(), LinkState::Outage);
        assert!(l.is_streaming(), "outage keeps the FSK fallback on air");
        // A re-grant retunes and acks but does not end the outage — the
        // channel is still undecodable.
        let (act, rec) = l.on_grant(2, 24.06e9, Seconds::new(1.2));
        assert_eq!(act, LinkAction::AckGrant);
        assert_eq!(rec, None);
        assert_eq!(l.state(), LinkState::Outage);
        // The first decodable packet closes the episode.
        let (act, rec) = l.on_packet_sinr(true, 8, Seconds::new(1.5));
        assert_eq!(act, LinkAction::None);
        assert_eq!(rec, Some(Seconds::new(0.5)));
        assert_eq!(l.state(), LinkState::Granted);
    }

    #[test]
    fn good_packet_resets_the_window() {
        let mut l = NodeLink::new();
        l.start_join(Seconds::ZERO);
        l.on_grant(1, 24.05e9, Seconds::ZERO);
        for _ in 0..7 {
            l.on_packet_sinr(false, 8, Seconds::ZERO);
        }
        l.on_packet_sinr(true, 8, Seconds::ZERO);
        for _ in 0..7 {
            assert_eq!(
                l.on_packet_sinr(false, 8, Seconds::ZERO),
                (LinkAction::None, None)
            );
        }
        assert_eq!(l.state(), LinkState::Granted);
    }

    #[test]
    fn crash_and_rejoin() {
        let mut l = NodeLink::new();
        l.start_join(Seconds::ZERO);
        l.on_grant(4, 24.05e9, Seconds::ZERO);
        l.on_crash();
        assert_eq!(l.state(), LinkState::Idle);
        assert!(!l.is_streaming());
        assert_eq!(l.epoch_seen(), 4, "epoch watermark survives the crash");
        assert_eq!(l.start_join(Seconds::new(2.0)), LinkAction::SendJoin);
        assert_eq!(l.state(), LinkState::Rejoining);
        let (act, rec) = l.on_grant(9, 24.07e9, Seconds::new(2.2));
        assert_eq!(act, LinkAction::AckGrant);
        assert!((rec.unwrap().value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn reject_while_granted_triggers_rejoin() {
        let mut l = NodeLink::new();
        l.start_join(Seconds::ZERO);
        l.on_grant(1, 24.05e9, Seconds::ZERO);
        assert_eq!(l.on_reject(Seconds::new(1.0)), LinkAction::SendJoin);
        assert_eq!(l.state(), LinkState::Rejoining);
        // While already rejoining, further rejects do not spam joins —
        // the backoff timer owns retransmission.
        assert_eq!(l.on_reject(Seconds::new(1.1)), LinkAction::None);
    }

    #[test]
    fn stale_retry_timers_are_ignored() {
        let mut l = NodeLink::new();
        l.start_join(Seconds::ZERO);
        assert_eq!(l.retry_join(0), LinkAction::SendJoin);
        assert_eq!(l.attempt(), 1);
        // A leftover timer for attempt 0 fires late: ignored.
        assert_eq!(l.retry_join(0), LinkAction::None);
        assert_eq!(l.retry_join(1), LinkAction::SendJoin);
        // Once granted, all pending timers are stale.
        l.on_grant(1, 24.05e9, Seconds::ZERO);
        assert_eq!(l.retry_join(2), LinkAction::None);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters() {
        let b = Backoff::standard();
        assert_eq!(b.delay(0, 0.0), Seconds::from_millis(60.0));
        assert_eq!(b.delay(1, 0.0), Seconds::from_millis(120.0));
        assert_eq!(b.delay(2, 0.0), Seconds::from_millis(240.0));
        // Capped at max.
        assert_eq!(b.delay(10, 0.0), Seconds::new(1.0));
        // Huge attempt counts must not overflow the exponent.
        assert_eq!(b.delay(u32::MAX, 0.0), Seconds::new(1.0));
        // Jitter stretches by at most jitter_frac.
        let jittered = b.delay(0, 0.999);
        assert!(jittered > Seconds::from_millis(60.0));
        assert!(jittered < Seconds::from_millis(90.1));
        // Deterministic: same inputs, same delay.
        assert_eq!(b.delay(3, 0.5), b.delay(3, 0.5));
    }

    fn granted_link(serving: ApId) -> NodeLink {
        let mut l = NodeLink::new();
        l.set_serving(serving);
        l.start_join(Seconds::ZERO);
        l.on_grant(1, 24.05e9, Seconds::ZERO);
        l
    }

    #[test]
    fn handoff_happy_path_transfers_the_grant() {
        let mut l = granted_link(ApId(0));
        assert_eq!(
            l.begin_handoff(ApId(1), Seconds::new(1.0)),
            LinkAction::SendTransfer
        );
        assert_eq!(
            l.state(),
            LinkState::Handoff {
                from: ApId(0),
                to: ApId(1)
            }
        );
        assert!(l.is_streaming(), "make-before-break keeps the uplink up");
        assert_eq!(l.serving(), ApId(0), "still served by `from` mid-handoff");
        let (act, took) = l.on_transfer_grant(2, 24.08e9, ApId(1), Seconds::new(1.03));
        assert_eq!(act, LinkAction::AckGrant);
        assert!((took.unwrap().value() - 0.03).abs() < 1e-12);
        assert_eq!(l.state(), LinkState::Granted);
        assert_eq!(l.serving(), ApId(1));
        assert_eq!(l.center_hz(), 24.08e9);
        assert_eq!(l.handoffs(), 1);
    }

    #[test]
    fn stale_transfer_grant_is_discarded() {
        let mut l = granted_link(ApId(0));
        l.begin_handoff(ApId(1), Seconds::new(1.0));
        // A duplicate of the original grant epoch: stale.
        let (act, _) = l.on_transfer_grant(1, 24.08e9, ApId(1), Seconds::new(1.1));
        assert_eq!(act, LinkAction::None);
        assert_eq!(l.serving(), ApId(0));
        assert_eq!(l.stale_discarded(), 1);
        // The real (fresh) grant still completes.
        let (act, _) = l.on_transfer_grant(2, 24.08e9, ApId(1), Seconds::new(1.2));
        assert_eq!(act, LinkAction::AckGrant);
        assert_eq!(l.serving(), ApId(1));
    }

    #[test]
    fn handoff_to_serving_ap_is_refused() {
        let mut l = granted_link(ApId(2));
        assert_eq!(l.begin_handoff(ApId(2), Seconds::ZERO), LinkAction::None);
        assert_eq!(l.state(), LinkState::Granted);
    }

    #[test]
    fn transfer_retries_mirror_join_retries() {
        let mut l = granted_link(ApId(0));
        l.begin_handoff(ApId(1), Seconds::ZERO);
        assert_eq!(l.retry_transfer(0), LinkAction::SendTransfer);
        assert_eq!(l.retry_transfer(0), LinkAction::None, "stale timer");
        assert_eq!(l.retry_transfer(1), LinkAction::SendTransfer);
        l.abort_handoff();
        assert_eq!(l.state(), LinkState::Granted);
        assert_eq!(l.serving(), ApId(0), "abort keeps the old AP");
        assert_eq!(l.retry_transfer(2), LinkAction::None);
        assert_eq!(l.handoffs(), 0);
    }

    #[test]
    fn late_transfer_grant_after_abort_only_moves_the_watermark() {
        let mut l = granted_link(ApId(0));
        l.begin_handoff(ApId(1), Seconds::ZERO);
        l.abort_handoff();
        let (act, took) = l.on_transfer_grant(5, 24.09e9, ApId(1), Seconds::new(2.0));
        assert_eq!(act, LinkAction::None);
        assert!(took.is_none());
        assert_eq!(l.serving(), ApId(0));
        assert_eq!(l.epoch_seen(), 5, "watermark advances so older grants die");
    }

    #[test]
    fn serving_ap_grant_aborts_the_handoff() {
        let mut l = granted_link(ApId(0));
        l.begin_handoff(ApId(1), Seconds::ZERO);
        // A re-pack grant from the serving AP supersedes the transfer.
        let (act, _) = l.on_grant(7, 24.11e9, Seconds::new(0.1));
        assert_eq!(act, LinkAction::AckGrant);
        assert_eq!(l.state(), LinkState::Granted);
        assert_eq!(l.serving(), ApId(0));
    }

    #[test]
    fn reject_mid_handoff_keeps_the_old_grant() {
        let mut l = granted_link(ApId(0));
        l.begin_handoff(ApId(1), Seconds::ZERO);
        assert_eq!(l.on_reject(Seconds::new(0.1)), LinkAction::None);
        assert_eq!(l.state(), LinkState::Granted);
        assert_eq!(l.serving(), ApId(0));
        assert!(l.is_streaming());
    }

    #[test]
    fn outage_cannot_start_a_handoff_and_handoff_cannot_outage() {
        let mut l = granted_link(ApId(0));
        for _ in 0..8 {
            l.on_packet_sinr(false, 8, Seconds::ZERO);
        }
        assert_eq!(l.state(), LinkState::Outage);
        assert_eq!(l.begin_handoff(ApId(1), Seconds::ZERO), LinkAction::None);
        // And from a fresh handoff, bad packets do not demote to Outage.
        let mut l = granted_link(ApId(0));
        l.begin_handoff(ApId(1), Seconds::ZERO);
        for _ in 0..20 {
            l.on_packet_sinr(false, 8, Seconds::ZERO);
        }
        assert!(matches!(l.state(), LinkState::Handoff { .. }));
    }

    #[test]
    fn grant_while_idle_updates_epoch_only() {
        // A re-pack grant addressed to a node that crashed in between.
        let mut l = NodeLink::new();
        l.start_join(Seconds::ZERO);
        l.on_grant(1, 24.05e9, Seconds::ZERO);
        l.on_crash();
        let (act, rec) = l.on_grant(2, 24.09e9, Seconds::new(1.0));
        assert_eq!(act, LinkAction::None);
        assert!(rec.is_none());
        assert_eq!(l.state(), LinkState::Idle);
        assert_eq!(l.epoch_seen(), 2);
        assert!(!l.is_streaming());
    }
}

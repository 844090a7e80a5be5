//! Multiplexed instrument channels: shared-channel arbitration with
//! conflict-avoiding probe schedules.
//!
//! Real cryostats expose a small number of measurement channels shared
//! by many gate pairs, so "run K tuning sessions at once" is only as
//! parallel as the channel schedule lets it be. This module models that
//! constraint as a backend wrapper, `multiplexed:<N>[+inner]`: a
//! [`ChannelPool`] arbitrates `N` probe channels over any inner backend,
//! and its [`MuxPolicy`] assigns every dwell-costing probe a *dwell
//! slot* on its session's channel so that concurrent sessions never
//! collide.
//!
//! The probe model splits Algorithm 1's `getCurrent` into two phases:
//! programming the gates and settling/integrating (per gate pair — this
//! is where a throttled inner backend's real sleep lands, and it
//! overlaps freely across sessions), and the channel's dwell slot (the
//! shared resource the schedule hands out). Slots are *counted*, never
//! slept, like the session's dwell: each channel keeps a count of busy
//! slots, deterministic in the probe sequence and the session's
//! preassigned codeword, never in thread timing. Readings pass through
//! the inner source untouched, so a multiplexed run is bit-identical to
//! an unmultiplexed one — only wall clock and contention accounting
//! change.
//!
//! Every schedule is an equi-difference conflict-avoiding code (Xie &
//! Luo; Feng, Wang & Wang): within a frame of `n = w·m` slots, the
//! session with rank `r` owns the image of the arithmetic progression
//! `{0, i, 2i, …, (w−1)·i}` shifted by `i·w·r`, taken mod `n`
//! ([`MuxPolicy::codewords`]), and its `j`-th probe lands in frame
//! `j / w` at the codeword's `(j mod w)`-th slot ([`probe_slot`]). For
//! any generator `i` coprime to `n` the `m` codewords tile the frame
//! disjointly, so schedules are collision-free *by construction* for
//! every occupancy `K ≤ m`. The two policies are two such codes:
//!
//! * `policy=rr` — weight 1, generator 1: rank `r` owns slot `r` of an
//!   `m`-slot frame, slot-interleaved TDMA. The baseline; every probe
//!   of a contended channel stalls `m − 1` slots waiting for its turn.
//! * `policy=ed` — weight `w` (default 4): each codeword packs `w` slots
//!   per frame, so `w − 1` of every `w` probes land at the session's
//!   own pace (a *clean* acquire) instead of stalling between every
//!   probe the way round-robin does. On hardware that's the difference
//!   between retuning the mux every slot and amortizing it over bursts.
//!
//! Both policies are collision-free; they differ in *when* a session's
//! slots land, which the per-channel counters make measurable
//! (`clean`/`stalled` acquires, stall slots, busy fraction) without
//! ever touching the extraction bytes.
//!
//! # Example
//!
//! ```
//! use qd_csd::{Csd, VoltageGrid};
//! use qd_instrument::backend::{BackendRegistry, SourceScenario};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = BackendRegistry::standard();
//! // Two channels, up to 8 sessions each, equi-difference schedule.
//! let backend = registry.resolve("multiplexed:2,policy=ed")?;
//!
//! let grid = VoltageGrid::new(0.0, 0.0, 1.0, 32, 32)?;
//! let csd = Csd::from_fn(grid, |v1, v2| v1 + v2)?;
//! let mut session = backend.session(SourceScenario::new(csd))?;
//! assert_eq!(session.get_current(2.0, 3.0), 5.0); // readings unchanged
//! let pool = backend.channel_pool().expect("multiplexed exposes its pool");
//! assert_eq!(pool.stats().busy_slots(), 1);
//! # Ok(())
//! # }
//! ```

use crate::backend::{
    format_dwell, parse_dwell, BackendError, BoxedSource, SourceBackend, SourceScenario,
};
use crate::session::PAPER_DWELL;
use crate::source::{CurrentSource, VoltageWindow};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Most channels a `multiplexed:<N>` spec may ask for.
pub const MAX_MUX_CHANNELS: usize = 64;
/// Most concurrent sessions one channel provisions codewords for.
pub const MAX_MUX_CAPACITY: usize = 64;
/// Largest equi-difference codeword weight (slots per frame and
/// session).
pub const MAX_MUX_WEIGHT: usize = 16;
/// Finished per-session wait records the pool retains for
/// [`ChannelPool::take_session_wait`] before dropping the oldest.
const SESSION_WAIT_BACKLOG: usize = 1024;

fn invalid(message: impl Into<String>) -> BackendError {
    BackendError::InvalidSpec {
        message: message.into(),
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The scheduling policy of a [`MuxConfig`], spec-addressable as
/// `policy=rr` (default) or `policy=ed[,w=<weight>][,i=<generator>]`.
/// Both are equi-difference codes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxPolicy {
    /// Slot-interleaved TDMA: the weight-1, generator-1 code.
    RoundRobin,
    /// Equi-difference conflict-avoiding codewords.
    EquiDifference {
        /// Slots per frame and session (`w=`, default 4).
        weight: usize,
        /// Codeword generator (`i=`, default 1; must be coprime to the
        /// frame `w × capacity`).
        generator: usize,
    },
}

impl MuxPolicy {
    /// The policy's spec token (`"rr"`, `"ed"`).
    fn name(self) -> &'static str {
        match self {
            MuxPolicy::RoundRobin => "rr",
            MuxPolicy::EquiDifference { .. } => "ed",
        }
    }

    /// The schedule for `capacity` ranks: the frame length
    /// `n = w × capacity` and each rank `r`'s in-frame slots
    /// `{i·(r·w + k) mod n : k < w}`, sorted.
    ///
    /// # Errors
    ///
    /// Rejects weights outside `1..=`[`MAX_MUX_WEIGHT`] and a zero
    /// generator. Coprimality with the frame is checked where the
    /// capacity is known too ([`MuxConfig::parse`], [`ChannelPool::new`]).
    pub fn codewords(self, capacity: usize) -> Result<(u64, Vec<Vec<u64>>), BackendError> {
        let (weight, generator) = match self {
            MuxPolicy::RoundRobin => (1, 1),
            MuxPolicy::EquiDifference { weight, generator } => (weight, generator),
        };
        if weight == 0 || weight > MAX_MUX_WEIGHT {
            return Err(invalid(format!(
                "equi-difference weight {weight} outside 1..={MAX_MUX_WEIGHT}"
            )));
        }
        if generator == 0 {
            return Err(invalid("equi-difference generator must be positive"));
        }
        let (w, i) = (weight as u64, generator as u64);
        let frame = w * capacity as u64;
        let codewords = (0..capacity as u64)
            .map(|rank| {
                let mut slots: Vec<u64> = (0..w).map(|k| (i * (rank * w + k)) % frame).collect();
                // Codeword slots are consumed in time order within each frame.
                slots.sort_unstable();
                slots
            })
            .collect();
        Ok((frame, codewords))
    }
}

/// The global slot of a rank's `probe`-th dwell-costing probe: frames of
/// `frame` slots, each consuming the rank's sorted `codeword` in time
/// order.
pub fn probe_slot(frame: u64, codeword: &[u64], probe: u64) -> u64 {
    let w = codeword.len() as u64;
    (probe / w) * frame + codeword[(probe % w) as usize]
}

/// Parsed `multiplexed:` arguments (everything between the scheme and
/// an optional `+<inner>`): `<channels>[,<key>=<value>]*` with knobs
/// `cap=` (sessions per channel, default 8), `policy=rr|ed`, `w=` /
/// `i=` (equi-difference weight and generator) and `slot=` (dwell-slot
/// length; defaults to the inner backend's dwell, or the paper's 50 ms
/// when the inner imposes none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxConfig {
    /// Probe channels in the pool (`N` of `multiplexed:<N>`).
    pub channels: usize,
    /// Codewords provisioned per channel — the most concurrent
    /// sessions one channel admits.
    pub capacity: usize,
    /// The dwell-slot assignment policy.
    pub policy: MuxPolicy,
    /// Explicit dwell-slot length (`slot=`); `None` derives it from the
    /// inner backend at [`MultiplexedBackend::new`] time.
    pub slot: Option<Duration>,
}

impl MuxConfig {
    /// A pool of `channels` channels with every knob at its default.
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            capacity: 8,
            policy: MuxPolicy::RoundRobin,
            slot: None,
        }
    }

    /// Parses the spec arguments (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// [`BackendError::InvalidSpec`] on malformed or out-of-range
    /// values, [`BackendError::DuplicateOption`] when a knob appears
    /// twice.
    pub fn parse(args: &str) -> Result<Self, BackendError> {
        let args = args.trim();
        if args.is_empty() {
            return Err(invalid(
                "multiplexed needs a channel count: multiplexed:<N>[,<key>=<value>…][+<inner>]",
            ));
        }
        let mut parts = args.split(',');
        let channels_text = parts.next().unwrap_or("").trim();
        let channels: usize = channels_text.parse().map_err(|_| {
            invalid(format!(
                "multiplexed channel count {channels_text:?} must be an integer"
            ))
        })?;
        if channels == 0 || channels > MAX_MUX_CHANNELS {
            return Err(invalid(format!(
                "multiplexed channel count {channels} outside 1..={MAX_MUX_CHANNELS}"
            )));
        }

        let mut config = Self::new(channels);
        let (mut policy, mut weight, mut generator) = (None, None, None);
        let mut seen: Vec<&str> = Vec::new();
        for part in parts {
            let part = part.trim();
            let (key, value) = part.split_once('=').ok_or_else(|| {
                invalid(format!("multiplexed option {part:?} must be <key>=<value>"))
            })?;
            if seen.contains(&key) {
                return Err(BackendError::DuplicateOption {
                    scheme: "multiplexed".to_string(),
                    key: key.to_string(),
                });
            }
            seen.push(key);
            let usize_in = |name: &str, hi: usize| -> Result<usize, BackendError> {
                let v: usize = value.parse().map_err(|_| {
                    invalid(format!("multiplexed {name}={value:?} must be an integer"))
                })?;
                if v == 0 || v > hi {
                    return Err(invalid(format!("multiplexed {name}={v} outside 1..={hi}")));
                }
                Ok(v)
            };
            match key {
                "cap" => config.capacity = usize_in("cap", MAX_MUX_CAPACITY)?,
                "policy" => {
                    policy = Some(match value {
                        "rr" => MuxPolicy::RoundRobin,
                        "ed" => MuxPolicy::EquiDifference {
                            weight: 4,
                            generator: 1,
                        },
                        other => {
                            return Err(invalid(format!(
                                "unknown multiplexed policy {other:?} (known: rr, ed)"
                            )))
                        }
                    })
                }
                "w" => weight = Some(usize_in("w", MAX_MUX_WEIGHT)?),
                "i" => generator = Some(usize_in("i", MAX_MUX_WEIGHT * MAX_MUX_CAPACITY)?),
                "slot" => config.slot = Some(parse_dwell(value)?),
                other => {
                    return Err(invalid(format!(
                        "unknown multiplexed option {other:?} \
                         (known: cap, policy, w, i, slot)"
                    )))
                }
            }
        }

        config.policy = match policy.unwrap_or(MuxPolicy::RoundRobin) {
            MuxPolicy::RoundRobin => {
                if weight.is_some() || generator.is_some() {
                    return Err(invalid(
                        "multiplexed w=/i= only apply to policy=ed (round-robin \
                         has no codeword shape)",
                    ));
                }
                MuxPolicy::RoundRobin
            }
            MuxPolicy::EquiDifference {
                weight: dw,
                generator: dg,
            } => {
                let (w, i) = (weight.unwrap_or(dw), generator.unwrap_or(dg));
                let frame = (w * config.capacity) as u64;
                if gcd(i as u64, frame) != 1 {
                    return Err(invalid(format!(
                        "equi-difference generator i={i} shares a factor with the \
                         frame {frame} (= w×cap); codewords would collide"
                    )));
                }
                MuxPolicy::EquiDifference {
                    weight: w,
                    generator: i,
                }
            }
        };
        if config.slot == Some(Duration::ZERO) {
            return Err(invalid("multiplexed slot=0 is not a dwell slot"));
        }
        Ok(config)
    }

    /// The canonical argument string — only non-default knobs, in fixed
    /// order; `parse(canonical_args())` reproduces the config exactly
    /// (the [`SourceBackend::describe`] contract).
    pub fn canonical_args(&self) -> String {
        let mut out = self.channels.to_string();
        if self.capacity != 8 {
            out.push_str(&format!(",cap={}", self.capacity));
        }
        if let MuxPolicy::EquiDifference { weight, generator } = self.policy {
            out.push_str(",policy=ed");
            if weight != 4 {
                out.push_str(&format!(",w={weight}"));
            }
            if generator != 1 {
                out.push_str(&format!(",i={generator}"));
            }
        }
        if let Some(slot) = self.slot {
            out.push_str(&format!(",slot={}", format_dwell(slot)));
        }
        out
    }
}

/// A session's seat in the pool: which channel it probes through and
/// which preassigned codeword (rank) it schedules with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seat {
    chan: usize,
    rank: usize,
}

/// Per-channel contention accounting, all in dwell slots.
#[derive(Debug, Default)]
struct ChannelState {
    live: Vec<bool>,
    sessions: u64,
    busy_slots: u64,
    makespan_slots: u64,
    wait_slots: u64,
    clean: u64,
    stalled: u64,
}

#[derive(Debug)]
struct PoolState {
    channels: Vec<ChannelState>,
    finished: Vec<SessionWait>,
}

/// Immutable pool shape, shared lock-free by every session.
#[derive(Debug)]
struct PoolMeta {
    slot: Duration,
    policy: &'static str,
    capacity: usize,
    frame: u64,
    /// `codewords[rank]` — the rank's in-frame slots, sorted.
    codewords: Vec<Vec<u64>>,
}

/// `N` probe channels shared by up to `N × capacity` concurrent
/// sessions, with collision-free dwell-slot schedules and virtual-time
/// contention accounting (busy, stall and horizon slots per channel).
///
/// Cloning is cheap and shares the pool; [`MultiplexedBackend`] hands
/// every opened source a clone, which is how `K` batch jobs end up
/// contending for one pool instead of opening private instruments.
#[derive(Debug, Clone)]
pub struct ChannelPool {
    meta: Arc<PoolMeta>,
    state: Arc<Mutex<PoolState>>,
}

impl ChannelPool {
    /// Builds a pool for `config` with dwell slots of `slot`.
    ///
    /// Provisions one codeword per rank up front and checks that no two
    /// slots coincide, within a codeword or across ranks. Sorted and
    /// disjoint, every codeword is strictly increasing. The parser only
    /// admits generators coprime to the frame, but `MuxConfig`'s fields
    /// are public: a config built in code fails here, at resolve time,
    /// not as silently overlapping dwell windows mid-run.
    ///
    /// # Errors
    ///
    /// [`BackendError::InvalidSpec`] on a zero slot, a shape
    /// [`MuxPolicy::codewords`] rejects, or codewords that collide.
    pub fn new(config: &MuxConfig, slot: Duration) -> Result<Self, BackendError> {
        if slot.is_zero() {
            return Err(invalid("multiplexed dwell slot must be positive"));
        }
        let policy = config.policy.name();
        let (frame, codewords) = config.policy.codewords(config.capacity)?;
        let mut used = vec![false; frame as usize];
        for (rank, codeword) in codewords.iter().enumerate() {
            for &s in codeword {
                if s >= frame || std::mem::replace(&mut used[s as usize], true) {
                    return Err(invalid(format!(
                        "policy {policy:?} codewords collide at slot {s} (rank {rank}); \
                         the schedule is not conflict-avoiding"
                    )));
                }
            }
        }
        let channels = (0..config.channels)
            .map(|_| ChannelState {
                live: vec![false; config.capacity],
                ..ChannelState::default()
            })
            .collect();
        Ok(Self {
            meta: Arc::new(PoolMeta {
                slot,
                policy,
                capacity: config.capacity,
                frame,
                codewords,
            }),
            state: Arc::new(Mutex::new(PoolState {
                channels,
                finished: Vec::new(),
            })),
        })
    }

    /// The dwell-slot length.
    pub fn slot(&self) -> Duration {
        self.meta.slot
    }

    /// The scheduling policy's name (`"rr"`, `"ed"`).
    pub fn policy(&self) -> &'static str {
        self.meta.policy
    }

    /// Channels in the pool.
    pub fn channels(&self) -> usize {
        self.state.lock().expect("mux pool poisoned").channels.len()
    }

    /// Codewords provisioned per channel.
    pub fn capacity(&self) -> usize {
        self.meta.capacity
    }

    /// Seats a new session: the channel with the fewest live sessions
    /// (lowest index on ties), lowest free rank.
    fn checkout(&self) -> Result<Seat, BackendError> {
        let mut state = self.state.lock().expect("mux pool poisoned");
        let chan = (0..state.channels.len())
            .filter(|&c| state.channels[c].live.iter().any(|l| !l))
            .min_by_key(|&c| state.channels[c].live.iter().filter(|l| **l).count())
            .ok_or_else(|| {
                invalid(format!(
                    "channel pool exhausted: {} channels × {} sessions are all live",
                    state.channels.len(),
                    self.meta.capacity
                ))
            })?;
        let channel = &mut state.channels[chan];
        let rank = channel
            .live
            .iter()
            .position(|l| !l)
            .expect("channel chosen with a free rank");
        channel.live[rank] = true;
        channel.sessions += 1;
        Ok(Seat { chan, rank })
    }

    /// Accounts one dwell-costing probe: assigns the session's next
    /// slot, folds busy/stall slots into the channel, and reports the
    /// stall back (in slots).
    fn account(&self, seat: Seat, slot_index: u64, stall: u64) {
        let mut state = self.state.lock().expect("mux pool poisoned");
        let channel = &mut state.channels[seat.chan];
        channel.busy_slots += 1;
        channel.makespan_slots = channel.makespan_slots.max(slot_index + 1);
        channel.wait_slots += stall;
        if stall == 0 {
            channel.clean += 1;
        } else {
            channel.stalled += 1;
        }
    }

    /// Frees a seat and records the session's wait summary for
    /// [`ChannelPool::take_session_wait`].
    fn release(&self, seat: Seat, summary: SessionWait) {
        let mut state = self.state.lock().expect("mux pool poisoned");
        state.channels[seat.chan].live[seat.rank] = false;
        if state.finished.len() >= SESSION_WAIT_BACKLOG {
            state.finished.remove(0);
        }
        state.finished.push(summary);
    }

    /// Removes and returns the wait summary of the finished session
    /// labelled `label` (oldest first), if any — the serve daemon turns
    /// these into `channel-wait` spans.
    pub fn take_session_wait(&self, label: &str) -> Option<SessionWait> {
        let mut state = self.state.lock().expect("mux pool poisoned");
        let at = state.finished.iter().position(|s| s.label == label)?;
        Some(state.finished.remove(at))
    }

    /// A snapshot of the pool's contention counters.
    pub fn stats(&self) -> MuxStats {
        let state = self.state.lock().expect("mux pool poisoned");
        MuxStats {
            slot: self.meta.slot,
            policy: self.meta.policy,
            capacity: self.meta.capacity,
            channels: state
                .channels
                .iter()
                .enumerate()
                .map(|(chan, c)| ChannelStats {
                    chan,
                    sessions: c.sessions,
                    busy_slots: c.busy_slots,
                    makespan_slots: c.makespan_slots,
                    wait_slots: c.wait_slots,
                    clean: c.clean,
                    stalled: c.stalled,
                })
                .collect(),
        }
    }
}

/// One channel's contention counters, all in dwell slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Channel index (the `chan` metric label).
    pub chan: usize,
    /// Sessions ever seated on this channel.
    pub sessions: u64,
    /// Dwell slots actually used (= probes served).
    pub busy_slots: u64,
    /// Highest assigned slot + 1 — the channel's schedule horizon.
    pub makespan_slots: u64,
    /// Slots sessions spent stalled between their own probes, waiting
    /// for their next scheduled slot.
    pub wait_slots: u64,
    /// Probes whose slot landed at the session's own pace.
    pub clean: u64,
    /// Probes deferred by the schedule.
    pub stalled: u64,
}

impl ChannelStats {
    /// Used slots over the schedule horizon (1.0 = perfectly packed).
    pub fn busy_fraction(&self) -> f64 {
        if self.makespan_slots == 0 {
            return 0.0;
        }
        self.busy_slots as f64 / self.makespan_slots as f64
    }
}

/// A deterministic snapshot of a [`ChannelPool`]'s virtual-time
/// accounting.
#[derive(Debug, Clone)]
pub struct MuxStats {
    /// The dwell-slot length.
    pub slot: Duration,
    /// The scheduling policy (`"rr"`, `"ed"`).
    pub policy: &'static str,
    /// Codewords provisioned per channel.
    pub capacity: usize,
    /// Per-channel counters, indexed by channel.
    pub channels: Vec<ChannelStats>,
}

impl MuxStats {
    /// Total dwell slots served across channels.
    pub fn busy_slots(&self) -> u64 {
        self.channels.iter().map(|c| c.busy_slots).sum()
    }

    /// Total stall slots across channels, as virtual time.
    pub fn wait(&self) -> Duration {
        let slots: u64 = self.channels.iter().map(|c| c.wait_slots).sum();
        self.slot
            .saturating_mul(u32::try_from(slots).unwrap_or(u32::MAX))
    }

    /// Aggregate used-over-horizon fraction across channels.
    pub fn busy_fraction(&self) -> f64 {
        let horizon: u64 = self.channels.iter().map(|c| c.makespan_slots).sum();
        if horizon == 0 {
            return 0.0;
        }
        self.busy_slots() as f64 / horizon as f64
    }
}

/// One finished session's contention summary, keyed by its scenario
/// label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionWait {
    /// The scenario label the session was opened with.
    pub label: String,
    /// Dwell-costing probes the session made.
    pub probes: u64,
    /// Slots the session stalled waiting for its scheduled turns.
    pub stall_slots: u64,
    /// Probes that stalled at least one slot.
    pub stalled: u64,
    /// The stall, as virtual time (`stall_slots × slot`).
    pub wait: Duration,
}

/// A probe source seated in a [`ChannelPool`]: passes every reading
/// through the inner source untouched while accounting the session's
/// dwell slots against its channel's schedule.
pub struct MuxSource {
    inner: BoxedSource,
    pool: ChannelPool,
    seat: Seat,
    label: String,
    probes: u64,
    last_slot: Option<u64>,
    stall_slots: u64,
    stalled: u64,
}

impl std::fmt::Debug for MuxSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxSource")
            .field("chan", &self.seat.chan)
            .field("rank", &self.seat.rank)
            .field("probes", &self.probes)
            .finish()
    }
}

impl CurrentSource for MuxSource {
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        let meta = &*self.pool.meta;
        let slot = probe_slot(meta.frame, &meta.codewords[self.seat.rank], self.probes);
        // The session could have probed one slot after its previous
        // one; anything later is a scheduling stall. Deterministic in
        // (rank, probe index) alone — thread timing never enters.
        let pace = self.last_slot.map_or(0, |s| s + 1);
        let stall = slot - pace;
        self.pool.account(self.seat, slot, stall);
        self.probes += 1;
        self.last_slot = Some(slot);
        self.stall_slots += stall;
        self.stalled += u64::from(stall > 0);
        self.inner.current(v1, v2)
    }

    fn window(&self) -> VoltageWindow {
        self.inner.window()
    }
}

impl Drop for MuxSource {
    fn drop(&mut self) {
        let wait = self
            .pool
            .slot()
            .saturating_mul(u32::try_from(self.stall_slots).unwrap_or(u32::MAX));
        self.pool.release(
            self.seat,
            SessionWait {
                label: std::mem::take(&mut self.label),
                probes: self.probes,
                stall_slots: self.stall_slots,
                stalled: self.stalled,
                wait,
            },
        );
    }
}

/// `multiplexed:<N>[,<key>=<value>]*[+<inner>]` — any inner backend
/// behind a shared [`ChannelPool`], so concurrent sessions contend for
/// `N` probe channels instead of each opening a private instrument.
#[derive(Debug)]
pub struct MultiplexedBackend {
    config: MuxConfig,
    inner: Arc<dyn SourceBackend>,
    pool: ChannelPool,
}

impl MultiplexedBackend {
    /// Multiplexes `inner` behind a pool shaped by `config`. The
    /// dwell-slot length is `config.slot`, the inner backend's dwell,
    /// or the paper's 50 ms, in that order of preference.
    ///
    /// # Errors
    ///
    /// Whatever [`ChannelPool::new`] rejects.
    pub fn new(config: MuxConfig, inner: Arc<dyn SourceBackend>) -> Result<Self, BackendError> {
        let slot = config.slot.unwrap_or_else(|| {
            if inner.dwell().is_zero() {
                PAPER_DWELL
            } else {
                inner.dwell()
            }
        });
        let pool = ChannelPool::new(&config, slot)?;
        Ok(Self {
            config,
            inner,
            pool,
        })
    }

    /// The shared pool — also reachable object-safely through
    /// [`SourceBackend::channel_pool`].
    pub fn pool(&self) -> &ChannelPool {
        &self.pool
    }
}

impl SourceBackend for MultiplexedBackend {
    fn scheme(&self) -> &str {
        "multiplexed"
    }

    fn describe(&self) -> String {
        let inner = self.inner.describe();
        if inner == "sim" {
            format!("multiplexed:{}", self.config.canonical_args())
        } else {
            format!("multiplexed:{}+{inner}", self.config.canonical_args())
        }
    }

    fn dwell(&self) -> Duration {
        self.inner.dwell()
    }

    fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
        let label = scenario.label.clone();
        let inner = self.inner.open(scenario)?;
        let seat = self.pool.checkout()?;
        Ok(Box::new(MuxSource {
            inner,
            pool: self.pool.clone(),
            seat,
            label,
            probes: 0,
            last_slot: None,
            stall_slots: 0,
            stalled: 0,
        }))
    }

    fn channel_pool(&self) -> Option<&ChannelPool> {
        Some(&self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendRegistry, SimBackend};
    use qd_csd::{Csd, VoltageGrid};

    fn scenario(label: &str) -> SourceScenario {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 16, 16).unwrap();
        let csd = Csd::from_fn(grid, |v1, v2| 100.0 * v1 + v2).unwrap();
        SourceScenario::new(csd).with_label(label)
    }

    #[test]
    fn specs_parse_and_round_trip_canonically() {
        let registry = BackendRegistry::standard();
        for spec in [
            "multiplexed:1",
            "multiplexed:2",
            "multiplexed:2,cap=4",
            "multiplexed:2,policy=ed",
            "multiplexed:2,policy=ed,w=3",
            "multiplexed:2,cap=4,policy=ed,w=3,i=5",
            "multiplexed:1,slot=2ms",
            "multiplexed:2+throttled:1ms",
            "multiplexed:2,policy=ed+hwsim:nominal",
        ] {
            let backend = registry.resolve(spec).unwrap();
            assert_eq!(backend.describe(), spec, "canonical form");
            let again = registry.resolve(&backend.describe()).unwrap();
            assert_eq!(again.describe(), spec, "round trip");
        }
    }

    #[test]
    fn hostile_specs_are_rejected_at_the_door() {
        let registry = BackendRegistry::standard();
        for spec in [
            "multiplexed:",              // no channel count
            "multiplexed:0",             // zero channels
            "multiplexed:65",            // over the cap
            "multiplexed:two",           // not a number
            "multiplexed:1,cap=0",       // zero capacity
            "multiplexed:1,cap=65",      // capacity over the cap
            "multiplexed:1,policy=fifo", // unknown policy
            "multiplexed:1,w=4",         // codeword knob without ed
            "multiplexed:1,i=3",         // generator knob without ed
            "multiplexed:1,policy=ed,w=0",
            "multiplexed:1,policy=ed,i=0",
            "multiplexed:1,policy=ed,i=2", // gcd(2, 4·8) ≠ 1
            "multiplexed:1,slot=0",        // not a dwell slot
            "multiplexed:1,slot=11s",      // over the dwell cap
            "multiplexed:1,turbo=1",       // unknown knob
            "multiplexed:1+replay:",       // hostile inner surfaces too
        ] {
            assert!(registry.resolve(spec).is_err(), "{spec:?} must be rejected");
        }
    }

    #[test]
    fn duplicate_knobs_are_a_named_error() {
        let err = BackendRegistry::standard()
            .resolve("multiplexed:2,cap=4,cap=8")
            .unwrap_err();
        match err {
            BackendError::DuplicateOption { scheme, key } => {
                assert_eq!(scheme, "multiplexed");
                assert_eq!(key, "cap");
            }
            other => panic!("expected DuplicateOption, got {other}"),
        }
    }

    #[test]
    fn round_robin_interleaves_and_equi_difference_bursts() {
        let ed = |weight, generator| MuxPolicy::EquiDifference { weight, generator };
        let stream = |policy: MuxPolicy, rank: usize, capacity: usize| {
            let (frame, codewords) = policy.codewords(capacity).unwrap();
            (0..6)
                .map(|j| probe_slot(frame, &codewords[rank], j))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(MuxPolicy::RoundRobin, 1, 4), [1, 5, 9, 13, 17, 21]);
        assert_eq!(
            MuxPolicy::RoundRobin.codewords(4).unwrap(),
            ed(1, 1).codewords(4).unwrap(),
            "round-robin is the weight-1, generator-1 code"
        );
        // Rank 1 of 2: the block {4,5,6,7} of the 8-slot frame, then
        // the next frame's block — bursts, not interleaving.
        assert_eq!(stream(ed(4, 1), 1, 2), [4, 5, 6, 7, 12, 13]);
        // A non-trivial generator strides the frame but stays
        // disjoint: rank 0 and rank 1 codewords never meet.
        let (_, cw) = ed(4, 3).codewords(2).unwrap();
        assert!(cw[0].iter().all(|s| !cw[1].contains(s)), "{cw:?}");
        // Shapes no code admits are rejected, whether the config was
        // parsed or built in code.
        for policy in [ed(0, 1), ed(MAX_MUX_WEIGHT + 1, 1), ed(4, 0)] {
            assert!(policy.codewords(2).is_err(), "{policy:?}");
        }
        // Frame 32: i=2 collides across ranks, i=16 within rank 0.
        for policy in [ed(4, 2), ed(4, 16)] {
            let config = MuxConfig {
                policy,
                ..MuxConfig::new(1)
            };
            let err = ChannelPool::new(&config, PAPER_DWELL).unwrap_err();
            assert!(err.to_string().contains("collide"), "{err}");
        }
    }

    #[test]
    fn readings_pass_through_untouched() {
        let backend = BackendRegistry::standard()
            .resolve("multiplexed:1,cap=2")
            .unwrap();
        let mut a = backend.session(scenario("a")).unwrap();
        let mut b = backend.session(scenario("b")).unwrap();
        assert_eq!(a.get_current(2.0, 5.0), 205.0);
        assert_eq!(b.get_current(3.0, 1.0), 301.0);
        assert_eq!(a.get_current(2.0, 5.0), 205.0); // cache hit, no slot
        let stats = backend.channel_pool().unwrap().stats();
        assert_eq!(stats.busy_slots(), 2, "cache hits cost no dwell slot");
    }

    #[test]
    fn slots_are_counted_never_slept() {
        assert_eq!(PAPER_DWELL, Duration::from_millis(50));
        // 10 s is the dwell cap: slept, these 100 slots would take 1000 s.
        let backend = BackendRegistry::standard()
            .resolve("multiplexed:1,cap=1,slot=10s")
            .unwrap();
        let mut session = backend.session(scenario("a")).unwrap();
        let start = std::time::Instant::now();
        for k in 0..100 {
            let _ = session.get_current((k % 16) as f64, (k / 16) as f64);
        }
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(session.simulated_dwell(), Duration::from_secs(5));
        let stats = backend.channel_pool().unwrap().stats();
        assert_eq!(stats.busy_slots(), 100);
        assert_eq!(stats.wait(), Duration::ZERO);
    }

    #[test]
    fn contention_accounting_is_deterministic_in_rank_and_probe() {
        let pool = ChannelPool::new(&MuxConfig::new(1), Duration::from_millis(1)).unwrap();
        let backend = MultiplexedBackend::new(
            MuxConfig {
                capacity: 2,
                ..MuxConfig::new(1)
            },
            Arc::new(SimBackend),
        )
        .unwrap();
        drop(pool);
        let mut a = backend.open(scenario("a")).unwrap();
        let mut b = backend.open(scenario("b")).unwrap();
        for k in 0..4 {
            let _ = a.current(k as f64, 0.0);
            let _ = b.current(k as f64, 1.0);
        }
        drop(a);
        drop(b);
        // Rank 0 (TDMA, m=2): slots 0,2,4,6 → stalls 0,1,1,1 = 3.
        let a = backend.pool().take_session_wait("a").unwrap();
        assert_eq!(a.probes, 4);
        assert_eq!(a.stall_slots, 3);
        assert_eq!(a.stalled, 3);
        // Rank 1: slots 1,3,5,7 → stalls 1,1,1,1 = 4.
        let b = backend.pool().take_session_wait("b").unwrap();
        assert_eq!(b.stall_slots, 4);
        assert_eq!(b.wait, backend.pool().slot() * 4);
        let stats = backend.pool().stats();
        assert_eq!(stats.channels[0].busy_slots, 8);
        assert_eq!(stats.channels[0].makespan_slots, 8);
        assert_eq!(stats.channels[0].wait_slots, 7);
        assert!((stats.channels[0].busy_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(backend.pool().take_session_wait("a"), None, "drained");
    }

    #[test]
    fn equi_difference_trades_stalls_for_bursts() {
        let run = |spec: &str| {
            let backend = BackendRegistry::standard().resolve(spec).unwrap();
            let mut a = backend.open(scenario("a")).unwrap();
            let mut b = backend.open(scenario("b")).unwrap();
            for k in 0..8 {
                let _ = a.current(k as f64, 0.0);
                let _ = b.current(k as f64, 1.0);
            }
            drop(a);
            drop(b);
            let stats = backend.channel_pool().unwrap().stats();
            (stats.channels[0].clean, stats.channels[0].wait_slots)
        };
        let (rr_clean, rr_wait) = run("multiplexed:1,cap=2");
        let (ed_clean, ed_wait) = run("multiplexed:1,cap=2,policy=ed");
        // Round-robin stalls on (almost) every probe of a contended
        // channel; equi-difference runs w−1 of every w probes clean and
        // pays its whole wait at frame boundaries — fewer stall slots
        // in total (8 probes, m=2: 15 rr vs 12 ed) and far more clean
        // acquires.
        assert!(ed_wait <= rr_wait, "rr {rr_wait} vs ed {ed_wait}");
        assert!(rr_clean < ed_clean, "rr {rr_clean} vs ed {ed_clean}");
    }

    #[test]
    fn pool_exhaustion_is_a_clean_error() {
        let backend = BackendRegistry::standard()
            .resolve("multiplexed:1,cap=2")
            .unwrap();
        let _a = backend.open(scenario("a")).unwrap();
        let _b = backend.open(scenario("b")).unwrap();
        let err = backend.open(scenario("c")).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        drop(_a);
        let _c = backend.open(scenario("c")).expect("seat freed on drop");
    }

    #[test]
    fn sessions_spread_across_channels_before_contending() {
        let backend = BackendRegistry::standard()
            .resolve("multiplexed:2")
            .unwrap();
        let mut a = backend.open(scenario("a")).unwrap();
        let mut b = backend.open(scenario("b")).unwrap();
        let _ = a.current(0.0, 0.0);
        let _ = b.current(1.0, 1.0);
        let stats = backend.channel_pool().unwrap().stats();
        assert_eq!(stats.channels[0].sessions, 1);
        assert_eq!(stats.channels[1].sessions, 1);
    }

    #[test]
    fn slot_length_derives_from_the_inner_dwell() {
        let registry = BackendRegistry::standard();
        let sim = registry.resolve("multiplexed:1").unwrap();
        assert_eq!(sim.channel_pool().unwrap().slot(), PAPER_DWELL);
        let throttled = registry.resolve("multiplexed:1+throttled:2ms").unwrap();
        assert_eq!(
            throttled.channel_pool().unwrap().slot(),
            Duration::from_millis(2)
        );
        let pinned = registry
            .resolve("multiplexed:1,slot=1ms+throttled:2ms")
            .unwrap();
        assert_eq!(
            pinned.channel_pool().unwrap().slot(),
            Duration::from_millis(1)
        );
    }
}

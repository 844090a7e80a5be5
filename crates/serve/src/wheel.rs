//! A hashed timing wheel for the reactor's connection deadlines.
//!
//! The reactor arms thousands of cheap, coarse timers — keep-alive idle
//! timeouts, per-request read deadlines, `?wait` fallbacks — and cancels
//! almost all of them before they fire (every completed request cancels
//! its deadline). A binary heap would pay `O(log n)` per arm *and* need
//! tombstones for cancellation; the wheel arms in `O(1)` and cancels for
//! free via lazy invalidation: entries carry the connection's `cycle`
//! counter at arm time, and the reactor bumps the counter on every state
//! transition, so a fired entry whose cycle no longer matches is simply
//! stale and dropped.
//!
//! Lazily cancelled entries still occupy the wheel until their deadline
//! (up to a minute for a `?wait` fallback), so under load the wheel
//! would hold request rate × a minute of dead entries. The owner sweeps
//! them with [`TimerWheel::retain`] whenever [`TimerWheel::needs_sweep`]
//! says the wheel has doubled since the last sweep: amortized `O(1)` per
//! arm, and the wheel stays within twice its live set (or a small floor).
//!
//! Timers are coarse by design (one tick of slack, default 25 ms): these
//! are liveness deadlines measured in seconds, not schedulers.

use std::time::{Duration, Instant};

/// Smallest entry count that prompts a sweep.
const SWEEP_FLOOR: usize = 64;

/// One armed timer: fire for `token` if its `cycle` still matches.
#[derive(Debug, Clone, Copy)]
struct Entry {
    deadline: Instant,
    token: u64,
    cycle: u64,
}

/// A fired timer, handed back to the reactor for validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    /// The registration token the timer was armed for.
    pub token: u64,
    /// The owner's cycle counter at arm time; stale if it moved on.
    pub cycle: u64,
}

/// The wheel: a ring of slots, each one tick wide. Deadlines beyond the
/// horizon (`slots × tick`) park in the last reachable slot and re-queue
/// when the cursor passes them.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    tick: Duration,
    cursor: usize,
    /// Wall-clock start of the cursor slot.
    cursor_time: Instant,
    len: usize,
    /// Entry count at which [`TimerWheel::needs_sweep`] turns true.
    sweep_at: usize,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, each `tick` wide.
    pub fn new(tick: Duration, slots: usize) -> Self {
        assert!(tick > Duration::ZERO, "tick must be positive");
        assert!(slots >= 2, "wheel needs at least two slots");
        Self {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            cursor: 0,
            cursor_time: Instant::now(),
            len: 0,
            sweep_at: SWEEP_FLOOR,
        }
    }

    /// Number of armed (possibly stale) entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are armed.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer for `(token, cycle)` at `deadline`.
    pub fn schedule(&mut self, deadline: Instant, token: u64, cycle: u64) {
        if self.len == 0 {
            // Re-anchor an empty wheel so cursor time doesn't lag: a wheel
            // that sat idle for an hour must not spin through stale slots.
            self.cursor_time = Instant::now();
        }
        let slot = self.slot_for(deadline);
        self.slots[slot].push(Entry {
            deadline,
            token,
            cycle,
        });
        self.len += 1;
    }

    /// Whether the wheel has doubled (or reached the floor) since the
    /// last [`TimerWheel::retain`], so a sweep is worth its `O(len)`.
    pub fn needs_sweep(&self) -> bool {
        self.len >= self.sweep_at
    }

    /// Keeps only the entries for which `keep(token, cycle)` holds — the
    /// owner drops timers whose connection is gone or has moved on.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, u64) -> bool) {
        for slot in &mut self.slots {
            slot.retain(|entry| keep(entry.token, entry.cycle));
        }
        self.len = self.slots.iter().map(Vec::len).sum();
        self.sweep_at = (2 * self.len).max(SWEEP_FLOOR);
    }

    fn slot_for(&self, deadline: Instant) -> usize {
        let ticks = if deadline <= self.cursor_time {
            // Already due: next expire sweep picks it up in the cursor slot.
            0
        } else {
            let remaining = deadline.duration_since(self.cursor_time);
            // Integer division truncates toward "fires early"; `expire`
            // re-queues entries whose wall deadline hasn't passed, so
            // truncation costs a re-queue, never a premature fire.
            (remaining.as_nanos() / self.tick.as_nanos()) as usize
        };
        (self.cursor + ticks.min(self.slots.len() - 1)) % self.slots.len()
    }

    /// How long the reactor may sleep before the next sweep is needed.
    /// `None` means "no timers armed — sleep until a socket or waker
    /// event".
    pub fn poll_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        let next_slot_end = self.cursor_time + self.tick;
        Some(next_slot_end.saturating_duration_since(now).min(self.tick))
    }

    /// Advances the cursor to `now`, appending every due timer to `out`.
    /// Entries beyond their slot but short of their wall deadline (the
    /// beyond-horizon case) are re-queued instead of fired.
    pub fn expire(&mut self, now: Instant, out: &mut Vec<Fired>) {
        let mut requeue: Vec<Entry> = Vec::new();
        while self.cursor_time + self.tick <= now {
            let slot = self.cursor;
            let entries = std::mem::take(&mut self.slots[slot]);
            self.len -= entries.len();
            for entry in entries {
                if entry.deadline <= now {
                    out.push(Fired {
                        token: entry.token,
                        cycle: entry.cycle,
                    });
                } else {
                    requeue.push(entry);
                }
            }
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.cursor_time += self.tick;
        }
        for entry in requeue {
            self.schedule(entry.deadline, entry.token, entry.cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel, now: Instant) -> Vec<Fired> {
        let mut fired = Vec::new();
        wheel.expire(now, &mut fired);
        fired
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 64);
        let now = Instant::now();
        wheel.schedule(now + Duration::from_millis(35), 1, 0);

        assert!(drain(&mut wheel, now + Duration::from_millis(20)).is_empty());
        let fired = drain(&mut wheel, now + Duration::from_millis(60));
        assert_eq!(fired, vec![Fired { token: 1, cycle: 0 }]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn beyond_horizon_deadlines_requeue_until_due() {
        // Horizon is 8 × 5ms = 40ms; the deadline sits far past it.
        let mut wheel = TimerWheel::new(Duration::from_millis(5), 8);
        let now = Instant::now();
        wheel.schedule(now + Duration::from_millis(200), 9, 3);

        assert!(drain(&mut wheel, now + Duration::from_millis(100)).is_empty());
        assert_eq!(wheel.len(), 1, "entry re-queued, not dropped");
        let fired = drain(&mut wheel, now + Duration::from_millis(250));
        assert_eq!(fired, vec![Fired { token: 9, cycle: 3 }]);
    }

    #[test]
    fn many_timers_fire_in_any_order_but_completely() {
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 32);
        let now = Instant::now();
        for token in 0..100u64 {
            wheel.schedule(
                now + Duration::from_millis(5 + (token % 7) * 40),
                token,
                token,
            );
        }
        let mut fired = drain(&mut wheel, now + Duration::from_secs(1));
        fired.sort_by_key(|f| f.token);
        assert_eq!(fired.len(), 100);
        for (i, f) in fired.iter().enumerate() {
            assert_eq!(f.token, i as u64);
            assert_eq!(f.cycle, i as u64);
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.poll_timeout(now), None);
    }

    #[test]
    fn already_due_deadline_fires_on_next_sweep() {
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 16);
        let now = Instant::now();
        wheel.schedule(now - Duration::from_secs(1), 4, 1);
        let fired = drain(&mut wheel, now + Duration::from_millis(20));
        assert_eq!(fired, vec![Fired { token: 4, cycle: 1 }]);
    }

    #[test]
    fn sweeps_keep_a_churning_wheel_bounded_and_live_timers_firing() {
        // Token 1 holds one live 100-ms timer throughout. Token 0 arms a
        // one-minute timer 100k times, moving to a new cycle after each
        // arm, under the owner's rule: sweep whenever the wheel asks,
        // keeping entries whose cycle is their token's current one.
        let mut wheel = TimerWheel::new(Duration::from_millis(25), 1024);
        let now = Instant::now();
        let mut cycles = [0u64, 5];
        wheel.schedule(now + Duration::from_millis(100), 1, cycles[1]);
        let mut peak = 0;
        for _ in 0..100_000 {
            wheel.schedule(now + Duration::from_secs(60), 0, cycles[0]);
            cycles[0] += 1;
            if wheel.needs_sweep() {
                wheel.retain(|token, cycle| cycles[token as usize] == cycle);
            }
            peak = peak.max(wheel.len());
        }
        assert!(peak <= SWEEP_FLOOR, "peak {peak} entries");
        assert!(drain(&mut wheel, now + Duration::from_millis(50)).is_empty());
        let fired = drain(&mut wheel, now + Duration::from_millis(150));
        assert_eq!(fired, vec![Fired { token: 1, cycle: 5 }]);
    }

    #[test]
    fn poll_timeout_bounded_by_tick() {
        let mut wheel = TimerWheel::new(Duration::from_millis(25), 16);
        let now = Instant::now();
        assert_eq!(wheel.poll_timeout(now), None);
        wheel.schedule(now + Duration::from_secs(5), 1, 0);
        let timeout = wheel.poll_timeout(now).expect("armed wheel has timeout");
        assert!(timeout <= Duration::from_millis(25));
    }
}

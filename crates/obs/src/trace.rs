//! The structured trace: a bounded ring buffer of fixed-shape events
//! serialized as JSONL.
//!
//! Events carry only `Copy` payloads (`f64` time, `&'static str` names,
//! an `i64` node index), so recording one never allocates beyond the
//! ring buffer's pre-grown storage, and two identically seeded runs
//! produce byte-identical serializations — floats print as their
//! shortest round-trip digits (Rust's `Display`), a pure function of the
//! bit pattern.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// One trace event.
///
/// The field meaning depends on `kind` (the conventions the mmX stack
/// uses are documented on the wiring sites):
///
/// | kind | `a` | `b` | `v` |
/// |---|---|---|---|
/// | `fsm` | from-state | to-state | 0 |
/// | `ctl` | message (`join`/`grant`/…) | fate (`sent`/`lost`/`dup`) | epoch or 0 |
/// | `retry` | `join` | — | attempt |
/// | `fault` | `crash`/`depart`/`ap_restart` | — | 0 |
/// | `lease` | `expired` | — | 0 |
/// | `recover` | `join`/`outage`/`rejoin` | — | duration (s) |
/// | `span` | span name | `begin`/`end` | 0 |
/// | `run` | `begin`/`end` | — | node count / 0 |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation-domain timestamp, seconds.
    pub t: f64,
    /// Event kind (static tag).
    pub kind: &'static str,
    /// Node index the event concerns (`-1` = network-wide).
    pub node: i64,
    /// First payload tag (see table).
    pub a: &'static str,
    /// Second payload tag (see table).
    pub b: &'static str,
    /// Numeric payload (epoch, attempt, duration, …).
    pub v: f64,
}

impl TraceEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }

    /// Appends the JSON form to `out` (no trailing newline). Static
    /// tags never need escaping by construction.
    pub fn write_json(&self, out: &mut String) {
        out.push_str(r#"{"t":"#);
        push_f64(out, self.t);
        self.write_fields(out);
    }

    /// Everything after the timestamp.
    fn write_fields(&self, out: &mut String) {
        out.push_str(r#","kind":""#);
        out.push_str(self.kind);
        out.push_str(r#"","node":"#);
        push_i64(out, self.node);
        out.push_str(r#","a":""#);
        out.push_str(self.a);
        out.push_str(r#"","b":""#);
        out.push_str(self.b);
        out.push_str(r#"","v":"#);
        push_f64(out, self.v);
        out.push('}');
    }
}

/// Appends `n` in decimal.
fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_decimal(out, n.unsigned_abs(), 0);
}

/// Appends the decimal digits of `n`, with a decimal point before the
/// last `point` of them when `point` > 0 (zero-padded so that a digit
/// leads the point).
fn push_decimal(out: &mut String, mut n: u64, point: usize) {
    let mut buf = [0u8; 44];
    let end = buf.len();
    let mut at = end;
    loop {
        if point > 0 && at == end - point {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 && at < end - point {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Appends `v` exactly as its `Display` form: the fewest significant
/// digits that parse back to `v`, written positionally. Integral values
/// below 2^53 — most payloads — are their own shortest digits, and most
/// timestamps take the exact search of [`shortest_fraction`]; anything
/// else goes through the float formatter.
fn push_f64(out: &mut String, v: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.trunc() == v && v.abs() < EXACT {
        if v.is_sign_negative() && v == 0.0 {
            out.push('-'); // `Display` keeps the sign of −0
        }
        push_i64(out, v as i64);
    } else if let Some((c, k)) = shortest_fraction(v.abs()) {
        if v < 0.0 {
            out.push('-');
        }
        push_decimal(out, c, k);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// `POW10[k]` = 10^k.
const POW10: [u128; 22] = {
    let mut p = [1u128; 22];
    let mut k = 1;
    while k < p.len() {
        p[k] = p[k - 1] * 10;
        k += 1;
    }
    p
};

/// The shortest decimal `c · 10^-k` that parses back to the non-integral
/// `v` in [10^-4, 2^52), and of those the closest to `v` — the digits
/// `Display` prints — found by exact integer arithmetic over the
/// interval of reals that round to `v`. `None` outside that range, for
/// a power-of-two mantissa (whose interval is lopsided) and on a tie
/// between two closest candidates.
fn shortest_fraction(v: f64) -> Option<(u64, usize)> {
    if !(1e-4..4_503_599_627_370_496.0).contains(&v) || v.trunc() == v {
        return None;
    }
    let bits = v.to_bits();
    let fraction = bits & ((1 << 52) - 1);
    if fraction == 0 {
        return None;
    }
    // v = m · 2^-(shift - 1): the reals rounding to v are those between
    // (2m − 1) / 2^shift and (2m + 1) / 2^shift. Those two ends have
    // exactly `shift` decimals, more than any k searched below, so no
    // candidate is ever an end and whether the ends round to v (ties
    // go to even) never matters.
    let m = (fraction | 1 << 52) as u128;
    let shift = 1076 - (bits >> 52) as u32;
    let (lo, hi) = (2 * m - 1, 2 * m + 1);
    // The integers c with lo·10^k ≤ c·2^shift ≤ hi·10^k.
    let candidates = |k: usize| {
        let (l, h) = (lo * POW10[k], hi * POW10[k]);
        ((l + (1 << shift) - 1) >> shift, h >> shift)
    };
    // The interval is 2^(1 − shift) wide, so it holds a multiple of
    // 10^-k from k = ⌈(shift − 1)·log10 2⌉ on; a candidate at k digits is
    // one at k + 1 too, so step down from there to the least k.
    let mut k = ((shift as usize - 1) * 78_913 + (1 << 18) - 1) >> 18;
    if k >= POW10.len() {
        return None;
    }
    let mut range = candidates(k);
    while k > 1 {
        let fewer = candidates(k - 1);
        if fewer.0 > fewer.1 {
            break;
        }
        (k, range) = (k - 1, fewer);
    }
    let scaled = 2 * m * POW10[k];
    let half = 1u128 << (shift - 1);
    let rem = scaled & ((1 << shift) - 1);
    let c = (scaled >> shift) + u128::from(rem > half);
    (rem != half && (range.0..=range.1).contains(&c)).then_some((c as u64, k))
}

/// A bounded ring of trace events: when full, the oldest event is
/// dropped and counted, so a long run degrades to "most recent window"
/// instead of unbounded memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events (0 = record nothing).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            // Pre-grow so steady-state pushes never reallocate.
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted (or refused at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Serializes the buffer as JSONL (one event per line, trailing
    /// newline after the last).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 96);
        // Events come in runs at one instant: format each time once.
        let mut last_t = None;
        let mut t_text = String::new();
        for ev in &self.ring {
            out.push_str(r#"{"t":"#);
            if last_t == Some(ev.t.to_bits()) {
                out.push_str(&t_text);
            } else {
                let start = out.len();
                push_f64(&mut out, ev.t);
                t_text.clear();
                t_text.push_str(&out[start..]);
                last_t = Some(ev.t.to_bits());
            }
            ev.write_fields(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> TraceEvent {
        TraceEvent {
            t,
            kind: "fsm",
            node: 3,
            a: "Idle",
            b: "Joining",
            v: 0.0,
        }
    }

    #[test]
    fn json_shape_is_fixed() {
        assert_eq!(
            ev(0.25).to_json(),
            r#"{"t":0.25,"kind":"fsm","node":3,"a":"Idle","b":"Joining","v":0}"#
        );
    }

    #[test]
    fn json_matches_the_formatter_for_every_kind_of_number() {
        let numbers = [
            0.0,
            -0.0,
            1.0,
            -3.0,
            42.0,
            1e15,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_993.0,
            1e20,
            f64::MAX,
            0.25,
            -0.1,
            0.016217147260510285,
            1e-7,
            5e-324,
            f64::MIN_POSITIVE,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &t in &numbers {
            for &v in &numbers {
                for node in [0, 7, -1, i64::MIN, i64::MAX] {
                    let e = TraceEvent {
                        t,
                        kind: "ctl",
                        node,
                        a: "grant",
                        b: "",
                        v,
                    };
                    let expect = format!(
                        r#"{{"t":{},"kind":"{}","node":{},"a":"{}","b":"{}","v":{}}}"#,
                        e.t, e.kind, e.node, e.a, e.b, e.v
                    );
                    assert_eq!(e.to_json(), expect);
                }
            }
        }
    }

    #[test]
    fn numbers_match_the_formatter_on_random_values() {
        let mut x = 0x853C_49E6_748F_EA9B_u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let check = |v: f64| {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(s, format!("{v}"), "{:#x}", v.to_bits());
        };
        for _ in 0..400_000 {
            // Magnitudes log-uniform over 10^-6 … 10^17, either sign.
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
            check(sign * 10f64.powf(-6.0 + 23.0 * u));
            // Short decimals and sums of them, as a sim clock makes.
            let d = (next() % 10_000_000) as f64 / 10f64.powi((next() % 9) as i32);
            check(d);
            check(d + 0.1);
            // Neighbours of a random value, one ulp apart.
            let b = (0.001 + u).to_bits();
            check(f64::from_bits(b + 1));
            check(f64::from_bits(b - 1));
        }
        // The search covers the timestamps it exists for.
        assert_eq!(shortest_fraction(0.3), Some((3, 1)));
        assert!(shortest_fraction(0.016217147260510285).is_some());
    }

    #[test]
    fn jsonl_is_the_events_one_by_one() {
        let mut b = TraceBuffer::with_capacity(16);
        let ts = [
            0.0,
            0.0,
            -0.0,
            0.1,
            0.1,
            0.30000000000000004,
            f64::NAN,
            f64::NAN,
            2.0,
            2.0,
        ];
        for t in ts {
            b.push(ev(t));
        }
        let one_by_one: String = b.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(b.to_jsonl(), one_by_one);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut b = TraceBuffer::with_capacity(3);
        for i in 0..5 {
            b.push(ev(i as f64));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 2);
        let ts: Vec<f64> = b.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut b = TraceBuffer::with_capacity(0);
        b.push(ev(1.0));
        assert!(b.is_empty());
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.to_jsonl(), "");
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut b = TraceBuffer::with_capacity(8);
        b.push(ev(1.0));
        b.push(ev(2.0));
        let text = b.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}

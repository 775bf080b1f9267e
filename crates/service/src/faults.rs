//! Fault injection for hardening tests: named probe points that fire
//! deterministically-seeded random faults.
//!
//! The service sprinkles **probes** at the places things break in
//! production — the single-flight planning leader, the connection
//! handler, the response writer, the socket itself. A [`Faults`] value
//! decides, per probe, whether this particular arrival *fires* (panics,
//! tears a frame, drops a socket, delays a read — the call site picks
//! the failure, this module picks the moment).
//!
//! Probes are **off by default** and cost one atomic load when
//! disarmed. They are armed through the `PDM_FAULTS` environment knob
//! (read once into [`pdm_runtime::RuntimeConfig`]) or programmatically
//! via [`crate::SessionBuilder::faults`] — the latter is what the
//! integration tests use so parallel test binaries never race on global
//! state.
//!
//! Spec grammar (comma-separated):
//!
//! ```text
//! PDM_FAULTS="plan.leader:0.5,server.handler:0.1:25,wire.torn:1"
//!             └ probe ┘ └prob┘ └ probe      ┘ prob └limit┘
//! ```
//!
//! Each clause is `probe:probability[:limit]` — `probability ∈ [0,1]`
//! is the chance an arrival fires, the optional `limit` caps total
//! fires (after which the probe disarms itself). Draws come from a
//! per-probe splitmix64 stream seeded from `PDM_PROPTEST_SEED`, so a
//! pinned seed replays the exact same fault schedule.

use std::sync::atomic::{AtomicU64, Ordering};

/// Probe: the single-flight leader's planning run (fires = leader
/// panics mid-plan, exercising the tri-state flight recovery).
pub const PLAN_LEADER: &str = "plan.leader";
/// Probe: the connection handler, after a request frame is read
/// (fires = the handler panics, exercising per-connection panic
/// isolation).
pub const SERVER_HANDLER: &str = "server.handler";
/// Probe: the response writer (fires = the frame is torn — header
/// promises more bytes than are sent — and the socket closes).
pub const WIRE_TORN: &str = "wire.torn";
/// Probe: request dispatch (fires = the handler stalls briefly before
/// answering, exercising client read timeouts under load).
pub const WIRE_DELAY: &str = "wire.delay";
/// Probe: the socket after a request is read (fires = the connection
/// drops with no response at all).
pub const NET_DROP: &str = "net.drop";

/// Every probe name this build knows. Unknown names in a spec are
/// rejected so typos fail loudly instead of silently never firing.
pub const ALL_PROBES: &[&str] = &[PLAN_LEADER, SERVER_HANDLER, WIRE_TORN, WIRE_DELAY, NET_DROP];

/// One armed probe point.
#[derive(Debug)]
struct Probe {
    name: String,
    /// Fire threshold scaled to u64: an arrival fires when the next
    /// splitmix64 draw is below this.
    threshold: u64,
    /// Max fires before the probe disarms (`u64::MAX` = unlimited).
    limit: u64,
    /// Per-probe RNG state (splitmix64).
    rng: AtomicU64,
    fired: AtomicU64,
    arrivals: AtomicU64,
}

/// A set of armed fault probes, shareable across the server's worker
/// threads. `fire` is lock-free; a disarmed set answers with a single
/// atomic load of nothing at all (empty probe list).
#[derive(Debug, Default)]
pub struct Faults {
    probes: Vec<Probe>,
}

impl Faults {
    /// No probes armed — every `fire` answers `false`. This is the
    /// default for every session unless `PDM_FAULTS` is set.
    pub fn disabled() -> Faults {
        Faults::default()
    }

    /// Arm probes from the process environment:
    /// [`pdm_runtime::RuntimeConfig::global`]'s `faults` spec, seeded
    /// from its `proptest_seed`. Disabled when `PDM_FAULTS` is unset.
    /// An invalid spec panics — a fault harness that silently fails to
    /// arm would vacuously pass every hardening test.
    pub fn from_env() -> Faults {
        let config = pdm_runtime::RuntimeConfig::global();
        match &config.faults {
            None => Faults::disabled(),
            Some(spec) => Faults::parse(spec, config.proptest_seed.unwrap_or(0))
                .unwrap_or_else(|e| panic!("invalid PDM_FAULTS spec: {e}")),
        }
    }

    /// Parse a spec string (see module docs for the grammar), seeding
    /// each probe's RNG stream from `seed` and its name.
    pub fn parse(spec: &str, seed: u64) -> Result<Faults, String> {
        let mut probes = Vec::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(':');
            let name = parts.next().unwrap_or("").trim();
            if !ALL_PROBES.contains(&name) {
                return Err(format!(
                    "unknown probe {name:?} (known: {})",
                    ALL_PROBES.join(", ")
                ));
            }
            let prob: f64 = parts
                .next()
                .ok_or_else(|| format!("probe {name:?} missing probability"))?
                .trim()
                .parse()
                .map_err(|_| format!("probe {name:?}: probability is not a number"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probe {name:?}: probability {prob} not in [0,1]"));
            }
            let limit = match parts.next() {
                None => u64::MAX,
                Some(raw) => raw
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("probe {name:?}: limit is not an integer"))?,
            };
            if parts.next().is_some() {
                return Err(format!("probe {name:?}: too many fields"));
            }
            // Threshold on the full u64 range; prob==1.0 must always
            // fire, so saturate instead of wrapping to 0.
            let threshold = if prob >= 1.0 {
                u64::MAX
            } else {
                (prob * (u64::MAX as f64)) as u64
            };
            probes.push(Probe {
                name: name.to_string(),
                threshold,
                limit,
                rng: AtomicU64::new(seed ^ fnv1a(name)),
                fired: AtomicU64::new(0),
                arrivals: AtomicU64::new(0),
            });
        }
        Ok(Faults { probes })
    }

    /// Whether any probe is armed at all (used to skip per-request
    /// bookkeeping entirely on the fault-free fast path).
    pub fn armed(&self) -> bool {
        !self.probes.is_empty()
    }

    /// Consult probe `name`: returns `true` when this arrival should
    /// fault. Unarmed probes (or unknown names) never fire.
    pub fn fire(&self, name: &str) -> bool {
        let Some(p) = self.probes.iter().find(|p| p.name == name) else {
            return false;
        };
        p.arrivals.fetch_add(1, Ordering::Relaxed);
        if p.threshold == u64::MAX {
            // Always-fire fast path (still honors the limit below).
        } else {
            let draw = splitmix64(&p.rng);
            if draw >= p.threshold {
                return false;
            }
        }
        // Honor the fire limit: claim a slot atomically so concurrent
        // arrivals can't overshoot it.
        let prev = p.fired.fetch_add(1, Ordering::Relaxed);
        if prev >= p.limit {
            p.fired.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Consult probe `name` and panic (with a recognizable payload) if
    /// it fires — the injection shape for `plan.leader` and
    /// `server.handler`.
    pub fn panic_if(&self, name: &str) {
        if self.fire(name) {
            panic!("injected fault: {name}");
        }
    }

    /// Times probe `name` has fired so far.
    pub fn fired(&self, name: &str) -> u64 {
        self.probes
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.fired.load(Ordering::Relaxed))
    }

    /// Times probe `name` has been consulted (fired or not).
    pub fn arrivals(&self, name: &str) -> u64 {
        self.probes
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.arrivals.load(Ordering::Relaxed))
    }
}

/// Advance a splitmix64 stream held in an atomic (race on the state
/// word only loses draws, never duplicates the same fault decision on
/// one arrival).
fn splitmix64(state: &AtomicU64) -> u64 {
    let s = state
        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a probe name — decorrelates per-probe RNG streams that
/// share one seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let f = Faults::disabled();
        assert!(!f.armed());
        for _ in 0..100 {
            assert!(!f.fire(PLAN_LEADER));
        }
        f.panic_if(SERVER_HANDLER); // must not panic
    }

    #[test]
    fn always_fire_honors_limit() {
        let f = Faults::parse("server.handler:1:3", 7).unwrap();
        let fires = (0..10).filter(|_| f.fire(SERVER_HANDLER)).count();
        assert_eq!(fires, 3);
        assert_eq!(f.fired(SERVER_HANDLER), 3);
        assert_eq!(f.arrivals(SERVER_HANDLER), 10);
    }

    #[test]
    fn probability_zero_never_fires_and_one_always_does() {
        let f = Faults::parse("wire.torn:0,net.drop:1", 42).unwrap();
        for _ in 0..200 {
            assert!(!f.fire(WIRE_TORN));
            assert!(f.fire(NET_DROP));
        }
    }

    #[test]
    fn seeded_draws_replay() {
        let a = Faults::parse("wire.delay:0.5", 1).unwrap();
        let b = Faults::parse("wire.delay:0.5", 1).unwrap();
        let draws_a: Vec<bool> = (0..64).map(|_| a.fire(WIRE_DELAY)).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.fire(WIRE_DELAY)).collect();
        assert_eq!(draws_a, draws_b);
        // Roughly half fire (loose bound; the stream is deterministic
        // so this cannot flake).
        let fires = draws_a.iter().filter(|&&x| x).count();
        assert!((16..=48).contains(&fires), "{fires} fires of 64");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(Faults::parse("no.such.probe:1", 0).is_err());
        assert!(Faults::parse("plan.leader", 0).is_err());
        assert!(Faults::parse("plan.leader:2.0", 0).is_err());
        assert!(Faults::parse("plan.leader:0.5:x", 0).is_err());
        assert!(Faults::parse("plan.leader:0.5:1:9", 0).is_err());
        // Empty clauses are tolerated (trailing commas).
        let f = Faults::parse("plan.leader:1,", 0).unwrap();
        assert!(f.armed());
    }

    #[test]
    fn injected_panic_payload_names_the_probe() {
        let f = Faults::parse("plan.leader:1", 0).unwrap();
        let err = std::panic::catch_unwind(|| f.panic_if(PLAN_LEADER)).unwrap_err();
        assert!(rayon::panic_message(&*err).contains("injected fault: plan.leader"));
    }
}

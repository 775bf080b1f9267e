//! Process-wide runtime configuration: every `PDM_*` environment knob,
//! read **once** and cached.
//!
//! Reading the environment per run would cost thousands of
//! `std::env::var` calls per second under serving load and leave no
//! single place documenting what the process was actually configured
//! with. [`RuntimeConfig`] consolidates the knobs:
//!
//! | variable | field | default | consumer |
//! |----------|-------|---------|----------|
//! | `PDM_PROPTEST_SEED` | [`proptest_seed`](RuntimeConfig::proptest_seed) | unset | vendored proptest seed mixing (tests only) |
//! | `PDM_CLIENT_READ_TIMEOUT_MS` | [`client_read_timeout_ms`](RuntimeConfig::client_read_timeout_ms) | 10000 | `pdm-service` `ServiceClient` default read deadline (builder-overridable) |
//! | `PDM_FAULTS` | [`faults`](RuntimeConfig::faults) | unset | `pdm-service` fault-injection probe spec (`probe:prob[:limit],...`) |
//!
//! [`RuntimeConfig::global`] is the cached process-wide instance: the
//! environment is read on first use and never again, so per-request
//! paths pay an atomic load instead of env lookups. No knob tunes
//! execution: every executor splits its groups into one range per
//! block of the vendored pool ([`crate::compile::Walker::tasks`]).
//!
//! `PDM_PROPTEST_SEED` is *consumed* by the vendored proptest stand-in
//! (which cannot depend on this crate); the field here mirrors its
//! parsing rule — integer value, or an FNV-1a hash of the raw string —
//! so diagnostics can report the effective seed perturbation.

use std::sync::OnceLock;

/// Every runtime environment knob, parsed once.
///
/// Construct with [`RuntimeConfig::from_env`] (or
/// [`RuntimeConfig::from_env_values`] with injected raw strings in
/// tests), or read the process-wide cached instance via
/// [`RuntimeConfig::global`]. Invalid or non-positive values fall back
/// to the documented defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Effective proptest seed perturbation (`PDM_PROPTEST_SEED`):
    /// `None` when unset, otherwise the integer value or the FNV-1a
    /// hash of the raw string — the same rule the vendored proptest
    /// applies when mixing test-name-derived seeds.
    pub proptest_seed: Option<u64>,
    /// Default read deadline for `pdm-service`'s `ServiceClient`, in
    /// milliseconds (`PDM_CLIENT_READ_TIMEOUT_MS`, default
    /// [`DEFAULT_CLIENT_READ_TIMEOUT_MS`]) — a stalled server turns
    /// into a typed timeout error instead of a forever-blocked read.
    /// Builder-overridable per client.
    pub client_read_timeout_ms: u64,
    /// Raw fault-injection spec (`PDM_FAULTS`), consumed by
    /// `pdm-service::faults`: comma-separated `probe:probability` (or
    /// `probe:probability:limit`) entries arming named probe points —
    /// e.g. `server.handler:0.02,plan.leader:1.0:1`. `None` (the
    /// default) disables every probe; the probes' RNG streams are
    /// seeded from [`proptest_seed`](RuntimeConfig::proptest_seed) so a
    /// probabilistic CI leg replays exactly.
    pub faults: Option<String>,
}

/// Default [`RuntimeConfig::client_read_timeout_ms`].
pub const DEFAULT_CLIENT_READ_TIMEOUT_MS: u64 = 10_000;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            proptest_seed: None,
            client_read_timeout_ms: DEFAULT_CLIENT_READ_TIMEOUT_MS,
            faults: None,
        }
    }
}

impl RuntimeConfig {
    /// Parse every knob from the process environment.
    pub fn from_env() -> RuntimeConfig {
        Self::from_env_values(
            std::env::var("PDM_PROPTEST_SEED").ok().as_deref(),
            std::env::var("PDM_CLIENT_READ_TIMEOUT_MS").ok().as_deref(),
            std::env::var("PDM_FAULTS").ok().as_deref(),
        )
    }

    /// [`RuntimeConfig::from_env`] with the raw variable values
    /// injected — deterministic regardless of the ambient environment.
    pub fn from_env_values(
        raw_seed: Option<&str>,
        raw_client_timeout: Option<&str>,
        raw_faults: Option<&str>,
    ) -> RuntimeConfig {
        RuntimeConfig {
            proptest_seed: raw_seed
                .map(|v| v.trim().parse::<u64>().unwrap_or_else(|_| fnv1a(v.trim()))),
            client_read_timeout_ms: raw_client_timeout
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_CLIENT_READ_TIMEOUT_MS),
            faults: raw_faults
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty()),
        }
    }

    /// The process-wide configuration, read from the environment on
    /// first call and cached for the lifetime of the process.
    pub fn global() -> &'static RuntimeConfig {
        static GLOBAL: OnceLock<RuntimeConfig> = OnceLock::new();
        GLOBAL.get_or_init(RuntimeConfig::from_env)
    }
}

/// FNV-1a, matching both `LoopNest::structural_hash`'s constants and the
/// vendored proptest's string-seed fallback.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_schedule_defaults() {
        let c = RuntimeConfig::from_env_values(None, None, None);
        assert_eq!(c, RuntimeConfig::default());
        assert_eq!(c.proptest_seed, None);
        assert_eq!(c.client_read_timeout_ms, DEFAULT_CLIENT_READ_TIMEOUT_MS);
        assert_eq!(c.faults, None);
    }

    #[test]
    fn parses_and_falls_back_like_schedule() {
        let c = RuntimeConfig::from_env_values(Some("7"), Some("2500"), Some("server.handler:0.5"));
        assert_eq!(c.proptest_seed, Some(7));
        assert_eq!(c.client_read_timeout_ms, 2500);
        assert_eq!(c.faults.as_deref(), Some("server.handler:0.5"));

        let c = RuntimeConfig::from_env_values(None, Some("-3"), Some("   "));
        assert_eq!(c.client_read_timeout_ms, DEFAULT_CLIENT_READ_TIMEOUT_MS);
        assert_eq!(c.faults, None, "a blank spec disarms every probe");
        let c = RuntimeConfig::from_env_values(None, Some("soon"), None);
        assert_eq!(c.client_read_timeout_ms, DEFAULT_CLIENT_READ_TIMEOUT_MS);
    }

    #[test]
    fn seed_strings_hash_like_proptest() {
        // Mirrors vendor/proptest's rule: non-integer seeds hash FNV-1a.
        let c = RuntimeConfig::from_env_values(Some("tuesday"), None, None);
        assert_eq!(c.proptest_seed, Some(fnv1a("tuesday")));
        let c = RuntimeConfig::from_env_values(Some(" 42 "), None, None);
        assert_eq!(c.proptest_seed, Some(42));
    }

    #[test]
    fn global_is_stable_across_calls() {
        let a = RuntimeConfig::global();
        let b = RuntimeConfig::global();
        assert!(std::ptr::eq(a, b));
    }
}

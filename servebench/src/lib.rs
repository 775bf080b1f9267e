//! Serving benchmark for the plan server: three closed-loop traffic
//! mixes over real TCP, reference-checked `run` checksums, and a traced
//! in-process replay that times every layer a request crosses. See
//! `LEDGER.md` for what each metric measures and what it should move.

pub mod load;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

//! Reference checksums: the sequential interpreter on the concretely
//! parsed nest, independent of templates, caches and the server.

use crate::workload::Catalog;
use pdm_runtime::{run_sequential, Memory};
use std::collections::HashMap;

/// Wrapping sum over every array cell — the digest a `run` response
/// carries.
pub fn memory_checksum(memory: &Memory) -> i64 {
    memory
        .snapshot()
        .iter()
        .flat_map(|a| a.iter())
        .fold(0i64, |acc, &v| acc.wrapping_add(v))
}

/// Checksum of warm shape `shape` at `value`, memory seeded with `seed`.
pub fn checksum(catalog: &Catalog, shape: usize, value: i64, seed: u64) -> Result<i64, String> {
    let s = &catalog.shapes[shape];
    let nest = pdm_loopir::parse::parse_loop_with(&s.source, &[(s.param, value)])
        .map_err(|e| format!("reference parse of shape {shape}: {e}"))?;
    let mut memory = Memory::for_nest(&nest).map_err(|e| e.to_string())?;
    memory.init_deterministic(seed);
    run_sequential(&nest, &memory).map_err(|e| e.to_string())?;
    Ok(memory_checksum(&memory))
}

/// Reference checksums keyed by `(shape, value, seed)`.
pub struct References(HashMap<(usize, i64, u64), i64>);

impl References {
    /// Compute the reference for every key.
    pub fn compute(catalog: &Catalog, keys: &[(usize, i64, u64)]) -> Result<References, String> {
        let mut map = HashMap::with_capacity(keys.len());
        for &(shape, value, seed) in keys {
            map.insert((shape, value, seed), checksum(catalog, shape, value, seed)?);
        }
        Ok(References(map))
    }

    /// The reference of one key, if the workload can name it.
    pub fn get(&self, shape: usize, value: i64, seed: u64) -> Option<i64> {
        self.0.get(&(shape, value, seed)).copied()
    }

    /// Number of keys covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No keys?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

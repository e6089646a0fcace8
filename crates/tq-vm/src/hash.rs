//! A cheap hasher for maps keyed by one `u64`.
//!
//! The default SipHash costs a visible share of time on maps that are
//! looked up once per executed block or once per memory access: the VM's
//! code cache (keyed by block start address) and QUAD's shadow pages,
//! UnMA bitmaps and binding edges (keyed by page number or a packed
//! producer/consumer pair). One multiply, with the high half folded down
//! (instruction addresses and page numbers share their low bits), spreads
//! such keys well enough. The resulting iteration order is arbitrary, so
//! no map using it may be iterated into output without sorting.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for `u64` keys; any other key type panics.
#[derive(Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("U64Hasher hashes u64 keys only")
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by `u64` through [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

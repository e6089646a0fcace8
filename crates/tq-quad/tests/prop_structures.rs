//! Randomised tests of QUAD's substrate structures against reference
//! models: AddressSet vs `HashSet<u64>`, ShadowMemory vs `HashMap<u64,u32>`.
//!
//! Formerly proptest-based; now deterministic sweeps driven by the vendored
//! [`tq_isa::prng::Rng`] (zero external crates). `heavy-tests` multiplies
//! the iteration counts.

use std::collections::{HashMap, HashSet};
use tq_isa::prng::Rng;
use tq_quad::{AddressSet, ShadowMemory};

fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 16
    } else {
        base
    }
}

fn addr(rng: &mut Rng) -> u64 {
    match rng.index(3) {
        0 => rng.u64_in(0, 255),
        1 => rng.u64_in(4080, 4119), // page straddles
        _ => rng.u64_in(0x1000_0000, 0x1000_00FF),
    }
}

#[test]
fn address_set_matches_hashset() {
    let mut rng = Rng::new(0xADD2_E550);
    for _ in 0..cases(256) {
        let mut ours = AddressSet::new();
        let mut reference: HashSet<u64> = HashSet::new();
        for _ in 0..rng.index(200) {
            let a = addr(&mut rng);
            assert_eq!(ours.insert(a), reference.insert(a), "insert {a:#x}");
        }
        for _ in 0..rng.index(60) {
            let a = addr(&mut rng);
            let len = rng.next_u32() % 16;
            ours.insert_range(a, len);
            for x in a..a + len as u64 {
                reference.insert(x);
            }
        }
        assert_eq!(ours.len(), reference.len() as u64);
        // Membership spot checks around the hot ranges.
        for probe in (0..256).chain(4070..4130) {
            assert_eq!(ours.contains(probe), reference.contains(&probe));
        }
    }
}

#[test]
fn shadow_memory_matches_map() {
    let mut rng = Rng::new(0x5AD0_3333);
    for _ in 0..cases(256) {
        let mut shadow = ShadowMemory::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for _ in 0..1 + rng.index(100) {
            let a = addr(&mut rng);
            let len = 1 + rng.next_u32() % 15;
            let writer = 1 + rng.next_u32() % 7;
            shadow.write(a, len, writer);
            for x in a..a + len as u64 {
                reference.insert(x, writer);
            }
        }
        for probe in (0..300).chain(4060..4140).chain(0x1000_0000..0x1000_0110) {
            assert_eq!(
                shadow.writer_at(probe),
                reference.get(&probe).copied().unwrap_or(0),
                "byte {probe:#x}"
            );
        }
        // for_each_run agrees with the reference over a straddling window.
        let runs = runs_of(&shadow, 4080, 48);
        check_runs(&runs, 4080, 48, &reference);
    }
}

/// Collect `for_each_run` output as `(start, n, writer)` triples.
fn runs_of(shadow: &ShadowMemory, addr: u64, len: u32) -> Vec<(u64, u32, u32)> {
    let mut runs = Vec::new();
    shadow.for_each_run(addr, len, |start, n, w| runs.push((start, n, w)));
    runs
}

/// The runs of `[addr, addr+len)` are non-empty, contiguous, cover the
/// range exactly, carry the reference writer on every byte, and are
/// maximal: two adjacent runs share a writer only across a page edge.
fn check_runs(runs: &[(u64, u32, u32)], addr: u64, len: u32, reference: &HashMap<u64, u32>) {
    let mut next = addr;
    for (i, &(start, n, w)) in runs.iter().enumerate() {
        assert!(n > 0, "empty run at {start:#x}");
        assert_eq!(start, next, "runs not contiguous");
        for x in start..start + n as u64 {
            assert_eq!(w, reference.get(&x).copied().unwrap_or(0), "byte {x:#x}");
        }
        let page_of = |a: u64| a >> 12;
        assert_eq!(
            page_of(start),
            page_of(start + n as u64 - 1),
            "run at {start:#x} crosses a page edge"
        );
        if i > 0 {
            let (_, _, prev_w) = runs[i - 1];
            assert!(
                prev_w != w || start % 4096 == 0,
                "runs at {start:#x} not maximal: both writer {w}"
            );
        }
        next = start + n as u64;
    }
    assert_eq!(next, addr + len as u64, "runs do not cover the range");
}

#[test]
fn for_each_run_matches_map() {
    let mut rng = Rng::new(0x0F0E_AC4E);
    for _ in 0..cases(128) {
        let mut shadow = ShadowMemory::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        // Writes over three neighbouring pages with few distinct writers,
        // so overwrites leave runs of every length and equal writers meet
        // across page edges.
        for _ in 0..1 + rng.index(40) {
            let a = rng.u64_in(4096 - 64, 3 * 4096 + 64);
            let len = 1 + rng.next_u32() % 600;
            let writer = 1 + rng.next_u32() % 3;
            shadow.write(a, len, writer);
            for x in a..a + len as u64 {
                reference.insert(x, writer);
            }
        }
        for _ in 0..16 {
            let a = rng.u64_in(0, 4 * 4096);
            let len = rng.next_u32() % 9000;
            check_runs(&runs_of(&shadow, a, len), a, len, &reference);
        }
        // A read of one whole never-written page is one writer-0 run.
        assert_eq!(runs_of(&shadow, 8 * 4096, 4096), vec![(8 * 4096, 4096, 0)]);
        assert!(runs_of(&shadow, 4096, 0).is_empty());
    }
}

#[test]
fn address_set_insert_range_matches_hashset_at_word_and_page_straddles() {
    let mut rng = Rng::new(0x5EA2_0B17);
    for case in 0..cases(64) {
        let mut ours = AddressSet::new();
        let mut reference: HashSet<u64> = HashSet::new();
        for _ in 0..1 + rng.index(6) {
            // Start on, or a few bytes either side of, a word or page edge.
            let edge = if rng.chance(0.5) {
                64 * rng.u64_in(1, 200)
            } else {
                4096 * rng.u64_in(1, 4)
            };
            let a = edge + rng.u64_in(0, 16) - 8;
            let len = match rng.index(3) {
                0 => rng.next_u32() % 130,
                1 => rng.next_u32() % 4200,
                _ => rng.next_u32() % 9001,
            };
            ours.insert_range(a, len);
            for x in a..a + len as u64 {
                reference.insert(x);
            }
            assert_eq!(ours.len(), reference.len() as u64, "case {case}");
        }
        for probe in 0..6 * 4096 + 9100 {
            assert_eq!(
                ours.contains(probe),
                reference.contains(&probe),
                "case {case}: byte {probe:#x}"
            );
        }
    }
    // Zero-length ranges insert nothing, anywhere.
    let mut empty = AddressSet::new();
    empty.insert_range(4095, 0);
    assert!(empty.is_empty());
}

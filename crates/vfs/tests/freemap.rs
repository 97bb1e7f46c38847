//! `FreeMap` is a `BTreeSet<u64>`: a differential against the sorted-set
//! free lists it replaced in NOVA, PMFS and WineFS. Their allocation
//! routines — whose block-for-block results the bug analogues depend on —
//! are written over `first` / `iter` / `contains` / `insert` / `remove` /
//! `len`, so those are what must not differ. (The routines themselves are
//! checked against the old lists next to their code: the `novafs::state` and
//! `winefs::fsimpl` unit tests.)

use std::collections::BTreeSet;

use proptest::prelude::*;
use vfs::FreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    PopFirst,
    ClearBelow(u64),
    CloneAndDiverge(u64),
}

/// Block numbers reach a little past the largest `total`, so the
/// out-of-range rule is exercised.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..330).prop_map(Op::Insert),
        4 => (0u64..330).prop_map(Op::Remove),
        2 => Just(Op::PopFirst),
        1 => (0u64..330).prop_map(Op::ClearBelow),
        1 => (0u64..330).prop_map(Op::CloneAndDiverge),
    ]
}

fn assert_same(map: &FreeMap, set: &BTreeSet<u64>, total: u64) {
    assert_eq!(map.len(), set.len());
    assert_eq!(map.is_empty(), set.is_empty());
    assert_eq!(map.first(), set.first().copied());
    assert!(map.iter().eq(set.iter().copied()), "ascending iteration");
    for b in 0..total + 70 {
        assert_eq!(map.contains(b), set.contains(&b), "contains({b})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn freemap_is_a_btreeset(
        // Non-multiples of 64 included; `data_start` may exceed `total`.
        total in 0u64..320,
        data_start in 0u64..330,
        ops in proptest::collection::vec(op(), 0..80),
    ) {
        let mut map = FreeMap::full(data_start, total);
        let mut set: BTreeSet<u64> = (data_start..total).collect();
        assert_same(&map, &set, total);
        for op in ops {
            match op {
                // The one deliberate difference: a block outside the device
                // cannot be freed (the set would have taken it and later
                // handed it out). Like a double insert, it returns `false`.
                Op::Insert(b) => {
                    assert_eq!(map.insert(b), b < total && set.insert(b), "insert({b})");
                }
                Op::Remove(b) => assert_eq!(map.remove(b), set.remove(&b), "remove({b})"),
                Op::PopFirst => {
                    let b = map.first();
                    assert_eq!(b, set.pop_first());
                    assert_eq!(b.is_some_and(|b| map.remove(b)), b.is_some());
                }
                Op::ClearBelow(lo) => {
                    map.clear_below(lo);
                    set.retain(|&b| b >= lo);
                }
                Op::CloneAndDiverge(b) => {
                    // A fork's map is its own: changing the clone leaves the
                    // original as it was.
                    let mut fork = map.clone();
                    if !fork.remove(b) {
                        fork.insert(b);
                    }
                    fork.clear_below(b);
                }
            }
            assert_same(&map, &set, total);
        }
    }
}

#[test]
fn a_free_outside_the_device_is_refused_and_does_not_grow_the_map() {
    let mut map = FreeMap::full(8, 100);
    let before = map.clone();
    for b in [100, 101, 1 << 20, u64::MAX] {
        assert!(!map.insert(b), "insert({b})");
        assert!(!map.contains(b));
        assert!(!map.remove(b));
    }
    assert_eq!(map, before);
    // A block of the metadata region is inside the device: the set took it,
    // and so does the map.
    assert!(map.insert(3));
    assert_eq!(map.first(), Some(3));
}

#[test]
fn the_default_map_is_an_empty_device() {
    let mut map = FreeMap::default();
    assert!(map.is_empty());
    assert_eq!(map.first(), None);
    assert!(!map.insert(0));
    assert_eq!(map.iter().count(), 0);
}

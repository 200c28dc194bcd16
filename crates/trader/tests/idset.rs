//! `IdSet` against a `BTreeSet<OfferId>` model: random inserts and
//! removes (single ids and whole runs, so chunks cross the array/bitmap
//! threshold both ways), then union and intersection, with ascending
//! iteration, `len` and membership checked throughout. Ids are drawn
//! near 0, across the 2³² boundary, and up to `u64::MAX`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use rmodp_core::id::OfferId;
use rmodp_trader::IdSet;

/// Where generated ids cluster: low ids, a run straddling 2³² (two
/// chunks), a chunk away from the others, and the top of the id space.
const BASES: [u64; 4] = [0, (1 << 32) - 3_000, 70_000, u64::MAX - 5_999];
/// Ids are `base + offset` with `offset < SPAN`: 6,000 ids, enough to
/// push one chunk past the 4,096-id array limit.
const SPAN: u64 = 6_000;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    /// Inserts `len` consecutive ids from the first.
    InsertRun(u64, u64),
    /// Removes `len` consecutive ids from the first.
    RemoveRun(u64, u64),
}

fn arb_id() -> impl Strategy<Value = u64> {
    (0usize..BASES.len(), 0..SPAN).prop_map(|(b, off)| BASES[b] + off)
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Runs start in the first sixth of the span and are long, so a few
    // of them fill a chunk past the array limit; removal runs are
    // shorter, so chunks also fall back below it.
    let run = |max_len: u64| {
        (0usize..BASES.len(), 0..SPAN / 6, 1_000..max_len)
            .prop_map(|(b, off, len)| (BASES[b] + off, len))
    };
    proptest::collection::vec(
        prop_oneof![
            arb_id().prop_map(Op::Insert),
            arb_id().prop_map(Op::Remove),
            run(5_000).prop_map(|(first, len)| Op::InsertRun(first, len)),
            run(5_000).prop_map(|(first, len)| Op::InsertRun(first, len)),
            run(2_500).prop_map(|(first, len)| Op::RemoveRun(first, len)),
        ],
        0..24,
    )
}

/// Applies `ops` to a set and the model, checking each step.
fn build(ops: &[Op]) -> Result<(IdSet, BTreeSet<OfferId>), TestCaseError> {
    let mut set = IdSet::new();
    let mut model = BTreeSet::new();
    for op in ops {
        let ids = match *op {
            Op::Insert(id) | Op::Remove(id) => id..=id,
            Op::InsertRun(first, len) | Op::RemoveRun(first, len) => first..=first + (len - 1),
        };
        let insert = matches!(op, Op::Insert(_) | Op::InsertRun(..));
        for raw in ids {
            let id = OfferId::new(raw);
            if insert {
                prop_assert_eq!(set.insert(id), model.insert(id), "insert {}", raw);
            } else {
                prop_assert_eq!(set.remove(id), model.remove(&id), "remove {}", raw);
            }
            prop_assert!(set.contains(id) == insert);
        }
        prop_assert_eq!(set.len(), model.len());
    }
    Ok((set, model))
}

fn same(set: &IdSet, model: &BTreeSet<OfferId>) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    prop_assert!(set.iter().eq(model.iter().copied()), "iteration differs");
    // The representation is canonical: rebuilding from the members in
    // any order gives an equal set.
    let rebuilt: IdSet = model.iter().rev().copied().collect();
    prop_assert_eq!(&rebuilt, set);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn idset_matches_a_btreeset_model(
        a in arb_ops(),
        b in arb_ops(),
        c in arb_ops(),
        probes in proptest::collection::vec(arb_id(), 0..32),
    ) {
        let (sa, ma) = build(&a)?;
        let (sb, mb) = build(&b)?;
        let (sc, mc) = build(&c)?;
        same(&sa, &ma)?;
        same(&sb, &mb)?;
        for raw in probes {
            let id = OfferId::new(raw);
            prop_assert_eq!(sa.contains(id), ma.contains(&id));
        }

        let both = sa.intersection(&sb);
        let both_model: BTreeSet<OfferId> = ma.intersection(&mb).copied().collect();
        same(&both, &both_model)?;
        same(&sb.intersection(&sa), &both_model)?;

        let union = IdSet::union_all(&[&sa, &sb, &sc]);
        let union_model: BTreeSet<OfferId> = ma.iter().chain(&mb).chain(&mc).copied().collect();
        same(&union, &union_model)?;
        same(&IdSet::union_all(&[&sa]), &ma)?;
        same(&IdSet::union_all(&[]), &BTreeSet::new())?;
    }
}

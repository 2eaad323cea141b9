//! The correctness gate: every answer, sorted by `(oid, time)`, must be
//! bit-identical to a naive filter over the raw generated records.

use blot_core::prelude::*;

/// `batch` in canonical `(oid, time)` order.
pub fn canonical(mut batch: RecordBatch) -> RecordBatch {
    batch.sort_by_oid_time();
    batch
}

/// The expected answer: a linear scan over the raw records.
pub fn naive(data: &RecordBatch, range: &Cuboid) -> RecordBatch {
    canonical(data.filter_range(range))
}

/// Column-by-column bit equality (floats compared by their bits).
pub fn same_bits(a: &RecordBatch, b: &RecordBatch) -> bool {
    fn f64s(a: &[f64], b: &[f64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
    fn f32s(a: &[f32], b: &[f32]) -> bool {
        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
    a.len() == b.len()
        && a.oids == b.oids
        && a.times == b.times
        && f64s(&a.xs, &b.xs)
        && f64s(&a.ys, &b.ys)
        && f32s(&a.speeds, &b.speeds)
        && f32s(&a.headings, &b.headings)
        && a.occupied == b.occupied
        && a.passengers == b.passengers
}

/// Checks one answer against its precomputed expectation.
pub fn matches(answer: RecordBatch, expected: &RecordBatch) -> bool {
    answer.len() == expected.len() && same_bits(&canonical(answer), expected)
}

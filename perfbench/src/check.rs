//! Answer checks: a pushed-down result must equal the `raw` connector's
//! answer over the same object versions, up to float summation order.

use columnar::{RecordBatch, Scalar};

fn close(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float64(x), Scalar::Float64(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

fn rows(batch: &RecordBatch) -> Vec<Vec<Scalar>> {
    (0..batch.num_rows())
        .map(|r| batch.columns().iter().map(|c| c.scalar_at(r)).collect())
        .collect()
}

/// `Ok` when `got` holds the same column names and the same multiset of
/// rows as `want`; otherwise a description of the first difference.
pub fn same_answer(got: &RecordBatch, want: &RecordBatch) -> Result<(), String> {
    let names = |b: &RecordBatch| -> Vec<String> {
        b.schema().fields().iter().map(|f| f.name.clone()).collect()
    };
    if names(got) != names(want) {
        return Err(format!(
            "columns {:?}, expected {:?}",
            names(got),
            names(want)
        ));
    }
    if got.num_rows() != want.num_rows() {
        return Err(format!(
            "{} rows, expected {}",
            got.num_rows(),
            want.num_rows()
        ));
    }
    let mut unmatched = rows(want);
    for row in rows(got) {
        let hit = unmatched
            .iter()
            .position(|w| w.iter().zip(&row).all(|(a, b)| close(a, b)));
        match hit {
            Some(i) => {
                unmatched.swap_remove(i);
            }
            None => return Err(format!("row {row:?} is not in the reference answer")),
        }
    }
    Ok(())
}

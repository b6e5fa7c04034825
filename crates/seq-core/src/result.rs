//! Query results that stay columnar.
//!
//! The Start operator (§4.1.4) asks the plan for its next records and hands
//! them to the caller. A [`ResultSet`] keeps them the way the root produced
//! them: as its own [`RecordBatch`]es, in position order. Nothing is
//! transposed into rows unless a caller asks for rows with
//! [`ResultSet::into_rows`]; reading a result goes through [`ResultSet::iter`]
//! (borrowed [`Row`]s) or [`ResultSet::batches`] (column slices).

use std::fmt;
use std::sync::Arc;

use crate::batch::{RecordBatch, RowRef};
use crate::record::Record;
use crate::value::Value;

/// The output of a query: the root's batches in position order plus the
/// logical row count. Every batch is dense, non-empty and fully
/// materialized.
///
/// Equality and `Debug` see logical rows only, so results that differ only
/// in where their batch boundaries fall compare equal.
#[derive(Clone, Default)]
pub struct ResultSet {
    batches: Vec<RecordBatch>,
    len: usize,
}

impl ResultSet {
    /// An empty result.
    pub fn new() -> ResultSet {
        ResultSet::default()
    }

    /// Append the next batch of output. A selection is resolved with
    /// [`RecordBatch::compact`] (a no-op on a dense batch) and an empty batch
    /// is dropped. Positions must continue past the previous batch's.
    pub fn push(&mut self, mut batch: RecordBatch) {
        batch.compact();
        if batch.is_empty() {
            return;
        }
        debug_assert!(
            (0..batch.arity()).all(|c| batch.column_is_materialized(c)),
            "result batches must be fully materialized"
        );
        debug_assert!(
            self.batches.last().and_then(RecordBatch::last_pos) < batch.first_pos(),
            "result batches must arrive in position order"
        );
        self.len += batch.len();
        self.batches.push(batch);
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the result holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The result's batches, in position order.
    pub fn batches(&self) -> &[RecordBatch] {
        &self.batches
    }

    /// Iterate borrowed rows in position order.
    pub fn iter(&self) -> Rows<'_> {
        Rows { batches: &self.batches, batch: 0, row: 0, remaining: self.len }
    }

    /// Transpose the result into owned `(position, Record)` rows, for callers
    /// that need records. Each batch's rows share one row-major allocation.
    pub fn into_rows(self) -> Vec<(i64, Record)> {
        let mut out = Vec::with_capacity(self.len);
        for batch in &self.batches {
            let (n, arity) = (batch.len(), batch.arity());
            let shared: Arc<[Value]> = match batch.columns() {
                // Single column: the row-major layout equals the column.
                [col] => col.iter().cloned().collect(),
                cols => {
                    let mut flat = Vec::with_capacity(n * arity);
                    for i in 0..n {
                        flat.extend(cols.iter().map(|c| c[i].clone()));
                    }
                    flat.into()
                }
            };
            out.extend(
                batch
                    .positions()
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (p, Record::from_shared_slice(&shared, i * arity, arity))),
            );
        }
        out
    }
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &ResultSet) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<(i64, Record)>> for ResultSet {
    fn eq(&self, other: &Vec<(i64, Record)>) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(g, w)| g == w)
    }
}

impl fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = Row<'a>;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// One row of a [`ResultSet`]: its position and a borrowed view of its
/// values. Compares equal to an owned `(position, Record)` pair holding the
/// same values.
#[derive(Clone, Copy, PartialEq)]
pub struct Row<'a>(pub i64, pub RowRef<'a>);

impl PartialEq<&(i64, Record)> for Row<'_> {
    fn eq(&self, other: &&(i64, Record)) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("").field(&self.0).field(&self.1).finish()
    }
}

/// Borrowed rows of a [`ResultSet`], in position order.
#[derive(Clone)]
pub struct Rows<'a> {
    batches: &'a [RecordBatch],
    batch: usize,
    row: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    #[inline]
    fn next(&mut self) -> Option<Row<'a>> {
        let batch = self.batches.get(self.batch)?;
        let row = batch.row(self.row);
        self.row += 1;
        if self.row == batch.len() {
            self.batch += 1;
            self.row = 0;
        }
        self.remaining -= 1;
        Some(Row(row.position(), row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(rows: &[(i64, &[i64])]) -> RecordBatch {
        let arity = rows.first().map(|(_, vs)| vs.len()).unwrap_or(0);
        let mut b = RecordBatch::new(arity);
        for (p, vs) in rows {
            b.push_row(*p, vs.iter().map(|&v| Value::Int(v)).collect()).unwrap();
        }
        b
    }

    fn set_of(batches: Vec<RecordBatch>) -> ResultSet {
        let mut set = ResultSet::new();
        for b in batches {
            set.push(b);
        }
        set
    }

    fn rec(vs: &[i64]) -> Record {
        Record::new(vs.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn empty_set_has_no_rows_or_batches() {
        let set = set_of(vec![RecordBatch::new(2), batch_of(&[])]);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.batches().is_empty(), "empty batches are dropped");
        assert_eq!(set.iter().count(), 0);
        assert!(set.clone().into_rows().is_empty());
        assert_eq!(set, ResultSet::new());
        assert_eq!(format!("{set:?}"), "[]");
    }

    #[test]
    fn multi_batch_set_iterates_rows_in_position_order() {
        let set = set_of(vec![
            batch_of(&[(1, &[10, 100]), (2, &[20, 200])]),
            batch_of(&[(5, &[50, 500])]),
            batch_of(&[(7, &[70, 700]), (8, &[80, 800])]),
        ]);
        assert_eq!(set.len(), 5);
        assert_eq!(set.batches().len(), 3);
        assert_eq!(set.iter().len(), 5);
        let positions: Vec<i64> = set.iter().map(|Row(p, _)| p).collect();
        assert_eq!(positions, vec![1, 2, 5, 7, 8]);
        let row = set.iter().nth(2).unwrap();
        assert_eq!(row.1.value(1).unwrap(), &Value::Int(500));
        assert_eq!(format!("{}: {}", row.0, row.1), "5: <50, 500>");
        assert_eq!(format!("{:?}", set.iter().next().unwrap()), "(1, [Int(10), Int(100)])");
    }

    #[test]
    fn a_selection_is_compacted_on_push() {
        let mut b = batch_of(&[(1, &[10]), (2, &[20]), (3, &[30]), (4, &[40])]);
        b.select_logical(vec![1, 3]);
        let set = set_of(vec![b]);
        let batch = &set.batches()[0];
        assert!(batch.is_dense());
        assert_eq!(batch.physical_len(), 2);
        assert_eq!(batch.positions(), &[2, 4]);
        assert_eq!(batch.column(0).unwrap(), &[Value::Int(20), Value::Int(40)]);
        assert_eq!(set.len(), 2);
        // A selection that keeps nothing leaves nothing behind.
        let mut none = batch_of(&[(9, &[90])]);
        none.select_logical(Vec::new());
        assert!(set_of(vec![none]).batches().is_empty());
    }

    #[test]
    fn equality_ignores_batch_boundaries() {
        let rows: Vec<(i64, &[i64])> =
            vec![(1, &[1, 10]), (3, &[3, 30]), (4, &[4, 40]), (9, &[9, 90])];
        let whole = set_of(vec![batch_of(&rows)]);
        let singles = set_of(rows.iter().map(|r| batch_of(std::slice::from_ref(r))).collect());
        let split = set_of(vec![batch_of(&rows[..3]), batch_of(&rows[3..])]);
        assert_eq!(whole, singles);
        assert_eq!(whole, split);
        assert_eq!(format!("{whole:?}"), format!("{singles:?}"));
        let other = set_of(vec![batch_of(&[(1, &[1, 10]), (3, &[3, 31])])]);
        assert_ne!(whole, other);
        assert_ne!(split, set_of(vec![batch_of(&rows[..3])]));
    }

    #[test]
    fn rows_compare_with_owned_pairs_and_print_like_records() {
        let set = set_of(vec![batch_of(&[(4, &[7, -2])])]);
        let want = vec![(4, rec(&[7, -2]))];
        let row = set.iter().next().unwrap();
        assert!(row == &want[0]);
        assert!(row != &(5, rec(&[7, -2])));
        assert!(row != &(4, rec(&[7])));
        assert!(row != &(4, rec(&[7, -3])));
        // How a result is checked against owned rows.
        assert_eq!(set.iter().zip(&want).find(|(g, w)| g != w), None);
        assert_eq!(row.1.to_string(), want[0].1.to_string());
        assert_eq!(row.1.to_string(), "<7, -2>");
        assert_eq!(set, want);
    }

    #[test]
    fn into_rows_sees_only_selected_rows() {
        // The rows the transposition at the end of a query used to build:
        // logical rows only, every batch laid out in one row-major buffer.
        let mut b = batch_of(&[(1, &[10, 100]), (2, &[20, 200]), (3, &[30, 300])]);
        b.select_logical(vec![0, 2]);
        let mut s = batch_of(&[(5, &[50]), (6, &[60]), (7, &[70])]);
        s.select_logical(vec![1]);
        let out = set_of(vec![b]).into_rows();
        assert_eq!(out, vec![(1, rec(&[10, 100])), (3, rec(&[30, 300]))]);
        assert!(std::ptr::eq(
            out[0].1.values().as_ptr().wrapping_add(2),
            out[1].1.values().as_ptr()
        ));
        // Single-column fast path.
        assert_eq!(set_of(vec![s]).into_rows(), vec![(6, rec(&[60]))]);
        // Across batches, in order.
        let two = set_of(vec![batch_of(&[(1, &[1])]), batch_of(&[(2, &[2]), (3, &[3])])]);
        assert_eq!(two.into_rows(), vec![(1, rec(&[1])), (2, rec(&[2])), (3, rec(&[3]))]);
    }
}

//! Columnar record batches for the vectorized execution path.
//!
//! A [`RecordBatch`] holds a run of (position, record) pairs decomposed into
//! a parallel position vector and one value vector per column. Batch
//! operators in `seq-exec` move whole column vectors at a time instead of
//! walking `(i64, Record)` pairs one by one, which amortizes per-record
//! dispatch and lets statistics counters fold into one atomic add per batch.
//!
//! Positions within a batch are strictly increasing, mirroring cursor order.
//!
//! # Selection vectors
//!
//! A batch may carry an optional **selection vector** (`sel`): a strictly
//! increasing list of *physical* row indices that survived a filter. When a
//! selection is present, the logical batch is the selected subset — [`len`],
//! [`first_pos`], [`row`], [`record`], [`clamp_positions`] and friends all
//! see only the selected rows — while the backing position/column vectors
//! stay untouched (no gather copy).
//! Selection-aware consumers read through [`selection`] / [`physical_len`];
//! consumers that need dense storage call [`compact`] (a single exact-capacity
//! gather) at a costed pipeline boundary. Mutating appenders (`push_*`,
//! `extend_*`, [`parts_mut`]) require a dense batch.
//!
//! # Lazily materialized columns
//!
//! A column slot may be left **unmaterialized** (an empty vector while the
//! batch has rows): the scan layer skips decoding columns the plan never
//! reads. [`column_is_materialized`] reports the state; row materialization
//! requires every column present ([`record`] debug-asserts it, and
//! [`RowRef::value`] returns a schema error for a pruned slot).
//!
//! [`len`]: RecordBatch::len
//! [`first_pos`]: RecordBatch::first_pos
//! [`row`]: RecordBatch::row
//! [`record`]: RecordBatch::record
//! [`clamp_positions`]: RecordBatch::clamp_positions
//! [`selection`]: RecordBatch::selection
//! [`physical_len`]: RecordBatch::physical_len
//! [`compact`]: RecordBatch::compact
//! [`parts_mut`]: RecordBatch::parts_mut
//! [`column_is_materialized`]: RecordBatch::column_is_materialized

use std::fmt;

use crate::error::{Result, SeqError};
use crate::record::Record;
use crate::value::Value;

/// Default number of rows a batch operator aims to materialize at a time.
///
/// Large enough to amortize per-batch overhead (virtual dispatch, one atomic
/// stats add, vector reallocation) to well under a nanosecond per record,
/// small enough that a batch of a few columns stays in L2 cache.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// A columnar run of records: parallel position vector plus per-column value
/// vectors, with an optional selection vector marking surviving rows.
///
/// Without a selection, all columns have the same length as `positions`
/// (unless deliberately left unmaterialized — see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    positions: Vec<i64>,
    columns: Vec<Vec<Value>>,
    /// Strictly increasing physical row indices; `None` means dense
    /// (every physical row is live).
    sel: Option<Vec<u32>>,
}

impl RecordBatch {
    /// An empty batch with `arity` columns.
    pub fn new(arity: usize) -> RecordBatch {
        RecordBatch::with_capacity(arity, 0)
    }

    /// An empty batch with `arity` columns and room for `cap` rows.
    pub fn with_capacity(arity: usize, cap: usize) -> RecordBatch {
        RecordBatch {
            positions: Vec::with_capacity(cap),
            columns: (0..arity).map(|_| Vec::with_capacity(cap)).collect(),
            sel: None,
        }
    }

    /// Number of logical (selected) rows.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.positions.len(),
        }
    }

    /// True when the batch holds no logical rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical rows backing the batch (≥ [`RecordBatch::len`]).
    #[inline]
    pub fn physical_len(&self) -> usize {
        self.positions.len()
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The selection vector, if one is attached: strictly increasing
    /// physical row indices into [`RecordBatch::positions`] and the columns.
    #[inline]
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// True when no selection vector is attached (logical == physical rows).
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.sel.is_none()
    }

    /// Physical row index of logical row `i`.
    #[inline]
    fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[i] as usize,
            None => i,
        }
    }

    /// The **physical** position vector (ignores any selection). Use
    /// [`RecordBatch::position_at`] or [`RecordBatch::selection`] for the
    /// logical view.
    #[inline]
    pub fn positions(&self) -> &[i64] {
        &self.positions
    }

    /// Sequence position of logical row `i`.
    #[inline]
    pub fn position_at(&self, i: usize) -> i64 {
        self.positions[self.phys(i)]
    }

    /// The **physical** value vector of column `idx` (ignores any
    /// selection; empty when the column was pruned by the scan). Use
    /// [`RecordBatch::value_at`] for the logical view.
    #[inline]
    pub fn column(&self, idx: usize) -> Result<&[Value]> {
        self.columns
            .get(idx)
            .map(|c| c.as_slice())
            .ok_or_else(|| SeqError::Schema(format!("column index {idx} out of bounds")))
    }

    /// The value of column `col` at logical row `i`.
    #[inline]
    pub fn value_at(&self, col: usize, i: usize) -> &Value {
        &self.columns[col][self.phys(i)]
    }

    /// Logical index of the first row with position `>= lower` (`len()` when
    /// every row is below). Positions are sorted, so this is a binary search
    /// whichever view — dense or selected — the batch presents.
    pub fn lower_bound(&self, lower: i64) -> usize {
        match &self.sel {
            Some(sel) => sel.partition_point(|&i| self.positions[i as usize] < lower),
            None => self.positions.partition_point(|&p| p < lower),
        }
    }

    /// True when column `idx`'s values were decoded (false for a slot the
    /// scan pruned because no operator references it).
    #[inline]
    pub fn column_is_materialized(&self, idx: usize) -> bool {
        match self.columns.get(idx) {
            Some(c) => c.len() == self.positions.len(),
            None => false,
        }
    }

    /// All column vectors (physical layout).
    pub fn columns(&self) -> &[Vec<Value>] {
        &self.columns
    }

    /// Mutable access to the position vector and the column vectors for bulk
    /// appends (the storage layer decodes encoded page columns straight into
    /// a batch through this). Dense batches only. Callers must leave every
    /// column exactly as long as `positions` — or exactly empty, for a slot
    /// deliberately left unmaterialized; the invariant is debug-asserted by
    /// the next read accessor via [`RecordBatch::debug_check_rectangular`].
    pub fn parts_mut(&mut self) -> (&mut Vec<i64>, &mut [Vec<Value>]) {
        debug_assert!(self.sel.is_none(), "parts_mut on a selection-carrying batch");
        (&mut self.positions, &mut self.columns)
    }

    /// Debug-assert the rectangular invariant after bulk appends: every
    /// column matches the position vector's length, or is empty (pruned).
    #[inline]
    pub fn debug_check_rectangular(&self) {
        debug_assert!(
            self.columns.iter().all(|c| c.len() == self.positions.len() || c.is_empty()),
            "batch columns must match positions length (or be pruned empty)"
        );
    }

    /// Attach a selection vector of physical row indices to a dense batch.
    /// Indices must be strictly increasing and in bounds.
    pub fn set_selection(&mut self, sel: Vec<u32>) {
        debug_assert!(self.sel.is_none(), "set_selection on a selection-carrying batch");
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]), "selection must be increasing");
        debug_assert!(sel.last().is_none_or(|&i| (i as usize) < self.positions.len()));
        self.sel = Some(sel);
    }

    /// Narrow the batch to the logical rows in `keep` (strictly increasing
    /// logical indices). Composes with an existing selection without
    /// touching the physical vectors — this is how stacked filters stay
    /// zero-copy.
    pub fn select_logical(&mut self, keep: Vec<u32>) {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "selection must be increasing");
        debug_assert!(keep.last().is_none_or(|&i| (i as usize) < self.len()));
        self.sel = Some(match self.sel.take() {
            Some(sel) => keep.into_iter().map(|i| sel[i as usize]).collect(),
            None => keep,
        });
    }

    /// Gather the selected rows into dense storage, dropping the selection.
    /// One exact-capacity copy per column; unmaterialized (pruned) column
    /// slots stay pruned. Returns the number of rows copied (0 when the
    /// batch was already dense — compaction is then a no-op).
    pub fn compact(&mut self) -> usize {
        let Some(sel) = self.sel.take() else { return 0 };
        let n = sel.len();
        let mut positions = Vec::with_capacity(n);
        positions.extend(sel.iter().map(|&i| self.positions[i as usize]));
        for col in &mut self.columns {
            if col.is_empty() {
                continue; // pruned slot
            }
            let mut dense = Vec::with_capacity(n);
            dense.extend(sel.iter().map(|&i| col[i as usize].clone()));
            *col = dense;
        }
        self.positions = positions;
        n
    }

    /// Position of the first logical row, if any.
    #[inline]
    pub fn first_pos(&self) -> Option<i64> {
        match &self.sel {
            Some(sel) => sel.first().map(|&i| self.positions[i as usize]),
            None => self.positions.first().copied(),
        }
    }

    /// Position of the last logical row, if any.
    #[inline]
    pub fn last_pos(&self) -> Option<i64> {
        match &self.sel {
            Some(sel) => sel.last().map(|&i| self.positions[i as usize]),
            None => self.positions.last().copied(),
        }
    }

    /// Append one row from a [`Record`]. The record's arity must match.
    pub fn push_record(&mut self, pos: i64, record: &Record) -> Result<()> {
        debug_assert!(self.sel.is_none(), "push_record on a selection-carrying batch");
        let values = record.values();
        if values.len() != self.columns.len() {
            return Err(SeqError::Schema(format!(
                "batch arity {} but record arity {}",
                self.columns.len(),
                values.len()
            )));
        }
        self.positions.push(pos);
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v.clone());
        }
        Ok(())
    }

    /// Append one row to a single-column batch without boxing the value.
    #[inline]
    pub fn push_single(&mut self, pos: i64, value: Value) -> Result<()> {
        debug_assert!(self.sel.is_none(), "push_single on a selection-carrying batch");
        if self.columns.len() != 1 {
            return Err(SeqError::Schema(format!(
                "push_single on a batch of arity {}",
                self.columns.len()
            )));
        }
        self.positions.push(pos);
        self.columns[0].push(value);
        Ok(())
    }

    /// Append a run of `(position, record)` entries, checking arity once and
    /// copying column-wise. This is the bulk-load path for the storage scan.
    pub fn extend_from_entries(&mut self, entries: &[(i64, Record)]) -> Result<()> {
        debug_assert!(self.sel.is_none(), "extend_from_entries on a selection-carrying batch");
        let arity = self.columns.len();
        if let Some((_, r)) = entries.iter().find(|(_, r)| r.arity() != arity) {
            return Err(SeqError::Schema(format!(
                "batch arity {arity} but record arity {}",
                r.arity()
            )));
        }
        self.positions.extend(entries.iter().map(|(p, _)| *p));
        match self.columns.as_mut_slice() {
            [col] => col.extend(entries.iter().map(|(_, r)| r.values()[0].clone())),
            cols => {
                for (_, r) in entries {
                    for (col, v) in cols.iter_mut().zip(r.values()) {
                        col.push(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Append one row from owned values. The arity must match.
    pub fn push_row(&mut self, pos: i64, values: Vec<Value>) -> Result<()> {
        debug_assert!(self.sel.is_none(), "push_row on a selection-carrying batch");
        if values.len() != self.columns.len() {
            return Err(SeqError::Schema(format!(
                "batch arity {} but row arity {}",
                self.columns.len(),
                values.len()
            )));
        }
        self.positions.push(pos);
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        Ok(())
    }

    /// Append the composed rows `left[lidx[k]] ∘ right[ridx[k]]` for every
    /// `k`, column-wise (the positional-join output layout: left columns
    /// first, then right columns; positions taken from the left rows). The
    /// batch's arity must equal `left.arity() + right.arity()`, the index
    /// slices must have equal lengths, and both inputs must be dense
    /// (compacted at the join boundary). Capacity is reserved exactly once
    /// up front, so the per-row pushes never reallocate mid-batch.
    pub fn extend_joined(
        &mut self,
        left: &RecordBatch,
        lidx: &[usize],
        right: &RecordBatch,
        ridx: &[usize],
    ) -> Result<()> {
        debug_assert!(self.sel.is_none(), "extend_joined on a selection-carrying batch");
        debug_assert!(left.sel.is_none() && right.sel.is_none());
        if self.columns.len() != left.arity() + right.arity() {
            return Err(SeqError::Schema(format!(
                "batch arity {} but joined arity {}",
                self.columns.len(),
                left.arity() + right.arity()
            )));
        }
        debug_assert_eq!(lidx.len(), ridx.len());
        let n = lidx.len();
        self.positions.reserve(n);
        self.positions.extend(lidx.iter().map(|&i| left.positions[i]));
        let (lcols, rcols) = self.columns.split_at_mut(left.arity());
        for (src, dst) in left.columns.iter().zip(lcols) {
            dst.reserve(n);
            dst.extend(lidx.iter().map(|&i| src[i].clone()));
        }
        for (src, dst) in right.columns.iter().zip(rcols) {
            dst.reserve(n);
            dst.extend(ridx.iter().map(|&i| src[i].clone()));
        }
        Ok(())
    }

    /// A borrowed view of logical row `idx`.
    #[inline]
    pub fn row(&self, idx: usize) -> RowRef<'_> {
        debug_assert!(idx < self.len());
        RowRef { batch: self, row: self.phys(idx) }
    }

    /// Materialize logical row `idx` as an owned `(position, Record)` pair.
    /// Every column must be materialized.
    #[inline]
    pub fn record(&self, idx: usize) -> (i64, Record) {
        let idx = self.phys(idx);
        debug_assert!(
            self.columns.iter().all(|c| idx < c.len()),
            "record() on a batch with pruned columns"
        );
        // Build the `Arc<[Value]>` backing store in one allocation; the
        // one- and two-column shapes (every base schema in the benchmarks,
        // and all aggregate outputs) get monomorphic paths.
        let values: std::sync::Arc<[Value]> = match self.columns.as_slice() {
            [c] => std::sync::Arc::from([c[idx].clone()]),
            [c0, c1] => std::sync::Arc::from([c0[idx].clone(), c1[idx].clone()]),
            cols => cols.iter().map(|c| c[idx].clone()).collect(),
        };
        (self.positions[idx], Record::from_shared(values))
    }

    /// Iterate borrowed logical rows in position order.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Keep only the rows whose index is set in `keep` (a boolean mask of
    /// the same length as the dense batch). Order is preserved.
    pub fn filter(&self, keep: &[bool]) -> RecordBatch {
        debug_assert!(self.sel.is_none(), "filter on a selection-carrying batch");
        debug_assert_eq!(keep.len(), self.len());
        let cap = keep.iter().filter(|&&k| k).count();
        let mut out = RecordBatch::with_capacity(self.arity(), cap);
        out.positions.extend(self.positions.iter().zip(keep).filter(|(_, &k)| k).map(|(&p, _)| p));
        for (src, dst) in self.columns.iter().zip(&mut out.columns) {
            dst.extend(src.iter().zip(keep).filter(|(_, &k)| k).map(|(v, _)| v.clone()));
        }
        out
    }

    /// A new dense batch holding the logical rows at `indices`, in the
    /// given order. Indices must be in bounds; the selection path passes
    /// ascending runs. Capacity is reserved exactly up front
    /// (`with_capacity(indices.len())`), so the column extends never
    /// reallocate mid-gather.
    pub fn gather(&self, indices: &[usize]) -> RecordBatch {
        let mut out = RecordBatch::with_capacity(self.arity(), indices.len());
        match &self.sel {
            None => {
                out.positions.extend(indices.iter().map(|&i| self.positions[i]));
                for (src, dst) in self.columns.iter().zip(&mut out.columns) {
                    dst.extend(indices.iter().map(|&i| src[i].clone()));
                }
            }
            Some(sel) => {
                out.positions.extend(indices.iter().map(|&i| self.positions[sel[i] as usize]));
                for (src, dst) in self.columns.iter().zip(&mut out.columns) {
                    dst.extend(indices.iter().map(|&i| src[sel[i] as usize].clone()));
                }
            }
        }
        out
    }

    /// Project onto `indices`, consuming the batch. The first use of a
    /// column moves its vector; repeats clone. Any selection is preserved
    /// (projection touches column slots, not rows).
    pub fn project(self, indices: &[usize]) -> Result<RecordBatch> {
        let mut source: Vec<Option<Vec<Value>>> = self.columns.into_iter().map(Some).collect();
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            let slot = source
                .get_mut(i)
                .ok_or_else(|| SeqError::Schema(format!("column index {i} out of bounds")))?;
            columns.push(match slot.take() {
                Some(col) => {
                    *slot = None;
                    col
                }
                // Column already moved by an earlier index: rebuild by clone.
                None => columns
                    .iter()
                    .zip(indices)
                    .find(|(_, &j)| j == i)
                    .map(|(c, _): (&Vec<Value>, _)| c.clone())
                    .expect("repeated index was materialized earlier"),
            });
        }
        Ok(RecordBatch { positions: self.positions, columns, sel: self.sel })
    }

    /// Shift every position by `delta` (wrapping like `Span::shift`).
    /// Physical positions shift, so the logical view shifts with them.
    pub fn shift_positions(&mut self, delta: i64) {
        for p in &mut self.positions {
            *p = p.saturating_add(delta);
        }
    }

    /// Drop logical rows at positions outside `[lower, upper]`, preserving
    /// order. Positions are sorted, so this truncates both ends — in place
    /// on a dense batch, and purely on the selection vector (no column
    /// traffic) when one is attached.
    pub fn clamp_positions(&mut self, lower: i64, upper: i64) {
        if let Some(sel) = &mut self.sel {
            let start = sel.partition_point(|&i| self.positions[i as usize] < lower);
            let end = sel.partition_point(|&i| self.positions[i as usize] <= upper);
            if start > 0 || end < sel.len() {
                sel.truncate(end);
                sel.drain(..start);
            }
            return;
        }
        let start = self.positions.partition_point(|&p| p < lower);
        let end = self.positions.partition_point(|&p| p <= upper);
        if start == 0 && end == self.len() {
            return;
        }
        self.positions.truncate(end);
        self.positions.drain(..start);
        for col in &mut self.columns {
            if col.is_empty() {
                continue; // pruned slot
            }
            col.truncate(end);
            col.drain(..start);
        }
    }
}

/// A borrowed view of one row of a [`RecordBatch`]. It prints like a
/// [`Record`] (`<a, b>`) and compares equal to a record with the same values.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    batch: &'a RecordBatch,
    /// Physical row index (already resolved through any selection).
    row: usize,
}

impl RowRef<'_> {
    /// The row's sequence position.
    #[inline]
    pub fn position(&self) -> i64 {
        self.batch.positions[self.row]
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.batch.arity()
    }

    /// The value in column `idx`. Errors when the column is out of bounds
    /// or was pruned by the scan (never decoded).
    #[inline]
    pub fn value(&self, idx: usize) -> Result<&Value> {
        match self.batch.columns.get(idx) {
            Some(c) => c.get(self.row).ok_or_else(|| {
                SeqError::Schema(format!("column {idx} not materialized (pruned by scan)"))
            }),
            None => Err(SeqError::Schema(format!("column index {idx} out of bounds"))),
        }
    }

    /// The row's values in column order. Every column must be materialized.
    pub fn values(&self) -> impl Iterator<Item = &Value> + '_ {
        self.batch.columns.iter().map(move |c| &c[self.row])
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.arity() == other.arity() && self.values().eq(other.values())
    }
}

impl PartialEq<Record> for RowRef<'_> {
    fn eq(&self, other: &Record) -> bool {
        self.arity() == other.arity() && self.values().eq(other.values())
    }
}

impl fmt::Display for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.values().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

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

    #[test]
    fn push_and_materialize_round_trip() {
        let b = batch_of(&[(1, &[10, 100]), (3, &[30, 300])]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.positions(), &[1, 3]);
        let (p, r) = b.record(1);
        assert_eq!(p, 3);
        assert_eq!(r.values(), &[Value::Int(30), Value::Int(300)]);
        assert_eq!(b.row(0).value(1).unwrap(), &Value::Int(100));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let mut b = RecordBatch::new(2);
        assert!(b.push_row(1, vec![Value::Int(1)]).is_err());
        assert!(b.push_record(1, &Record::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn filter_keeps_selected_rows_in_order() {
        let b = batch_of(&[(1, &[1]), (2, &[2]), (5, &[5]), (9, &[9])]);
        let f = b.filter(&[true, false, false, true]);
        assert_eq!(f.positions(), &[1, 9]);
        assert_eq!(f.column(0).unwrap(), &[Value::Int(1), Value::Int(9)]);
    }

    #[test]
    fn project_moves_and_duplicates_columns() {
        let b = batch_of(&[(1, &[10, 100]), (2, &[20, 200])]);
        let p = b.project(&[1, 1, 0]).unwrap();
        assert_eq!(p.arity(), 3);
        assert_eq!(p.column(0).unwrap(), &[Value::Int(100), Value::Int(200)]);
        assert_eq!(p.column(1).unwrap(), &[Value::Int(100), Value::Int(200)]);
        assert_eq!(p.column(2).unwrap(), &[Value::Int(10), Value::Int(20)]);
        assert!(p.clone().project(&[7]).is_err());
    }

    #[test]
    fn extend_joined_composes_columns_left_then_right() {
        let l = batch_of(&[(1, &[10]), (3, &[30]), (5, &[50])]);
        let r = batch_of(&[(3, &[300, 3000]), (5, &[500, 5000])]);
        let mut out = RecordBatch::new(3);
        out.extend_joined(&l, &[1, 2], &r, &[0, 1]).unwrap();
        assert_eq!(out.positions(), &[3, 5]);
        assert_eq!(out.column(0).unwrap(), &[Value::Int(30), Value::Int(50)]);
        assert_eq!(out.column(1).unwrap(), &[Value::Int(300), Value::Int(500)]);
        assert_eq!(out.column(2).unwrap(), &[Value::Int(3000), Value::Int(5000)]);
        let mut bad = RecordBatch::new(2);
        assert!(bad.extend_joined(&l, &[0], &r, &[0]).is_err());
    }

    #[test]
    fn clamp_truncates_both_ends() {
        let mut b = batch_of(&[(1, &[1]), (3, &[3]), (5, &[5]), (7, &[7])]);
        b.clamp_positions(2, 5);
        assert_eq!(b.positions(), &[3, 5]);
        assert_eq!(b.column(0).unwrap(), &[Value::Int(3), Value::Int(5)]);
        b.clamp_positions(10, 20);
        assert!(b.is_empty());
    }

    #[test]
    fn shift_moves_positions() {
        let mut b = batch_of(&[(1, &[1]), (4, &[4])]);
        b.shift_positions(-3);
        assert_eq!(b.positions(), &[-2, 1]);
    }

    #[test]
    fn selection_narrows_logical_view_without_copying() {
        let mut b = batch_of(&[(1, &[10]), (2, &[20]), (5, &[50]), (9, &[90])]);
        b.set_selection(vec![1, 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.physical_len(), 4);
        assert_eq!(b.first_pos(), Some(2));
        assert_eq!(b.last_pos(), Some(9));
        assert_eq!(b.position_at(1), 9);
        assert_eq!(b.value_at(0, 0), &Value::Int(20));
        let (p, r) = b.record(1);
        assert_eq!((p, r.values()[0].clone()), (9, Value::Int(90)));
        // Physical views ignore the selection by contract.
        assert_eq!(b.positions().len(), 4);
        assert_eq!(b.column(0).unwrap().len(), 4);
    }

    #[test]
    fn select_logical_composes_with_existing_selection() {
        let mut b = batch_of(&[(1, &[1]), (2, &[2]), (3, &[3]), (4, &[4]), (5, &[5])]);
        b.set_selection(vec![0, 2, 3, 4]); // positions 1,3,4,5
        b.select_logical(vec![1, 3]); // logical rows 1 and 3 → physical 2, 4
        assert_eq!(b.selection(), Some(&[2u32, 4][..]));
        assert_eq!((0..b.len()).map(|i| b.position_at(i)).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn clamp_on_selection_trims_only_the_selection() {
        let mut b = batch_of(&[(1, &[1]), (3, &[3]), (5, &[5]), (7, &[7]), (9, &[9])]);
        b.set_selection(vec![0, 1, 2, 3, 4]);
        b.clamp_positions(3, 7);
        assert_eq!(b.selection(), Some(&[1u32, 2, 3][..]));
        assert_eq!(b.physical_len(), 5, "physical rows untouched");
        assert_eq!(b.first_pos(), Some(3));
        assert_eq!(b.last_pos(), Some(7));
    }

    #[test]
    fn compact_gathers_exactly_once_with_exact_capacity() {
        let mut b = batch_of(&[(1, &[10, 100]), (2, &[20, 200]), (3, &[30, 300])]);
        let dense_noop = b.compact();
        assert_eq!(dense_noop, 0);
        b.set_selection(vec![0, 2]);
        let copied = b.compact();
        assert_eq!(copied, 2);
        assert!(b.is_dense());
        assert_eq!(b.positions(), &[1, 3]);
        assert_eq!(b.column(0).unwrap(), &[Value::Int(10), Value::Int(30)]);
        assert_eq!(b.column(1).unwrap(), &[Value::Int(100), Value::Int(300)]);
    }

    #[test]
    fn pruned_columns_survive_compact_and_error_on_read() {
        let mut b = RecordBatch::new(2);
        {
            let (pos, cols) = b.parts_mut();
            pos.extend([1i64, 2, 3]);
            cols[0].extend([Value::Int(10), Value::Int(20), Value::Int(30)]);
            // cols[1] left unmaterialized (pruned by the scan).
        }
        b.debug_check_rectangular();
        assert!(b.column_is_materialized(0));
        assert!(!b.column_is_materialized(1));
        assert!(b.row(1).value(1).is_err());
        assert_eq!(b.row(1).value(0).unwrap(), &Value::Int(20));
        b.set_selection(vec![0, 2]);
        b.compact();
        assert_eq!(b.column(0).unwrap().len(), 2);
        assert_eq!(b.column(1).unwrap().len(), 0, "pruned slot stays pruned");
    }

    #[test]
    fn gather_resolves_logical_indices_through_selection() {
        let mut b = batch_of(&[(1, &[1]), (2, &[2]), (3, &[3]), (4, &[4])]);
        b.set_selection(vec![1, 2, 3]);
        let g = b.gather(&[0, 2]);
        assert!(g.is_dense());
        assert_eq!(g.positions(), &[2, 4]);
        assert_eq!(g.column(0).unwrap(), &[Value::Int(2), Value::Int(4)]);
    }
}

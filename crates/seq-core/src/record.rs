//! Records: immutable tuples of atomic values.
//!
//! The model (§2) associates every position of a sequence with a record or
//! with the distinguished Null record. We never materialize Null records —
//! absence is represented as `Option<Record>` (footnote 2 of the paper).

use std::fmt;
use std::sync::Arc;

use crate::error::{Result, SeqError};
use crate::schema::Schema;
use crate::value::Value;

/// An immutable record. Cloning is O(1) (shared backing storage), which makes
/// records cheap to hold in operator caches (§3.4–3.5).
///
/// A record is a window `[start, start+len)` into its backing store, so many
/// records can share one allocation — [`crate::ResultSet::into_rows`] lays a
/// whole output batch out in a single row-major buffer and hands out views.
#[derive(Debug, Clone)]
pub struct Record {
    values: Arc<[Value]>,
    start: u32,
    len: u32,
}

impl PartialEq for Record {
    fn eq(&self, other: &Record) -> bool {
        self.values() == other.values()
    }
}

impl Record {
    /// A record from attribute values (unchecked; see [`Record::checked`]).
    pub fn new(values: Vec<Value>) -> Record {
        Record::from_shared(values.into())
    }

    /// A record from already-shared backing storage, without reallocating.
    #[inline]
    pub fn from_shared(values: Arc<[Value]>) -> Record {
        let len = values.len() as u32;
        Record { values, start: 0, len }
    }

    /// A record viewing `len` values of `shared` starting at `start`.
    /// Shares the backing storage; only the reference count moves.
    #[inline]
    pub fn from_shared_slice(shared: &Arc<[Value]>, start: usize, len: usize) -> Record {
        debug_assert!(start + len <= shared.len());
        Record { values: Arc::clone(shared), start: start as u32, len: len as u32 }
    }

    /// Build a record and check it against a schema.
    pub fn checked(values: Vec<Value>, schema: &Schema) -> Result<Record> {
        if values.len() != schema.arity() {
            return Err(SeqError::Schema(format!(
                "record arity {} does not match schema arity {}",
                values.len(),
                schema.arity()
            )));
        }
        for (i, v) in values.iter().enumerate() {
            let expect = schema.field(i)?.ty;
            if v.attr_type() != expect {
                return Err(SeqError::Type(format!(
                    "attribute {} expects {}, found {}",
                    schema.field(i)?.name,
                    expect,
                    v.attr_type()
                )));
            }
        }
        Ok(Record::new(values))
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// All attribute values, in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values[self.start as usize..(self.start + self.len) as usize]
    }

    /// The value of attribute `idx`.
    #[inline]
    pub fn value(&self, idx: usize) -> Result<&Value> {
        self.values().get(idx).ok_or_else(|| {
            SeqError::Schema(format!(
                "attribute index {idx} out of bounds for record of arity {}",
                self.arity()
            ))
        })
    }

    /// Project the given attribute indices into a new record.
    pub fn project(&self, indices: &[usize]) -> Result<Record> {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            out.push(self.value(i)?.clone());
        }
        Ok(Record::new(out))
    }

    /// Concatenate two records (the compose operator's record constructor,
    /// `r1.r2` in §2.1).
    pub fn compose(&self, right: &Record) -> Record {
        let mut out = Vec::with_capacity(self.arity() + right.arity());
        out.extend_from_slice(self.values());
        out.extend_from_slice(right.values());
        Record::new(out)
    }

    /// Approximate in-memory footprint in bytes, used by the storage layer to
    /// decide page occupancy.
    pub fn byte_size(&self) -> usize {
        let mut sz = 0usize;
        for v in self.values().iter() {
            sz += match v {
                Value::Int(_) | Value::Float(_) => 8,
                Value::Bool(_) => 1,
                Value::Str(s) => 16 + s.len(),
            };
        }
        sz.max(1)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

/// Build a record from anything convertible to values:
/// `record![1i64, 2.5, "x"]`.
#[macro_export]
macro_rules! record {
    ($($v:expr),* $(,)?) => {
        $crate::record::Record::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;
    use crate::value::AttrType;

    #[test]
    fn checked_enforces_arity_and_types() {
        let s = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        assert!(Record::checked(vec![Value::Int(1), Value::Float(2.0)], &s).is_ok());
        assert!(Record::checked(vec![Value::Int(1)], &s).is_err());
        assert!(Record::checked(vec![Value::Float(1.0), Value::Float(2.0)], &s).is_err());
    }

    #[test]
    fn projection_and_compose() {
        let r = record![1i64, 2.5, "x"];
        let p = r.project(&[2, 0]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.value(0).unwrap().as_str().unwrap(), "x");
        assert_eq!(p.value(1).unwrap().as_i64().unwrap(), 1);
        assert!(r.project(&[9]).is_err());

        let c = r.compose(&record![true]);
        assert_eq!(c.arity(), 4);
        assert!(c.value(3).unwrap().as_bool().unwrap());
    }

    #[test]
    fn clone_shares_backing_storage() {
        let r = record![1i64, 2i64];
        let r2 = r.clone();
        assert!(std::ptr::eq(r.values().as_ptr(), r2.values().as_ptr()));
    }

    #[test]
    fn byte_size_reflects_payload() {
        assert_eq!(record![1i64, 2.0].byte_size(), 16);
        assert!(record!["hello world"].byte_size() > 16);
        assert_eq!(Record::new(vec![]).byte_size(), 1);
    }

    #[test]
    fn display_round_trip_shape() {
        assert_eq!(record![1i64, false].to_string(), "<1, false>");
    }
}

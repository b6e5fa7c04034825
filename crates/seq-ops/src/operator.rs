//! The logical sequence operators of §2.1.
//!
//! All operators are compositional: they consume input sequences and define a
//! single derived output sequence. Each operator knows its arity, its output
//! schema, and its [`ScopeShape`] on each input.

use std::fmt;

use seq_core::{AttrType, Field, Record, Result, Schema, SeqError, Value};

use crate::expr::Expr;
use crate::scope::ScopeShape;

/// Aggregate functions permitted by the model (§2.1): Avg, Count, Min, Max,
/// Sum. Null records in the window are ignored; if every record in the window
/// is Null, the output is Null.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Arithmetic mean (FLOAT output).
    Avg,
    /// Count of non-Null records (INT output).
    Count,
    /// Smallest value (total order; NaN sorts greatest).
    Min,
    /// Largest value.
    Max,
    /// Sum (INT stays INT, otherwise FLOAT).
    Sum,
}

impl AggFunc {
    /// The output type of the aggregate given its input attribute type.
    pub fn output_type(self, input: AttrType) -> Result<AttrType> {
        match self {
            AggFunc::Count => Ok(AttrType::Int),
            AggFunc::Avg => {
                if !input.is_numeric() {
                    return Err(SeqError::Type(format!(
                        "AVG requires a numeric attribute, found {input}"
                    )));
                }
                Ok(AttrType::Float)
            }
            AggFunc::Sum => {
                if !input.is_numeric() {
                    return Err(SeqError::Type(format!(
                        "SUM requires a numeric attribute, found {input}"
                    )));
                }
                Ok(input)
            }
            AggFunc::Min | AggFunc::Max => {
                if input == AttrType::Bool {
                    return Err(SeqError::Type("MIN/MAX over BOOL is not supported".into()));
                }
                Ok(input)
            }
        }
    }

    /// Apply the aggregate to the non-Null values collected from the scope.
    /// Returns `None` (a Null output record) when the iterator is empty.
    pub fn apply<'a>(self, values: impl Iterator<Item = &'a Value>) -> Result<Option<Value>> {
        let mut fold = AggFold::new(self);
        for v in values {
            fold.push(v)?;
        }
        Ok(fold.finish())
    }
}

/// The running state of one left-to-right aggregate fold — the single
/// definition of what [`AggFunc::apply`] computes, fed value by value or
/// slice by slice.
///
/// Float sums start from `0.0` and add in push order, so two folds that see
/// the same values in the same order agree bit for bit however the values
/// were chunked (whole-span aggregates fold batch by batch, a recomputing
/// window folds the two halves of its ring). Min/Max keep the first of equal
/// values.
#[derive(Debug, Clone)]
pub struct AggFold {
    func: AggFunc,
    count: i64,
    sum_f: f64,
    sum_i: i64,
    all_int: bool,
    best: Option<Value>,
}

impl AggFold {
    /// An empty fold.
    pub fn new(func: AggFunc) -> AggFold {
        AggFold { func, count: 0, sum_f: 0.0, sum_i: 0, all_int: true, best: None }
    }

    /// Fold in the next value.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    self.sum_i = self.sum_i.wrapping_add(*i);
                    self.sum_f += *i as f64;
                }
                Value::Float(f) => {
                    self.all_int = false;
                    self.sum_f += f;
                }
                other => {
                    return Err(SeqError::Type(format!(
                        "{} requires numeric values, found {}",
                        self.func,
                        other.attr_type()
                    )))
                }
            },
            AggFunc::Min | AggFunc::Max => match &self.best {
                None => self.best = Some(v.clone()),
                Some(b) => {
                    let ord = v.total_cmp(b)?;
                    let better = if self.func == AggFunc::Min { ord.is_lt() } else { ord.is_gt() };
                    if better {
                        self.best = Some(v.clone());
                    }
                }
            },
        }
        self.count += 1;
        Ok(())
    }

    /// Fold in a run of float values, in order: for Sum/Avg a plain loop of
    /// adds with no per-value variant match.
    pub fn push_f64s(&mut self, xs: &[f64]) -> Result<()> {
        if !matches!(self.func, AggFunc::Sum | AggFunc::Avg) {
            return xs.iter().try_for_each(|&x| self.push(&Value::Float(x)));
        }
        for &x in xs {
            self.sum_f += x;
        }
        self.all_int &= xs.is_empty();
        self.count += xs.len() as i64;
        Ok(())
    }

    /// Fold in a run of integer values, in order.
    pub fn push_i64s(&mut self, xs: &[i64]) -> Result<()> {
        if !matches!(self.func, AggFunc::Sum | AggFunc::Avg) {
            return xs.iter().try_for_each(|&i| self.push(&Value::Int(i)));
        }
        for &i in xs {
            self.sum_i = self.sum_i.wrapping_add(i);
            self.sum_f += i as f64;
        }
        self.count += xs.len() as i64;
        Ok(())
    }

    /// The aggregate of everything folded so far; `None` when nothing was.
    pub fn finish(&self) -> Option<Value> {
        if self.count == 0 {
            return None;
        }
        Some(match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Avg => float_result(self.sum_f / self.count as f64),
            AggFunc::Sum if self.all_int => Value::Int(self.sum_i),
            AggFunc::Sum => float_result(self.sum_f),
            AggFunc::Min | AggFunc::Max => self.best.clone().expect("count > 0"),
        })
    }
}

/// A float Sum/Avg result as a value. Which NaN an arithmetic NaN carries
/// (sign, payload) is unspecified — the optimizer may swap the operands of
/// an add — so every evaluation path reports a NaN sum or mean as the one
/// canonical `f64::NAN`, keeping results bit-identical across paths.
pub fn float_result(x: f64) -> Value {
    Value::Float(if x.is_nan() { f64::NAN } else { x })
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Avg => "AVG",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Sum => "SUM",
        };
        f.write_str(s)
    }
}

/// The `agg_pos` function of an aggregate operator (§2.1): which input
/// positions contribute to the output at position `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Relative window `[i+lo, i+hi]` (e.g. the moving 3-position average has
    /// `lo = -2, hi = 0`).
    Sliding {
        /// Lower relative offset.
        lo: i64,
        /// Upper relative offset.
        hi: i64,
    },
    /// All positions up to and including `i`.
    Cumulative,
    /// All positions in the valid range (the "agg_pos always true" special
    /// case).
    WholeSpan,
}

impl Window {
    /// A trailing window of `n` positions ending at the current position.
    pub fn trailing(n: u32) -> Window {
        assert!(n >= 1, "window must contain at least one position");
        Window::Sliding { lo: -i64::from(n - 1), hi: 0 }
    }

    /// A leading window of `n` positions starting at the current position.
    pub fn leading(n: u32) -> Window {
        assert!(n >= 1, "window must contain at least one position");
        Window::Sliding { lo: 0, hi: i64::from(n - 1) }
    }

    /// The scope shape this window induces.
    pub fn scope(&self) -> ScopeShape {
        match self {
            Window::Sliding { lo, hi } => ScopeShape::Interval { lo: Some(*lo), hi: *hi },
            Window::Cumulative => ScopeShape::Interval { lo: None, hi: 0 },
            Window::WholeSpan => ScopeShape::WholeSpan,
        }
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Window::Sliding { lo, hi } => write!(f, "[i{lo:+}, i{hi:+}]"),
            Window::Cumulative => write!(f, "cumulative"),
            Window::WholeSpan => write!(f, "whole-span"),
        }
    }
}

/// A logical sequence operator (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum SeqOperator {
    /// Keep records satisfying the predicate; other positions become empty.
    Select {
        /// Boolean predicate over the input record.
        predicate: Expr,
    },
    /// Keep a subset of attributes (by name; resolved during annotation).
    Project {
        /// Names of the attributes to keep, in output order.
        attrs: Vec<String>,
    },
    /// `Out(i) = In(i + offset)` — shift the sequence.
    PositionalOffset {
        /// The shift amount.
        offset: i64,
    },
    /// `Out(i)` = the record at the |offset|-th non-empty input position
    /// strictly before (`offset < 0`, Previous = −1) or after (`offset > 0`,
    /// Next = +1) position `i`.
    ValueOffset {
        /// Non-zero offset; sign is the direction.
        offset: i64,
    },
    /// Windowed aggregate of one attribute.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Input attribute name.
        attr: String,
        /// The `agg_pos` window.
        window: Window,
        /// Output attribute name.
        output_name: String,
    },
    /// Positional join: compose the records of both inputs at each position,
    /// optionally filtered by a join predicate over the composed record
    /// (§2.1: "the Compose operator would probably allow the specification of
    /// additional join predicates").
    Compose {
        /// Optional join predicate over the composed record.
        predicate: Option<Expr>,
    },
}

impl SeqOperator {
    /// Convenience constructor for an aggregate with a default output name
    /// like `sum_close`.
    pub fn aggregate(func: AggFunc, attr: impl Into<String>, window: Window) -> SeqOperator {
        let attr = attr.into();
        let output_name = format!("{}_{}", func.to_string().to_lowercase(), attr);
        SeqOperator::Aggregate { func, attr, window, output_name }
    }

    /// The Previous operator (value offset of −1).
    pub fn previous() -> SeqOperator {
        SeqOperator::ValueOffset { offset: -1 }
    }

    /// The Next operator (value offset of +1).
    pub fn next_op() -> SeqOperator {
        SeqOperator::ValueOffset { offset: 1 }
    }

    /// Number of input sequences.
    pub fn arity(&self) -> usize {
        match self {
            SeqOperator::Compose { .. } => 2,
            _ => 1,
        }
    }

    /// Type-check and compute the output schema from the input schemas
    /// (Step 2.a of the optimization algorithm performs this bottom-up).
    pub fn output_schema(&self, inputs: &[Schema]) -> Result<Schema> {
        if inputs.len() != self.arity() {
            return Err(SeqError::InvalidGraph(format!(
                "{self} expects {} input(s), got {}",
                self.arity(),
                inputs.len()
            )));
        }
        match self {
            SeqOperator::Select { predicate } => {
                let bound = predicate.bind(&inputs[0])?;
                let t = bound.infer_type(&inputs[0])?;
                if t != AttrType::Bool {
                    return Err(SeqError::Type(format!(
                        "selection predicate must be BOOL, found {t}"
                    )));
                }
                Ok(inputs[0].clone())
            }
            SeqOperator::Project { attrs } => {
                let idx =
                    attrs.iter().map(|a| inputs[0].index_of(a)).collect::<Result<Vec<_>>>()?;
                inputs[0].project(&idx)
            }
            SeqOperator::PositionalOffset { .. } => Ok(inputs[0].clone()),
            SeqOperator::ValueOffset { offset } => {
                if *offset == 0 {
                    return Err(SeqError::InvalidGraph(
                        "value offset of 0 is the identity; use no operator".into(),
                    ));
                }
                Ok(inputs[0].clone())
            }
            SeqOperator::Aggregate { func, attr, output_name, .. } => {
                let idx = inputs[0].index_of(attr)?;
                let out_ty = func.output_type(inputs[0].field(idx)?.ty)?;
                Ok(Schema::new(vec![Field::new(output_name.clone(), out_ty)]))
            }
            SeqOperator::Compose { predicate } => {
                let composed = inputs[0].compose(&inputs[1]);
                if let Some(p) = predicate {
                    let bound = p.bind(&composed)?;
                    let t = bound.infer_type(&composed)?;
                    if t != AttrType::Bool {
                        return Err(SeqError::Type(format!(
                            "compose predicate must be BOOL, found {t}"
                        )));
                    }
                }
                Ok(composed)
            }
        }
    }

    /// The scope shape of this operator over input `input_idx` (§2.3).
    pub fn scope(&self, input_idx: usize) -> ScopeShape {
        debug_assert!(input_idx < self.arity());
        match self {
            SeqOperator::Select { .. }
            | SeqOperator::Project { .. }
            | SeqOperator::Compose { .. } => ScopeShape::Point(0),
            SeqOperator::PositionalOffset { offset } => ScopeShape::Point(*offset),
            SeqOperator::ValueOffset { offset } => {
                if *offset < 0 {
                    ScopeShape::VariableBack
                } else {
                    ScopeShape::VariableFwd
                }
            }
            SeqOperator::Aggregate { window, .. } => window.scope(),
        }
    }

    /// Whether this operator has unit scope on all inputs — the property that
    /// decides query-block boundaries (§3.1: "the non-unit scope operators
    /// therefore break up the query into blocks"). Positional offsets have
    /// unit scope and therefore live *inside* blocks.
    pub fn is_unit_scope(&self) -> bool {
        (0..self.arity()).all(|i| self.scope(i).size().is_unit())
    }

    /// Apply a unit-scope operator's record function to already-aligned input
    /// records (§2.3's `OpFunc` for the unit-scope operators). Non-unit-scope
    /// operators (aggregates, value offsets) aggregate over their scope and
    /// are handled by their evaluators.
    pub fn apply_unit(&self, inputs: &[Option<&Record>]) -> Result<Option<Record>> {
        match self {
            SeqOperator::Select { predicate } => {
                let Some(rec) = inputs[0] else { return Ok(None) };
                if predicate.eval_predicate(rec)? {
                    Ok(Some(rec.clone()))
                } else {
                    Ok(None)
                }
            }
            SeqOperator::Project { .. } => Err(SeqError::Unsupported(
                "projection requires resolved indices; use apply_project".into(),
            )),
            SeqOperator::PositionalOffset { .. } => Ok(inputs[0].cloned()),
            SeqOperator::Compose { predicate } => {
                let (Some(l), Some(r)) = (inputs[0], inputs[1]) else {
                    return Ok(None);
                };
                let joined = l.compose(r);
                if let Some(p) = predicate {
                    if !p.eval_predicate(&joined)? {
                        return Ok(None);
                    }
                }
                Ok(Some(joined))
            }
            SeqOperator::ValueOffset { .. } | SeqOperator::Aggregate { .. } => {
                Err(SeqError::Unsupported(format!("{self} is not a unit-scope operator")))
            }
        }
    }
}

impl fmt::Display for SeqOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqOperator::Select { predicate } => write!(f, "Select({predicate})"),
            SeqOperator::Project { attrs } => write!(f, "Project({})", attrs.join(", ")),
            SeqOperator::PositionalOffset { offset } => write!(f, "PosOffset({offset:+})"),
            SeqOperator::ValueOffset { offset } => match offset {
                -1 => write!(f, "Previous"),
                1 => write!(f, "Next"),
                l => write!(f, "ValueOffset({l:+})"),
            },
            SeqOperator::Aggregate { func, attr, window, .. } => {
                write!(f, "{func}({attr}) over {window}")
            }
            SeqOperator::Compose { predicate: None } => write!(f, "Compose"),
            SeqOperator::Compose { predicate: Some(p) } => write!(f, "Compose[{p}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::ScopeSize;
    use seq_core::{record, schema};

    fn stock() -> Schema {
        schema(&[("time", AttrType::Int), ("close", AttrType::Float)])
    }

    #[test]
    fn agg_apply_semantics() {
        let vals = [Value::Float(1.0), Value::Float(2.0), Value::Float(4.0)];
        assert_eq!(AggFunc::Sum.apply(vals.iter()).unwrap(), Some(Value::Float(7.0)));
        assert_eq!(AggFunc::Avg.apply(vals.iter()).unwrap(), Some(Value::Float(7.0 / 3.0)));
        assert_eq!(AggFunc::Count.apply(vals.iter()).unwrap(), Some(Value::Int(3)));
        assert_eq!(AggFunc::Min.apply(vals.iter()).unwrap(), Some(Value::Float(1.0)));
        assert_eq!(AggFunc::Max.apply(vals.iter()).unwrap(), Some(Value::Float(4.0)));
        // Empty scope yields a Null output record.
        assert_eq!(AggFunc::Sum.apply([].iter()).unwrap(), None);
    }

    #[test]
    fn chunked_folds_match_apply_bit_for_bit() {
        // Large-magnitude cancellations make the float sum order-sensitive;
        // slicing the same sequence into runs must not change its bits.
        let xs = [1e16, 1.0, -1e16, 1.0, -0.0, 3.5e-320, 0.1, 0.2];
        let vals: Vec<Value> = xs.iter().map(|&x| Value::Float(x)).collect();
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max, AggFunc::Count] {
            let want = func.apply(vals.iter()).unwrap().unwrap();
            for cut in 0..=xs.len() {
                let mut fold = AggFold::new(func);
                fold.push_f64s(&xs[..cut]).unwrap();
                fold.push_f64s(&xs[cut..]).unwrap();
                let got = fold.finish().unwrap();
                assert_eq!(
                    got.as_f64().unwrap().to_bits(),
                    want.as_f64().unwrap().to_bits(),
                    "{func} cut at {cut}"
                );
            }
        }
        let ints = [i64::MAX, 1, -5];
        let want = AggFunc::Avg.apply(ints.map(Value::Int).iter()).unwrap();
        let mut fold = AggFold::new(AggFunc::Avg);
        fold.push_i64s(&ints).unwrap();
        assert_eq!(fold.finish(), want);
        // A sum of negative zeros starts from +0.0, as `apply` does.
        let mut fold = AggFold::new(AggFunc::Sum);
        fold.push_f64s(&[-0.0, -0.0]).unwrap();
        assert_eq!(fold.finish().unwrap().as_f64().unwrap().to_bits(), 0.0f64.to_bits());
        // Whichever NaN the adds propagate, a NaN sum or mean is canonical.
        for func in [AggFunc::Sum, AggFunc::Avg] {
            let mut fold = AggFold::new(func);
            fold.push_f64s(&[-f64::NAN, f64::INFINITY, f64::NAN]).unwrap();
            let got = fold.finish().unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), f64::NAN.to_bits(), "{func}");
        }
    }

    #[test]
    fn int_sum_stays_int() {
        let vals = [Value::Int(1), Value::Int(2)];
        assert_eq!(AggFunc::Sum.apply(vals.iter()).unwrap(), Some(Value::Int(3)));
        let mixed = [Value::Int(1), Value::Float(0.5)];
        assert_eq!(AggFunc::Sum.apply(mixed.iter()).unwrap(), Some(Value::Float(1.5)));
    }

    #[test]
    fn agg_type_errors() {
        let vals = [Value::str("x")];
        assert!(AggFunc::Sum.apply(vals.iter()).is_err());
        assert!(AggFunc::Avg.output_type(AttrType::Str).is_err());
        assert!(AggFunc::Min.output_type(AttrType::Bool).is_err());
        assert_eq!(AggFunc::Count.output_type(AttrType::Str).unwrap(), AttrType::Int);
        assert_eq!(AggFunc::Sum.output_type(AttrType::Int).unwrap(), AttrType::Int);
        assert_eq!(AggFunc::Avg.output_type(AttrType::Int).unwrap(), AttrType::Float);
    }

    #[test]
    fn min_max_on_strings() {
        let vals = [Value::str("b"), Value::str("a")];
        assert_eq!(AggFunc::Min.apply(vals.iter()).unwrap(), Some(Value::str("a")));
        assert_eq!(AggFunc::Max.apply(vals.iter()).unwrap(), Some(Value::str("b")));
    }

    #[test]
    fn window_constructors() {
        assert_eq!(Window::trailing(3), Window::Sliding { lo: -2, hi: 0 });
        assert_eq!(Window::leading(2), Window::Sliding { lo: 0, hi: 1 });
        assert_eq!(Window::trailing(1), Window::Sliding { lo: 0, hi: 0 });
    }

    #[test]
    fn operator_scopes_match_paper() {
        let sel = SeqOperator::Select { predicate: Expr::lit(true) };
        assert!(sel.scope(0).size().is_unit());
        assert!(sel.is_unit_scope());

        let off = SeqOperator::PositionalOffset { offset: -5 };
        assert!(off.is_unit_scope());
        assert!(!off.scope(0).sequential());

        let prev = SeqOperator::previous();
        assert_eq!(prev.scope(0).size(), ScopeSize::Variable);
        assert!(!prev.is_unit_scope());

        let agg = SeqOperator::aggregate(AggFunc::Sum, "close", Window::trailing(6));
        assert_eq!(agg.scope(0).size(), ScopeSize::Fixed(6));
        assert!(agg.scope(0).sequential());
        assert!(!agg.is_unit_scope());

        let comp = SeqOperator::Compose { predicate: None };
        assert!(comp.is_unit_scope());
        assert!(comp.scope(1).size().is_unit());
    }

    #[test]
    fn output_schemas() {
        let s = stock();
        let sel = SeqOperator::Select { predicate: Expr::attr("close").gt(Expr::lit(7.0)) };
        assert_eq!(sel.output_schema(std::slice::from_ref(&s)).unwrap(), s);

        let proj = SeqOperator::Project { attrs: vec!["close".into()] };
        assert_eq!(proj.output_schema(std::slice::from_ref(&s)).unwrap().arity(), 1);

        let agg = SeqOperator::aggregate(AggFunc::Sum, "close", Window::trailing(6));
        let out = agg.output_schema(std::slice::from_ref(&s)).unwrap();
        assert_eq!(out.field(0).unwrap().name, "sum_close");
        assert_eq!(out.field(0).unwrap().ty, AttrType::Float);

        let comp = SeqOperator::Compose { predicate: None };
        assert_eq!(comp.output_schema(&[s.clone(), s.clone()]).unwrap().arity(), 4);
    }

    #[test]
    fn output_schema_rejects_bad_queries() {
        let s = stock();
        // Non-boolean selection predicate.
        let sel = SeqOperator::Select { predicate: Expr::attr("close") };
        assert!(sel.output_schema(std::slice::from_ref(&s)).is_err());
        // Unknown projected attribute.
        let proj = SeqOperator::Project { attrs: vec!["nope".into()] };
        assert!(proj.output_schema(std::slice::from_ref(&s)).is_err());
        // Wrong arity.
        let comp = SeqOperator::Compose { predicate: None };
        assert!(comp.output_schema(std::slice::from_ref(&s)).is_err());
        // Zero value offset.
        let vo = SeqOperator::ValueOffset { offset: 0 };
        assert!(vo.output_schema(std::slice::from_ref(&s)).is_err());
        // Aggregate over a string.
        let agg = SeqOperator::aggregate(AggFunc::Sum, "time", Window::trailing(2));
        assert!(agg.output_schema(&[schema(&[("time", AttrType::Str)])]).is_err());
    }

    #[test]
    fn apply_unit_select_compose() {
        let s = stock();
        let pred = Expr::attr("close").gt(Expr::lit(2.0)).bind(&s).unwrap();
        let sel = SeqOperator::Select { predicate: pred };
        let hit = record![1i64, 3.0];
        let miss = record![1i64, 1.0];
        assert!(sel.apply_unit(&[Some(&hit)]).unwrap().is_some());
        assert!(sel.apply_unit(&[Some(&miss)]).unwrap().is_none());
        assert!(sel.apply_unit(&[None]).unwrap().is_none());

        let comp = SeqOperator::Compose { predicate: None };
        let out = comp.apply_unit(&[Some(&hit), Some(&miss)]).unwrap().unwrap();
        assert_eq!(out.arity(), 4);
        assert!(comp.apply_unit(&[Some(&hit), None]).unwrap().is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(SeqOperator::previous().to_string(), "Previous");
        assert_eq!(SeqOperator::next_op().to_string(), "Next");
        assert_eq!(
            SeqOperator::aggregate(AggFunc::Sum, "close", Window::trailing(6)).to_string(),
            "SUM(close) over [i-5, i+0]"
        );
        assert_eq!(SeqOperator::PositionalOffset { offset: -5 }.to_string(), "PosOffset(-5)");
    }
}

//! Parser: textual algebra → [`seq_ops::QueryGraph`].
//!
//! Grammar (S-expressions; commas optional, `;` comments):
//!
//! ```text
//! node    := (base NAME)
//!          | (const [ATTR VALUE ...])
//!          | (select EXPR node)
//!          | (project [ATTR ...] node)
//!          | (offset N node)                 ; positional offset
//!          | (voffset N node)                ; value offset (N != 0)
//!          | (prev node) | (next node)
//!          | (agg FUNC ATTR WINDOW node)     ; FUNC: sum avg count min max
//!          | (compose node node)
//!          | (compose EXPR node node)        ; with a join predicate
//! WINDOW  := (trailing N) | (leading N) | (sliding LO HI)
//!          | cumulative | wholespan
//! EXPR    := (CMP e e) | (and e e) | (or e e) | (not e)
//!          | (+ e e) | (- e e) | (* e e) | (/ e e)
//!          | NUMBER | "string" | true | false | ATTR
//! CMP     := > >= < <= = !=
//! ```

use seq_core::{AttrType, Record, Result, Schema, SeqError, Value};
use seq_ops::{AggFunc, Expr, QueryGraph, SeqQuery, Window};

use crate::lexer::{tokenize, Token, TokenKind};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

fn perr(offset: usize, msg: impl std::fmt::Display) -> SeqError {
    SeqError::InvalidGraph(format!("parse error at byte {offset}: {msg}"))
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| perr(usize::MAX, "unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        let t = self.next()?;
        if &t.kind == kind {
            Ok(t)
        } else {
            Err(perr(t.offset, format!("expected {kind}, found {}", t.kind)))
        }
    }

    fn symbol(&mut self) -> Result<(String, usize)> {
        let t = self.next()?;
        match t.kind {
            TokenKind::Symbol(s) => Ok((s, t.offset)),
            other => Err(perr(t.offset, format!("expected a symbol, found {other}"))),
        }
    }

    fn int(&mut self) -> Result<i64> {
        let t = self.next()?;
        match t.kind {
            TokenKind::Int(i) => Ok(i),
            other => Err(perr(t.offset, format!("expected an integer, found {other}"))),
        }
    }

    /// A window width `n` with `1 <= n <= u32::MAX`, positioned at the
    /// number on failure.
    fn width(&mut self, kind: &str) -> Result<u32> {
        let at = self.peek().map_or(0, |t| t.offset);
        let n = self.int()?;
        match u32::try_from(n) {
            Ok(w) if w >= 1 => Ok(w),
            _ => Err(perr(at, format!("{kind} window needs 1 <= n <= {}, got {n}", u32::MAX))),
        }
    }

    /// Parse a query node into a [`SeqQuery`].
    fn node(&mut self) -> Result<SeqQuery> {
        self.expect(&TokenKind::LParen)?;
        let (head, at) = self.symbol()?;
        let q = match head.as_str() {
            "base" => {
                let (name, _) = self.symbol()?;
                SeqQuery::base(name)
            }
            "const" => {
                let (schema, record) = self.const_body()?;
                SeqQuery::constant(schema, record)
            }
            "select" => {
                let predicate = self.expr()?;
                let input = self.node()?;
                input.select(predicate)
            }
            "project" => {
                let attrs = self.attr_list()?;
                let input = self.node()?;
                input.project(attrs)
            }
            "offset" => {
                let l = self.int()?;
                let input = self.node()?;
                input.positional_offset(l)
            }
            "voffset" => {
                let l = self.int()?;
                if l == 0 {
                    return Err(perr(at, "voffset of 0 is the identity"));
                }
                let input = self.node()?;
                input.value_offset(l)
            }
            "prev" => self.node()?.previous(),
            "next" => self.node()?.next_record(),
            "agg" => {
                let (func_name, fat) = self.symbol()?;
                let func = match func_name.as_str() {
                    "sum" => AggFunc::Sum,
                    "avg" => AggFunc::Avg,
                    "count" => AggFunc::Count,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    other => return Err(perr(fat, format!("unknown aggregate {other:?}"))),
                };
                let (attr, _) = self.symbol()?;
                let window = self.window()?;
                let input = self.node()?;
                input.aggregate(func, attr, window)
            }
            "compose" => {
                // Either (compose L R) or (compose EXPR L R): disambiguate by
                // the next token — a node starts with '(' followed by a node
                // head; an expression may too, so try the node first and fall
                // back. Cleanest unambiguous rule: if three forms remain
                // before the closing paren, the first is a predicate.
                let checkpoint = self.pos;
                match self.node() {
                    Ok(left) => {
                        // (compose L R)
                        let right = self.node()?;
                        left.compose_with(right)
                    }
                    Err(_) => {
                        self.pos = checkpoint;
                        let predicate = self.expr()?;
                        let left = self.node()?;
                        let right = self.node()?;
                        left.compose_filtered(right, predicate)
                    }
                }
            }
            other => return Err(perr(at, format!("unknown operator {other:?}"))),
        };
        self.expect(&TokenKind::RParen)?;
        Ok(q)
    }

    fn const_body(&mut self) -> Result<(Schema, Record)> {
        self.expect(&TokenKind::LBracket)?;
        let mut fields = Vec::new();
        let mut values = Vec::new();
        loop {
            if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::RBracket)) {
                self.next()?;
                break;
            }
            let (name, _) = self.symbol()?;
            let t = self.next()?;
            let v = match t.kind {
                TokenKind::Int(i) => Value::Int(i),
                TokenKind::Float(f) => Value::Float(f),
                TokenKind::Str(s) => Value::str(s),
                TokenKind::Symbol(s) if s == "true" => Value::Bool(true),
                TokenKind::Symbol(s) if s == "false" => Value::Bool(false),
                other => return Err(perr(t.offset, format!("expected a literal, found {other}"))),
            };
            let ty = match &v {
                Value::Int(_) => AttrType::Int,
                Value::Float(_) => AttrType::Float,
                Value::Bool(_) => AttrType::Bool,
                Value::Str(_) => AttrType::Str,
            };
            fields.push((name, ty));
            values.push(v);
        }
        let schema =
            Schema::new(fields.into_iter().map(|(n, t)| seq_core::Field::new(n, t)).collect());
        Ok((schema, Record::new(values)))
    }

    fn attr_list(&mut self) -> Result<Vec<String>> {
        self.expect(&TokenKind::LBracket)?;
        let mut out = Vec::new();
        loop {
            let t = self.next()?;
            match t.kind {
                TokenKind::RBracket => break,
                TokenKind::Symbol(s) => out.push(s),
                other => return Err(perr(t.offset, format!("expected attribute, found {other}"))),
            }
        }
        Ok(out)
    }

    fn window(&mut self) -> Result<Window> {
        let t = self.next()?;
        match t.kind {
            TokenKind::Symbol(s) if s == "cumulative" => Ok(Window::Cumulative),
            TokenKind::Symbol(s) if s == "wholespan" => Ok(Window::WholeSpan),
            TokenKind::LParen => {
                let (kind, at) = self.symbol()?;
                let w = match kind.as_str() {
                    "trailing" => Window::trailing(self.width(&kind)?),
                    "leading" => Window::leading(self.width(&kind)?),
                    "sliding" => {
                        let lo = self.int()?;
                        let hi = self.int()?;
                        if lo > hi {
                            return Err(perr(at, "sliding window needs lo <= hi"));
                        }
                        Window::Sliding { lo, hi }
                    }
                    other => return Err(perr(at, format!("unknown window {other:?}"))),
                };
                self.expect(&TokenKind::RParen)?;
                Ok(w)
            }
            other => Err(perr(t.offset, format!("expected a window, found {other}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        let t = self.next()?;
        match t.kind {
            TokenKind::Int(i) => Ok(Expr::lit(i)),
            TokenKind::Float(f) => Ok(Expr::lit(f)),
            TokenKind::Str(s) => Ok(Expr::Lit(Value::str(s))),
            TokenKind::Symbol(s) if s == "true" => Ok(Expr::lit(true)),
            TokenKind::Symbol(s) if s == "false" => Ok(Expr::lit(false)),
            TokenKind::Symbol(s) => Ok(Expr::attr(s)),
            TokenKind::LParen => {
                let (op, at) = self.symbol()?;
                let e = match op.as_str() {
                    "not" => self.expr()?.negate(),
                    ">" | ">=" | "<" | "<=" | "=" | "!=" | "and" | "or" | "+" | "-" | "*" | "/" => {
                        let a = self.expr()?;
                        let b = self.expr()?;
                        match op.as_str() {
                            ">" => a.gt(b),
                            ">=" => a.ge(b),
                            "<" => a.lt(b),
                            "<=" => a.le(b),
                            "=" => a.eq(b),
                            "!=" => a.ne(b),
                            "and" => a.and(b),
                            "or" => a.or(b),
                            "+" => a.add(b),
                            "-" => a.sub(b),
                            "*" => a.mul(b),
                            "/" => a.div(b),
                            _ => unreachable!(),
                        }
                    }
                    other => return Err(perr(at, format!("unknown expression head {other:?}"))),
                };
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(perr(t.offset, format!("expected an expression, found {other}"))),
        }
    }
}

/// Parse a complete query.
pub fn parse_query(input: &str) -> Result<QueryGraph> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.node()?;
    if let Some(t) = p.peek() {
        return Err(perr(t.offset, format!("trailing input starting with {}", t.kind)));
    }
    Ok(q.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::schema;
    use std::collections::HashMap;

    fn provider() -> HashMap<String, Schema> {
        let stock = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        let mut m = HashMap::new();
        for n in ["IBM", "HP", "DEC", "Quakes", "Volcanos"] {
            m.insert(n.to_string(), stock.clone());
        }
        m.insert(
            "Quakes".into(),
            schema(&[("time", AttrType::Int), ("strength", AttrType::Float)]),
        );
        m.insert("Volcanos".into(), schema(&[("time", AttrType::Int), ("name", AttrType::Str)]));
        m
    }

    #[test]
    fn parses_example_1_1() {
        let q = parse_query(
            r#"
            (project [name]
              (select (> strength 7.0)
                (compose (base Volcanos) (prev (base Quakes)))))
            "#,
        )
        .unwrap();
        let r = q.resolve(&provider()).unwrap();
        assert_eq!(r.output_schema().arity(), 1);
        assert_eq!(r.base_names().len(), 2);
    }

    #[test]
    fn parses_fig3() {
        let q =
            parse_query("(compose (base DEC) (compose (> close close_r) (base IBM) (base HP)))")
                .unwrap();
        let r = q.resolve(&provider()).unwrap();
        assert_eq!(r.output_schema().arity(), 6);
    }

    #[test]
    fn parses_aggregates_and_windows() {
        for (src, ok) in [
            ("(agg sum close (trailing 6) (base IBM))", true),
            ("(agg avg close (sliding -3 0) (base IBM))", true),
            ("(agg max close cumulative (base IBM))", true),
            ("(agg min close wholespan (base IBM))", true),
            ("(agg median close (trailing 6) (base IBM))", false),
            ("(agg sum close (trailing 0) (base IBM))", false),
            ("(agg sum close (sliding 3 0) (base IBM))", false),
        ] {
            let r = parse_query(src);
            assert_eq!(r.is_ok(), ok, "{src}: {r:?}");
        }
    }

    #[test]
    fn parses_offsets() {
        let q = parse_query("(offset -5 (voffset -2 (next (base IBM))))").unwrap();
        assert!(q.resolve(&provider()).is_ok());
        assert!(parse_query("(voffset 0 (base IBM))").is_err());
    }

    #[test]
    fn parses_constants() {
        let q =
            parse_query(r#"(compose (> close threshold) (base IBM) (const [threshold 100.0]))"#)
                .unwrap();
        let r = q.resolve(&provider()).unwrap();
        assert_eq!(r.output_schema().arity(), 3);
    }

    #[test]
    fn arithmetic_and_boolean_expressions() {
        let q = parse_query("(select (and (> (* close 2.0) 100.0) (not (= time 5))) (base IBM))")
            .unwrap();
        assert!(q.resolve(&provider()).is_ok());
    }

    #[test]
    fn error_messages_carry_positions() {
        let e = parse_query("(bogus (base IBM))").unwrap_err().to_string();
        assert!(e.contains("unknown operator"), "{e}");
        let e = parse_query("(select (> close 1.0) (base IBM)) extra").unwrap_err().to_string();
        assert!(e.contains("trailing input"), "{e}");
        let e = parse_query("(select (>> close 1.0) (base IBM))").unwrap_err().to_string();
        assert!(e.contains("unknown expression head"), "{e}");
        assert!(parse_query("(base IBM").is_err()); // missing paren
        assert!(parse_query("").is_err());
        // Window widths must fit a u32: 2^32 would truncate to 0, 2^32 + 1
        // to 1. The error points at the number.
        for (q, n) in [
            ("(agg sum close (trailing 4294967296) (base HP))", "4294967296"),
            ("(agg sum close (trailing 4294967297) (base HP))", "4294967297"),
            ("(agg sum close (leading 4294967296) (base HP))", "4294967296"),
            ("(agg sum close (trailing 0) (base HP))", "0"),
        ] {
            let e = parse_query(q).unwrap_err().to_string();
            let at = q.find(n).unwrap();
            assert!(e.contains(&format!("parse error at byte {at}: ")), "{e}");
            assert!(e.contains(&format!("window needs 1 <= n <= 4294967295, got {n}")), "{e}");
        }
        assert!(parse_query("(agg sum close (trailing 4294967295) (base HP))").is_ok());
    }

    #[test]
    fn parsed_queries_evaluate() {
        use seq_core::{record, BaseSequence, Sequence};
        use seq_ops::ReferenceEvaluator;
        use std::sync::Arc;

        let base = BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            (1..=10).map(|p| (p, record![p, p as f64])).collect(),
        )
        .unwrap();
        let mut seqs: HashMap<String, Arc<dyn Sequence>> = HashMap::new();
        seqs.insert("IBM".into(), Arc::new(base));
        let schemas: HashMap<String, Schema> =
            seqs.iter().map(|(k, v)| (k.clone(), v.schema().clone())).collect();

        let q =
            parse_query("(agg sum close (trailing 3) (select (> close 2.0) (base IBM)))").unwrap();
        let r = q.resolve(&schemas).unwrap();
        let ev = ReferenceEvaluator::new(&r, &seqs).unwrap();
        // At position 5: records 3,4,5 -> 12.
        let v = ev.eval(5).unwrap().unwrap();
        assert_eq!(v.value(0).unwrap().as_f64().unwrap(), 12.0);
    }
}

//! Recursive-descent parser for the DBWipes SQL subset.
//!
//! The grammar covers exactly the query shape the paper's §2.1 problem
//! statement assumes: a single-block aggregate SELECT with WHERE, GROUP BY,
//! ORDER BY and LIMIT. Scalar expressions support the operators the ranked
//! predicates use (`=`, `<>`, `<`, `<=`, `>`, `>=`, `BETWEEN`, `IN`,
//! `LIKE '%...%'`, `IS [NOT] NULL`, boolean connectives, arithmetic).

use crate::ast::{
    AggregateArg, AggregateCall, AggregateFunc, OrderBy, SelectExpr, SelectItem, SelectStatement,
    SortOrder,
};
use crate::error::EngineError;
use crate::lexer::{tokenize, Token, TokenKind};
use dbwipes_storage::{Expr, Value};
use std::ops::{Add as _, Div as _, Mul as _, Neg as _, Not as _, Sub as _};

/// The most levels an expression tree may nest. Every node the parser
/// builds counts — `NOT`s, signs, and each link of a left-deep `AND` /
/// `OR` / comparison / arithmetic chain — so the bound caps every later
/// recursion over the tree (validation, evaluation, compilation,
/// rendering, drop). Deeper input is refused with
/// [`EngineError::TooDeep`] instead of overflowing the stack.
pub const MAX_EXPR_DEPTH: usize = 128;

/// The most parentheses, `NOT`s and unary signs that may enclose one
/// token. Each costs the recursive-descent parser a full pass through
/// its precedence levels (about 12 KiB of stack per level in a debug
/// build), so this bound is tighter than [`MAX_EXPR_DEPTH`]; chains are
/// parsed by loops and do not count here.
pub const MAX_EXPR_NESTING: usize = 32;

/// A parsed expression and the depth of its tree (a leaf is 1).
type Parsed = (Expr, usize);

/// Parses a single SELECT statement.
pub fn parse_select(sql: &str) -> Result<SelectStatement, EngineError> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_select()?;
    p.skip_semicolons();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a standalone scalar/boolean expression (used by the dashboard to
/// accept hand-written filters and by tests).
pub fn parse_expr(text: &str) -> Result<Expr, EngineError> {
    let mut p = Parser::new(text)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Open parentheses, `NOT`s and unary signs around the current token.
    nesting: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, EngineError> {
        Ok(Parser { tokens: tokenize(input)?, pos: 0, nesting: 0 })
    }

    /// Enters one level of parser recursion, refused past
    /// [`MAX_EXPR_NESTING`].
    fn descend(&mut self) -> Result<(), EngineError> {
        self.nesting += 1;
        if self.nesting > MAX_EXPR_NESTING {
            return Err(EngineError::TooDeep {
                limit: MAX_EXPR_NESTING,
                position: self.position(),
            });
        }
        Ok(())
    }

    /// The depth of a new node over children of the given depths, refused
    /// past [`MAX_EXPR_DEPTH`].
    fn node(&self, children: &[usize]) -> Result<usize, EngineError> {
        let depth = 1 + children.iter().copied().max().unwrap_or(0);
        if depth > MAX_EXPR_DEPTH {
            return Err(EngineError::TooDeep { limit: MAX_EXPR_DEPTH, position: self.position() });
        }
        Ok(depth)
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn position(&self) -> usize {
        self.tokens[self.pos].position
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), EngineError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(EngineError::parse(format!("expected keyword {kw}"), self.position()))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), EngineError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(EngineError::parse(format!("expected {what}"), self.position()))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, EngineError> {
        match self.peek().clone() {
            TokenKind::Ident(name) if !is_reserved(&name) => {
                self.advance();
                Ok(name)
            }
            _ => Err(EngineError::parse(format!("expected {what}"), self.position())),
        }
    }

    fn skip_semicolons(&mut self) {
        while self.eat(&TokenKind::Semicolon) {}
    }

    fn expect_eof(&mut self) -> Result<(), EngineError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(EngineError::parse("unexpected trailing input", self.position()))
        }
    }

    fn parse_select(&mut self) -> Result<SelectStatement, EngineError> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.parse_select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }
        self.expect_keyword("FROM")?;
        let table = self.expect_ident("table name")?;

        let where_clause = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expect_ident("group-by column")?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expect_ident("group-by column")?);
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let target = match self.peek().clone() {
                    TokenKind::Int(n) => {
                        self.advance();
                        n.to_string()
                    }
                    _ => self.expect_ident("order-by column")?,
                };
                let order = if self.eat_keyword("DESC") {
                    SortOrder::Desc
                } else {
                    let _ = self.eat_keyword("ASC");
                    SortOrder::Asc
                };
                order_by.push(OrderBy { target, order });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                TokenKind::Int(n) if n >= 0 => Some(n as usize),
                _ => return Err(EngineError::parse("expected LIMIT count", self.position())),
            }
        } else {
            None
        };

        Ok(SelectStatement { items, table, where_clause, group_by, order_by, limit })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, EngineError> {
        // Aggregate call?
        let expr = if let TokenKind::Ident(name) = self.peek().clone() {
            if AggregateFunc::from_name(&name).is_some()
                && matches!(self.peek_at(1), TokenKind::LParen)
            {
                let func = AggregateFunc::from_name(&name).expect("checked");
                self.advance(); // name
                self.advance(); // (
                let arg = if self.eat(&TokenKind::Star) {
                    AggregateArg::Star
                } else {
                    AggregateArg::Expr(self.parse_expr()?)
                };
                self.expect(TokenKind::RParen, "')' after aggregate argument")?;
                SelectExpr::Aggregate(AggregateCall { func, arg })
            } else {
                self.parse_select_scalar()?
            }
        } else {
            self.parse_select_scalar()?
        };

        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident("alias")?)
        } else {
            match self.peek().clone() {
                TokenKind::Ident(name) if !is_reserved(&name) => {
                    self.advance();
                    Some(name)
                }
                _ => None,
            }
        };
        Ok(SelectItem { expr, alias })
    }

    fn parse_select_scalar(&mut self) -> Result<SelectExpr, EngineError> {
        let e = self.parse_expr()?;
        Ok(match e {
            Expr::Column(c) => SelectExpr::Column(c),
            other => SelectExpr::Scalar(other),
        })
    }

    /// expr := or
    fn parse_expr(&mut self) -> Result<Expr, EngineError> {
        Ok(self.parse_or()?.0)
    }

    fn parse_or(&mut self) -> Result<Parsed, EngineError> {
        let (mut left, mut depth) = self.parse_and()?;
        while self.eat_keyword("OR") {
            let (right, d) = self.parse_and()?;
            depth = self.node(&[depth, d])?;
            left = left.or(right);
        }
        Ok((left, depth))
    }

    fn parse_and(&mut self) -> Result<Parsed, EngineError> {
        let (mut left, mut depth) = self.parse_not()?;
        while self.eat_keyword("AND") {
            let (right, d) = self.parse_not()?;
            depth = self.node(&[depth, d])?;
            left = left.and(right);
        }
        Ok((left, depth))
    }

    fn parse_not(&mut self) -> Result<Parsed, EngineError> {
        if self.eat_keyword("NOT") {
            self.descend()?;
            let (e, d) = self.parse_not()?;
            self.nesting -= 1;
            Ok((e.not(), self.node(&[d])?))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Parsed, EngineError> {
        let (left, dl) = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let e = if negated { left.is_not_null() } else { left.is_null() };
            return Ok((e, self.node(&[dl])?));
        }

        // [NOT] BETWEEN / IN / LIKE / CONTAINS
        let negated = if self.peek().is_keyword("NOT")
            && (self.peek_at(1).is_keyword("BETWEEN")
                || self.peek_at(1).is_keyword("IN")
                || self.peek_at(1).is_keyword("LIKE")
                || self.peek_at(1).is_keyword("CONTAINS"))
        {
            self.advance();
            true
        } else {
            false
        };
        // `NOT BETWEEN` / `NOT LIKE` wrap their node in one more.
        let negate = |p: &Self, (e, d): Parsed| -> Result<Parsed, EngineError> {
            if negated {
                Ok((e.not(), p.node(&[d])?))
            } else {
                Ok((e, d))
            }
        };

        if self.eat_keyword("BETWEEN") {
            let (low, dlo) = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let (high, dhi) = self.parse_additive()?;
            let depth = self.node(&[dl, dlo, dhi])?;
            return negate(self, (left.between(low, high), depth));
        }
        if self.eat_keyword("IN") {
            self.expect(TokenKind::LParen, "'(' after IN")?;
            let mut list = Vec::new();
            let mut depths = vec![dl];
            loop {
                let (item, d) = self.parse_or()?;
                list.push(item);
                depths.push(d);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "')' after IN list")?;
            let depth = self.node(&depths)?;
            let e = if negated { left.not_in_list(list) } else { left.in_list(list) };
            return Ok((e, depth));
        }
        if self.eat_keyword("LIKE") || self.eat_keyword("CONTAINS") {
            let pattern = match self.advance() {
                TokenKind::Str(s) => s,
                _ => return Err(EngineError::parse("expected string pattern", self.position())),
            };
            let needle = pattern.trim_matches('%').to_string();
            let depth = self.node(&[dl])?;
            return negate(self, (left.contains(needle), depth));
        }

        let op = match self.peek() {
            TokenKind::Eq => Some(dbwipes_storage::BinaryOp::Eq),
            TokenKind::NotEq => Some(dbwipes_storage::BinaryOp::NotEq),
            TokenKind::Lt => Some(dbwipes_storage::BinaryOp::Lt),
            TokenKind::LtEq => Some(dbwipes_storage::BinaryOp::LtEq),
            TokenKind::Gt => Some(dbwipes_storage::BinaryOp::Gt),
            TokenKind::GtEq => Some(dbwipes_storage::BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let (right, dr) = self.parse_additive()?;
            let depth = self.node(&[dl, dr])?;
            return Ok((Expr::Binary { op, left: Box::new(left), right: Box::new(right) }, depth));
        }
        Ok((left, dl))
    }

    fn parse_additive(&mut self) -> Result<Parsed, EngineError> {
        let (mut left, mut depth) = self.parse_multiplicative()?;
        loop {
            let add = if self.eat(&TokenKind::Plus) {
                true
            } else if self.eat(&TokenKind::Minus) {
                false
            } else {
                return Ok((left, depth));
            };
            let (right, d) = self.parse_multiplicative()?;
            depth = self.node(&[depth, d])?;
            left = if add { left.add(right) } else { left.sub(right) };
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Parsed, EngineError> {
        let (mut left, mut depth) = self.parse_unary()?;
        loop {
            let mul = if self.eat(&TokenKind::Star) {
                true
            } else if self.eat(&TokenKind::Slash) {
                false
            } else {
                return Ok((left, depth));
            };
            let (right, d) = self.parse_unary()?;
            depth = self.node(&[depth, d])?;
            left = if mul { left.mul(right) } else { left.div(right) };
        }
    }

    fn parse_unary(&mut self) -> Result<Parsed, EngineError> {
        if self.eat(&TokenKind::Minus) {
            self.descend()?;
            let (inner, d) = self.parse_unary()?;
            self.nesting -= 1;
            // Fold negation of literals so `-5` is a literal, not an expression.
            return Ok(match inner {
                Expr::Literal(Value::Int(v)) => (Expr::Literal(Value::Int(-v)), d),
                Expr::Literal(Value::Float(v)) => (Expr::Literal(Value::Float(-v)), d),
                other => (other.neg(), self.node(&[d])?),
            });
        }
        if self.eat(&TokenKind::Plus) {
            self.descend()?;
            let parsed = self.parse_unary()?;
            self.nesting -= 1;
            return Ok(parsed);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Parsed, EngineError> {
        let position = self.position();
        let leaf = match self.advance() {
            TokenKind::Int(v) => Expr::Literal(Value::Int(v)),
            TokenKind::Float(v) => Expr::Literal(Value::Float(v)),
            TokenKind::Str(s) => Expr::Literal(Value::Str(s)),
            TokenKind::LParen => {
                self.descend()?;
                let parsed = self.parse_or()?;
                self.expect(TokenKind::RParen, "')'")?;
                self.nesting -= 1;
                return Ok(parsed);
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("true") {
                    Expr::Literal(Value::Bool(true))
                } else if name.eq_ignore_ascii_case("false") {
                    Expr::Literal(Value::Bool(false))
                } else if name.eq_ignore_ascii_case("null") {
                    Expr::Literal(Value::Null)
                } else if is_reserved(&name) {
                    return Err(EngineError::parse(format!("unexpected keyword {name}"), position));
                } else if matches!(self.peek(), TokenKind::LParen) {
                    return Err(EngineError::parse(
                        format!("function calls are not allowed here: {name}(...)"),
                        position,
                    ));
                } else {
                    Expr::Column(name)
                }
            }
            other => {
                return Err(EngineError::parse(format!("unexpected token {other:?}"), position))
            }
        };
        Ok((leaf, 1))
    }
}

fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "select", "from", "where", "group", "by", "order", "limit", "and", "or", "not", "between",
        "in", "like", "contains", "is", "as", "asc", "desc",
    ];
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggregateFunc, SelectExpr};

    #[test]
    fn parses_the_intel_sensor_query() {
        let q = parse_select(
            "SELECT hour, avg(temp), stddev(temp) FROM readings WHERE temp IS NOT NULL GROUP BY hour ORDER BY hour",
        )
        .unwrap();
        assert_eq!(q.table, "readings");
        assert_eq!(q.group_by, vec!["hour".to_string()]);
        assert_eq!(q.items.len(), 3);
        assert!(matches!(q.items[0].expr, SelectExpr::Column(_)));
        assert_eq!(q.aggregates().len(), 2);
        assert_eq!(q.aggregates()[0].func, AggregateFunc::Avg);
        assert_eq!(q.aggregates()[1].func, AggregateFunc::StdDev);
        assert!(q.where_clause.is_some());
        assert_eq!(q.order_by.len(), 1);
    }

    #[test]
    fn parses_the_fec_query_with_alias_and_limit() {
        let q = parse_select(
            "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day DESC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q.items[1].alias.as_deref(), Some("total"));
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.order_by[0].order, SortOrder::Desc);
        assert!(q.to_sql().contains("'McCain'"));
    }

    #[test]
    fn parses_count_star_and_bare_aliases() {
        let q =
            parse_select("SELECT candidate, count(*) n FROM donations GROUP BY candidate").unwrap();
        assert_eq!(q.items[1].alias.as_deref(), Some("n"));
        assert!(matches!(
            q.items[1].expr,
            SelectExpr::Aggregate(AggregateCall {
                func: AggregateFunc::Count,
                arg: AggregateArg::Star
            })
        ));
    }

    #[test]
    fn parses_complex_where_clauses() {
        let e = parse_expr("sensorid = 15 AND temp BETWEEN 100 AND 130 OR memo LIKE '%SPOUSE%'")
            .unwrap();
        let s = e.to_string();
        assert!(s.contains("sensorid = 15"));
        assert!(s.contains("BETWEEN 100 AND 130"));
        assert!(s.contains("LIKE '%SPOUSE%'"));

        let e = parse_expr("NOT (a IN (1, 2, 3)) AND b IS NULL").unwrap();
        assert!(e.to_string().contains("IN (1, 2, 3)"));

        let e = parse_expr("a NOT IN (1, 2)").unwrap();
        assert!(e.to_string().contains("NOT IN"));

        let e = parse_expr("amount < -100").unwrap();
        assert!(e.to_string().contains("-100"));

        let e = parse_expr("x NOT LIKE '%refund%'").unwrap();
        assert!(e.to_string().starts_with("NOT"));

        let e = parse_expr("x NOT BETWEEN 1 AND 2").unwrap();
        assert!(e.to_string().starts_with("NOT"));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3");
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3"); // rendering loses parens but tree differs
        let t = dbwipes_storage::Table::new(
            "t",
            dbwipes_storage::Schema::of(&[("x", dbwipes_storage::DataType::Int)]),
        )
        .unwrap();
        let mut t = t;
        t.push_row(vec![dbwipes_storage::Value::Int(0)]).unwrap();
        let rid = dbwipes_storage::RowId(0);
        assert_eq!(
            parse_expr("1 + 2 * 3").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Int(7)
        );
        assert_eq!(
            parse_expr("(1 + 2) * 3").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Int(9)
        );
        assert_eq!(
            parse_expr("true AND false OR true").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Bool(true)
        );
        assert_eq!(
            parse_expr("NULL IS NULL").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Bool(true)
        );
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_select("SELECT FROM t").is_err());
        assert!(parse_select("SELECT a b c FROM t").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT avg(temp FROM t").is_err());
        assert!(parse_select("SELECT a FROM t GROUP BY").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_select("SELECT a FROM t WHERE foo(1)").is_err());
        assert!(parse_select("SELECT a FROM t extra garbage !!!").is_err());
        assert!(parse_expr("a = ").is_err());
        assert!(parse_expr("a LIKE 5").is_err());
        assert!(parse_expr("a BETWEEN 1").is_err());
        assert!(parse_expr("WHERE").is_err());
    }

    /// Runs `f` on a thread with the 2 MiB stack server workers get.
    fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .expect("must not overflow a worker stack")
    }

    fn is_too_deep<T: std::fmt::Debug>(r: Result<T, EngineError>) -> bool {
        matches!(r, Err(EngineError::TooDeep { .. }))
    }

    /// Each of these overflowed a 2 MiB stack before the bound: in the
    /// parser (parentheses), while executing the statement (a flat chain of
    /// 10,000 terms), or while dropping it (70,000 terms).
    #[test]
    fn deep_client_expressions_are_refused_on_a_worker_stack() {
        let refused = on_worker_stack(|| {
            let parens =
                format!("SELECT a FROM t WHERE {}a{}", "(".repeat(100_000), ")".repeat(100_000));
            let chain = |n: usize| {
                format!("SELECT a FROM t WHERE {}temp > 1", "temp > 1 AND ".repeat(n - 1))
            };
            let nots = format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(100_000));
            let signs = format!("SELECT a FROM t WHERE a = {}1", "- ".repeat(100_000));
            let sums = format!("SELECT a FROM t WHERE a = 1{}", " + 1".repeat(10_000));
            [
                is_too_deep(parse_select(&parens)),
                is_too_deep(parse_select(&chain(10_000))),
                is_too_deep(parse_select(&chain(70_000))),
                is_too_deep(parse_select(&nots)),
                is_too_deep(parse_select(&signs)),
                is_too_deep(parse_select(&sums)),
            ]
        });
        assert_eq!(refused, [true; 6]);
    }

    /// Depth counts the tree the parser builds: a chain of `n` terms is
    /// `n` levels deep, parentheses that build no node count only toward
    /// the nesting bound, and input exactly at either bound is accepted.
    #[test]
    fn the_depth_bounds_are_exact() {
        let chain = |n: usize| format!("{}a", "a OR ".repeat(n - 1));
        assert!(parse_expr(&chain(MAX_EXPR_DEPTH)).is_ok());
        assert!(is_too_deep(parse_expr(&chain(MAX_EXPR_DEPTH + 1))));
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_expr(&parens(MAX_EXPR_NESTING)).is_ok());
        assert!(is_too_deep(parse_expr(&parens(MAX_EXPR_NESTING + 1))));
        let nots = |n: usize| format!("{}a", "NOT ".repeat(n));
        assert!(parse_expr(&nots(MAX_EXPR_NESTING)).is_ok());
        assert!(is_too_deep(parse_expr(&nots(MAX_EXPR_NESTING + 1))));
        // Chains inside the deepest parentheses still count toward depth.
        let nested_chain = format!(
            "{}{}{}",
            "(".repeat(MAX_EXPR_NESTING),
            chain(MAX_EXPR_DEPTH),
            ")".repeat(MAX_EXPR_NESTING)
        );
        assert!(parse_expr(&nested_chain).is_ok());
        let too_long = format!("{}a OR {}{}", "(".repeat(4), chain(MAX_EXPR_DEPTH), ")".repeat(4));
        assert!(is_too_deep(parse_expr(&too_long)));
        // Balanced nesting is as deep as its longest path, not its size.
        let mut balanced = "a = 1".to_string();
        for _ in 0..10 {
            balanced = format!("({balanced}) AND ({balanced})");
        }
        assert!(parse_expr(&balanced).is_ok());
        let err = parse_expr(&chain(MAX_EXPR_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("deeper than"), "{err}");
    }

    #[test]
    fn order_by_ordinal_and_multiple_terms() {
        let q = parse_select("SELECT a, sum(x) FROM t GROUP BY a ORDER BY 2 DESC, a ASC").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].target, "2");
        assert_eq!(q.order_by[0].order, SortOrder::Desc);
        assert_eq!(q.order_by[1].order, SortOrder::Asc);
    }
}

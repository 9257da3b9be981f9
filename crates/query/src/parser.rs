//! MMQL recursive-descent parser.

use udbms_core::{Direction, Error, Result, Value};

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};

/// Deepest nesting [`parse`] accepts — the JSON parser's default bound.
/// Parentheses, array and object constructors, call arguments, index
/// expressions, a subquery's `RETURN` and a chained unary operator each
/// count one level, and so does a clause (a subquery nested through a
/// `FOR` source or a `FILTER` keeps two lots of frames on the stack per
/// level, and counts two); an operator chain is one node however long
/// and costs none. The parser recurses per level, and so does
/// everything that walks the tree it returns.
const MAX_DEPTH: usize = 128;

/// Parse one MMQL statement.
pub fn parse(src: &str) -> Result<Statement> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.parse_statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of [`Parser::nested`] the parser is inside of.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (usize, usize) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let (line, col) = self.here();
        Error::parse("mmql", line, col, msg)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek().describe())))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// The operator of `ops` whose punctuation comes next, consumed.
    fn eat_op(&mut self, ops: &[(&str, BinOp)]) -> Option<BinOp> {
        let (_, op) = ops.iter().find(|(p, _)| self.eat_punct(p))?;
        Some(*op)
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {}", self.peek().describe())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected {} after statement",
                self.peek().describe()
            )))
        }
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword("INSERT") => {
                self.bump();
                let value = self.parse_expr()?;
                self.expect_kw("INTO")?;
                let collection = self.expect_ident()?;
                Ok(Statement::Insert { value, collection })
            }
            TokenKind::Keyword("UPDATE") => {
                self.bump();
                // additive level: a full expression would swallow the
                // `IN <collection>` terminator as a membership test
                let key = self.parse_additive()?;
                self.expect_kw("WITH")?;
                let patch = self.parse_additive()?;
                self.expect_kw("IN")?;
                let collection = self.expect_ident()?;
                Ok(Statement::Update {
                    key,
                    patch,
                    collection,
                })
            }
            TokenKind::Keyword("REMOVE") => {
                self.bump();
                let key = self.parse_additive()?;
                self.expect_kw("IN")?;
                let collection = self.expect_ident()?;
                Ok(Statement::Remove { key, collection })
            }
            _ => Ok(Statement::Query(self.parse_query_body()?)),
        }
    }

    fn parse_query_body(&mut self) -> Result<QueryBody> {
        let mut clauses = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Keyword("RETURN") => {
                    self.bump();
                    let distinct = self.eat_kw("DISTINCT");
                    let ret = self.parse_expr()?;
                    return Ok(QueryBody::new(clauses, distinct, ret));
                }
                _ => clauses.push(self.nested(Parser::parse_clause)?),
            }
        }
    }

    /// One clause other than `RETURN` (in a function of its own for the
    /// reason `parse_call` is: a nested subquery keeps the caller's frame).
    fn parse_clause(&mut self) -> Result<Clause> {
        match self.peek() {
            TokenKind::Keyword("FOR") => {
                self.bump();
                let var = self.expect_ident()?;
                self.expect_kw("IN")?;
                let source = self.parse_source()?;
                Ok(Clause::For { var, source })
            }
            TokenKind::Keyword("FILTER") => {
                self.bump();
                Ok(Clause::Filter(self.parse_expr()?))
            }
            TokenKind::Keyword("LET") => {
                self.bump();
                let var = self.expect_ident()?;
                self.expect_punct("=")?;
                Ok(Clause::Let {
                    var,
                    value: self.parse_expr()?,
                })
            }
            TokenKind::Keyword("SORT") => {
                self.bump();
                let mut keys = Vec::new();
                loop {
                    let e = self.parse_expr()?;
                    let asc = if self.eat_kw("DESC") {
                        false
                    } else {
                        let _ = self.eat_kw("ASC");
                        true
                    };
                    keys.push((e, asc));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                Ok(Clause::Sort { keys })
            }
            TokenKind::Keyword("LIMIT") => {
                self.bump();
                let first = self.parse_usize()?;
                let (offset, count) = if self.eat_punct(",") {
                    (first, self.parse_usize()?)
                } else {
                    (0, first)
                };
                Ok(Clause::Limit { offset, count })
            }
            TokenKind::Keyword("COLLECT") => {
                self.bump();
                self.parse_collect()
            }
            other => Err(self.err(format!(
                "expected a clause (FOR/FILTER/LET/SORT/LIMIT/COLLECT/RETURN), found {}",
                other.describe()
            ))),
        }
    }

    fn parse_usize(&mut self) -> Result<usize> {
        match self.bump() {
            TokenKind::Int(i) if i >= 0 => Ok(i as usize),
            other => Err(self.err(format!(
                "expected non-negative integer, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_collect(&mut self) -> Result<Clause> {
        let mut groups = Vec::new();
        // groups are optional: COLLECT AGGREGATE … is legal
        if matches!(self.peek(), TokenKind::Ident(_))
            && matches!(self.peek2(), TokenKind::Punct("="))
        {
            loop {
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                groups.push((name, self.parse_expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let mut aggregates = Vec::new();
        if self.eat_kw("AGGREGATE") {
            loop {
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                let func_name = self.expect_ident()?;
                let func = AggFunc::from_name(&func_name)
                    .ok_or_else(|| self.err(format!("unknown aggregate `{func_name}`")))?;
                self.expect_punct("(")?;
                let arg = if matches!(self.peek(), TokenKind::Punct(")")) {
                    Expr::Literal(Value::Int(1)) // COUNT()
                } else {
                    self.parse_expr()?
                };
                self.expect_punct(")")?;
                aggregates.push((name, func, arg));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let into = if self.eat_kw("INTO") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(Clause::Collect {
            groups,
            aggregates,
            into,
        })
    }

    fn parse_source(&mut self) -> Result<Source> {
        // traversal: INT .. INT (OUTBOUND|INBOUND|ANY) expr GRAPH ident [LABEL str]
        if matches!(self.peek(), TokenKind::Int(_))
            && matches!(self.peek2(), TokenKind::Punct(".."))
        {
            let min = self.parse_usize()?;
            self.expect_punct("..")?;
            let max = self.parse_usize()?;
            if max < min {
                return Err(self.err("traversal range must have min <= max"));
            }
            let dir = if self.eat_kw("OUTBOUND") {
                Direction::Out
            } else if self.eat_kw("INBOUND") {
                Direction::In
            } else if self.eat_kw("ANY") {
                Direction::Both
            } else {
                return Err(self.err("expected OUTBOUND, INBOUND or ANY"));
            };
            let start = self.parse_expr()?;
            self.expect_kw("GRAPH")?;
            let graph = self.expect_ident()?;
            let label = if self.eat_kw("LABEL") {
                match self.bump() {
                    TokenKind::Str(s) => Some(s),
                    other => {
                        return Err(
                            self.err(format!("expected label string, found {}", other.describe()))
                        )
                    }
                }
            } else {
                None
            };
            return Ok(Source::Traversal {
                min,
                max,
                dir,
                start: Box::new(start),
                graph,
                label,
            });
        }
        // bare identifier not followed by expression syntax = collection
        if matches!(self.peek(), TokenKind::Ident(_))
            && !matches!(
                self.peek2(),
                TokenKind::Punct(".") | TokenKind::Punct("[") | TokenKind::Punct("(")
            )
        {
            return Ok(Source::Collection(self.expect_ident()?));
        }
        Ok(Source::Expr(Box::new(self.parse_expr()?)))
    }

    // --- expressions, precedence climbing ---

    /// Run `parse` one nesting level down; an error past [`MAX_DEPTH`].
    /// Every cycle in the grammar passes through here.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("query nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Parser::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let first = self.parse_and()?;
        let mut links = Vec::new();
        while self.eat_kw("OR") || self.eat_punct("||") {
            links.push((BinOp::Or, self.parse_and()?));
        }
        Ok(Expr::chain(first, links))
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let first = self.parse_not()?;
        let mut links = Vec::new();
        while self.eat_kw("AND") || self.eat_punct("&&") {
            links.push((BinOp::And, self.parse_not()?));
        }
        Ok(Expr::chain(first, links))
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") || self.eat_punct("!") {
            let expr = self.nested(Parser::parse_not)?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(expr),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        let op = if self.eat_punct("==") {
            BinOp::Eq
        } else if self.eat_punct("!=") {
            BinOp::Ne
        } else if self.eat_punct("<=") {
            BinOp::Le
        } else if self.eat_punct(">=") {
            BinOp::Ge
        } else if self.eat_punct("<") {
            BinOp::Lt
        } else if self.eat_punct(">") {
            BinOp::Gt
        } else if self.eat_kw("IN") {
            BinOp::In
        } else if self.eat_kw("LIKE") {
            BinOp::Like
        } else {
            return Ok(lhs);
        };
        let rhs = self.parse_additive()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let first = self.parse_multiplicative()?;
        let mut links = Vec::new();
        while let Some(op) = self.eat_op(&[("+", BinOp::Add), ("-", BinOp::Sub)]) {
            links.push((op, self.parse_multiplicative()?));
        }
        Ok(Expr::chain(first, links))
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let first = self.parse_unary()?;
        let mut links = Vec::new();
        let ops = [("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)];
        while let Some(op) = self.eat_op(&ops) {
            links.push((op, self.parse_unary()?));
        }
        Ok(Expr::chain(first, links))
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_punct("-") {
            let expr = self.nested(Parser::parse_unary)?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(expr),
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        let mut steps: Vec<MemberStep> = Vec::new();
        loop {
            if self.eat_punct(".") {
                let field = self.expect_ident()?;
                steps.push(MemberStep::Field(field));
            } else if self.eat_punct("[") {
                let idx = self.parse_expr()?;
                self.expect_punct("]")?;
                steps.push(MemberStep::Index(Box::new(idx)));
            } else {
                break;
            }
        }
        if !steps.is_empty() {
            expr = Expr::Member {
                base: Box::new(expr),
                steps,
            };
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let (line, col) = self.here();
        match self.bump() {
            TokenKind::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            TokenKind::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            TokenKind::Param(name) => Ok(Expr::Param { name, line, col }),
            TokenKind::Keyword("TRUE") => Ok(Expr::Literal(Value::Bool(true))),
            TokenKind::Keyword("FALSE") => Ok(Expr::Literal(Value::Bool(false))),
            TokenKind::Keyword("NULL") => Ok(Expr::Literal(Value::Null)),
            TokenKind::Ident(name) => {
                if self.eat_punct("(") {
                    self.parse_call(name)
                } else {
                    Ok(Expr::Var(name))
                }
            }
            TokenKind::Punct("[") => self.parse_array_literal(),
            TokenKind::Punct("{") => self.parse_object_literal(),
            TokenKind::Punct("(") => self.parse_parenthesized(),
            other => Err(self.err(format!("unexpected {}", other.describe()))),
        }
    }
    // The constructs below are `parse_primary`'s arms, in functions of
    // their own so that the frames a nesting level leaves on the stack
    // stay small (an unoptimised build lays out every arm's temporaries
    // side by side).

    /// `name(` has been read: the arguments and `)`.
    fn parse_call(&mut self, name: String) -> Result<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.parse_expr()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(Expr::Call {
            name: name.to_ascii_uppercase(),
            args,
        })
    }

    /// `[` has been read: the items and `]`.
    fn parse_array_literal(&mut self) -> Result<Expr> {
        let mut items = Vec::new();
        if !self.eat_punct("]") {
            loop {
                items.push(self.parse_expr()?);
                if self.eat_punct("]") {
                    break;
                }
                self.expect_punct(",")?;
                if self.eat_punct("]") {
                    break; // trailing comma
                }
            }
        }
        Ok(Expr::Array(items))
    }

    /// `{` has been read: the fields and `}`.
    fn parse_object_literal(&mut self) -> Result<Expr> {
        let mut fields = Vec::new();
        if !self.eat_punct("}") {
            loop {
                let key = match self.bump() {
                    TokenKind::Ident(s) => s,
                    TokenKind::Str(s) => s,
                    TokenKind::Keyword(k) => k.to_ascii_lowercase(),
                    other => {
                        return Err(
                            self.err(format!("expected object key, found {}", other.describe()))
                        )
                    }
                };
                // {name} is shorthand for {name: name}
                let value = if self.eat_punct(":") {
                    self.parse_expr()?
                } else {
                    Expr::Var(key.clone())
                };
                fields.push((key, value));
                if self.eat_punct("}") {
                    break;
                }
                self.expect_punct(",")?;
                if self.eat_punct("}") {
                    break; // trailing comma
                }
            }
        }
        Ok(Expr::Object(fields))
    }

    /// `(` has been read: a subquery or a parenthesized expression.
    fn parse_parenthesized(&mut self) -> Result<Expr> {
        if matches!(
            self.peek(),
            TokenKind::Keyword("FOR") | TokenKind::Keyword("RETURN")
        ) {
            let body = self.parse_query_body()?;
            self.expect_punct(")")?;
            Ok(Expr::Subquery(Box::new(body)))
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(")")?;
            Ok(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(src: &str) -> QueryBody {
        match parse(src).unwrap() {
            Statement::Query(b) => b,
            other => panic!("expected query, got {other:?}"),
        }
    }

    fn wrapped(depth: usize, open: &str, close: &str) -> String {
        format!("RETURN {}1{}", open.repeat(depth), close.repeat(depth))
    }

    /// A literal under `depth` levels of each shape that costs one level.
    fn nested_shapes(depth: usize) -> [String; 5] {
        [
            wrapped(depth, "(", ")"),
            wrapped(depth, "[", "]"),
            wrapped(depth, "-", ""),
            wrapped(depth, "NOT ", ""),
            wrapped(depth, "(RETURN ", ")"),
        ]
    }

    /// The same for subqueries nested through a clause: two levels each.
    fn clause_nested_shapes(depth: usize) -> [String; 3] {
        [
            wrapped(depth, "(FOR v IN ", " RETURN v)"),
            wrapped(depth, "(FOR v IN xs FILTER ", " RETURN v)"),
            wrapped(depth, "(FOR v IN 1..2 OUTBOUND ", " GRAPH g RETURN v)"),
        ]
    }

    fn assert_too_deep(src: &str) {
        let err = parse(src).expect_err("too deep").to_string();
        assert!(err.contains("nests deeper"), "{err}");
        assert!(err.contains(" at 1:"), "located: {err}");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        for src in nested_shapes(MAX_DEPTH) {
            assert!(parse(&src).is_ok(), "depth {MAX_DEPTH}: {src:.40}…");
        }
        for src in clause_nested_shapes(MAX_DEPTH / 2) {
            assert!(parse(&src).is_ok(), "depth {}: {src:.40}…", MAX_DEPTH / 2);
        }
        for depth in [MAX_DEPTH + 1, 100_000] {
            nested_shapes(depth).iter().for_each(|s| assert_too_deep(s));
        }
        for depth in [MAX_DEPTH / 2 + 1, 100_000] {
            clause_nested_shapes(depth)
                .iter()
                .for_each(|s| assert_too_deep(s));
        }
    }

    #[test]
    fn minimal_query() {
        let body = q("RETURN 1");
        assert!(body.clauses.is_empty());
        assert_eq!(body.ret, Expr::int(1));
    }

    #[test]
    fn for_filter_return_pipeline() {
        let body = q(r#"FOR c IN customers FILTER c.country == "FI" RETURN c.name"#);
        assert_eq!(body.clauses.len(), 2);
        match &body.clauses[0] {
            Clause::For {
                var,
                source: Source::Collection(c),
            } => {
                assert_eq!(var, "c");
                assert_eq!(c, "customers");
            }
            other => panic!("{other:?}"),
        }
        match &body.clauses[1] {
            Clause::Filter(Expr::Binary {
                op: BinOp::Eq, lhs, ..
            }) => {
                assert_eq!(lhs.as_var_path().unwrap().1.to_string(), "country");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sort_limit_forms() {
        let body = q("FOR x IN t SORT x.a DESC, x.b LIMIT 5, 10 RETURN x");
        match &body.clauses[1] {
            Clause::Sort { keys } => {
                assert_eq!(keys.len(), 2);
                assert!(!keys[0].1, "DESC");
                assert!(keys[1].1, "default ASC");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            body.clauses[2],
            Clause::Limit {
                offset: 5,
                count: 10
            }
        );
        let body2 = q("FOR x IN t LIMIT 3 RETURN x");
        assert_eq!(
            body2.clauses[1],
            Clause::Limit {
                offset: 0,
                count: 3
            }
        );
    }

    #[test]
    fn collect_with_aggregates() {
        let body = q(
            "FOR o IN orders COLLECT country = o.country AGGREGATE total = SUM(o.amount), n = COUNT() INTO grp RETURN {country, total, n}",
        );
        match &body.clauses[1] {
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => {
                assert_eq!(groups.len(), 1);
                assert_eq!(groups[0].0, "country");
                assert_eq!(aggregates.len(), 2);
                assert_eq!(aggregates[0].1, AggFunc::Sum);
                assert_eq!(aggregates[1].1, AggFunc::Count);
                assert_eq!(into.as_deref(), Some("grp"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traversal_source() {
        let body = q("FOR v IN 1..3 OUTBOUND 42 GRAPH social LABEL \"knows\" RETURN v");
        match &body.clauses[0] {
            Clause::For {
                source:
                    Source::Traversal {
                        min,
                        max,
                        dir,
                        graph,
                        label,
                        ..
                    },
                ..
            } => {
                assert_eq!((*min, *max), (1, 3));
                assert_eq!(*dir, Direction::Out);
                assert_eq!(graph, "social");
                assert_eq!(label.as_deref(), Some("knows"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("FOR v IN 3..1 OUTBOUND 1 GRAPH g RETURN v").is_err());
    }

    #[test]
    fn for_over_expression_and_subquery() {
        let body = q("FOR x IN [1, 2, 3] RETURN x * 2");
        assert!(matches!(
            &body.clauses[0],
            Clause::For {
                source: Source::Expr(_),
                ..
            }
        ));

        let body = q("LET friends = (FOR f IN people RETURN f.name) RETURN friends");
        assert!(matches!(
            &body.clauses[0],
            Clause::Let {
                value: Expr::Subquery(_),
                ..
            }
        ));
    }

    #[test]
    fn object_shorthand_and_keyword_keys() {
        let body = q("RETURN {name, \"quoted key\": 1, filter: 2}");
        match &body.ret {
            Expr::Object(fields) => {
                assert_eq!(fields[0], ("name".into(), Expr::Var("name".into())));
                assert_eq!(fields[1].0, "quoted key");
                assert_eq!(fields[2].0, "filter");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 == 7 AND NOT false
        let body = q("RETURN 1 + 2 * 3 == 7 AND NOT FALSE");
        match &body.ret {
            Expr::Chain { first, links } => {
                assert!(matches!(first.as_ref(), Expr::Binary { op: BinOp::Eq, .. }));
                assert!(matches!(
                    &links[..],
                    [(BinOp::And, Expr::Unary { op: UnOp::Not, .. })]
                ));
            }
            other => panic!("{other:?}"),
        }
        // one flat node per level, its links in source order
        let a = || Box::new(Expr::Var("a".into()));
        assert_eq!(
            q("RETURN a - 1 + a * 2 OR a AND a").ret,
            Expr::Chain {
                first: Box::new(Expr::Chain {
                    first: a(),
                    links: vec![
                        (BinOp::Sub, Expr::int(1)),
                        (
                            BinOp::Add,
                            Expr::Chain {
                                first: a(),
                                links: vec![(BinOp::Mul, Expr::int(2))],
                            }
                        ),
                    ],
                }),
                links: vec![(
                    BinOp::Or,
                    Expr::Chain {
                        first: a(),
                        links: vec![(BinOp::And, *a())],
                    }
                )],
            }
        );
    }

    #[test]
    fn dml_statements() {
        assert!(matches!(
            parse("INSERT {name: \"Ada\"} INTO customers").unwrap(),
            Statement::Insert { .. }
        ));
        assert!(matches!(
            parse("UPDATE 5 WITH {status: \"paid\"} IN orders").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse("REMOVE \"o1\" IN orders").unwrap(),
            Statement::Remove { .. }
        ));
    }

    #[test]
    fn bind_parameters_parse_with_positions() {
        let body = q("FOR c IN customers FILTER c.id == @customer RETURN c");
        match &body.clauses[1] {
            Clause::Filter(Expr::Binary {
                op: BinOp::Eq, rhs, ..
            }) => match rhs.as_ref() {
                Expr::Param { name, line, col } => {
                    assert_eq!(name, "customer");
                    assert_eq!((*line, *col), (1, 35));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // params work anywhere an expression does
        let body = q(r#"LET p = DOCUMENT("products", @product) RETURN p"#);
        match &body.clauses[0] {
            Clause::Let {
                value: Expr::Call { args, .. },
                ..
            } => {
                assert!(matches!(&args[1], Expr::Param { name, .. } if name == "product"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn distinct_return() {
        assert!(q("FOR x IN t RETURN DISTINCT x.c").distinct);
        assert!(!q("FOR x IN t RETURN x.c").distinct);
    }

    #[test]
    fn parse_errors_are_positioned() {
        for bad in [
            "FOR",
            "FOR x",
            "FOR x IN",
            "RETURN",
            "FOR x IN t FILTER RETURN x",
            "FOR x IN t LIMIT -1 RETURN x",
            "RETURN {a:}",
            "RETURN (FOR x IN t)",
            "INSERT {} INTO",
            "FOR x IN t RETURN x extra",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn calls_and_membership() {
        let body = q("RETURN LENGTH(items) + COUNT(a, b)");
        match &body.ret {
            Expr::Chain { first, links } => {
                assert!(
                    matches!(first.as_ref(), Expr::Call { name, args } if name == "LENGTH" && args.len() == 1)
                );
                assert!(
                    matches!(&links[..], [(BinOp::Add, Expr::Call { name, args })] if name == "COUNT" && args.len() == 2)
                );
            }
            other => panic!("{other:?}"),
        }
        let body = q("FOR x IN t FILTER x.tag IN [\"a\", \"b\"] RETURN x");
        assert!(matches!(
            &body.clauses[1],
            Clause::Filter(Expr::Binary { op: BinOp::In, .. })
        ));
    }
}

//! Recursive-descent SQL parser.

use vertexica_storage::{DataType, Value};

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parses a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> SqlResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.eat_if(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a `;`-separated script into statements.
pub fn parse_script(sql: &str) -> SqlResult<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_if(&TokenKind::Semicolon) {}
        if p.peek_kind() == &TokenKind::Eof {
            break;
        }
        out.push(p.parse_statement()?);
        if p.peek_kind() != &TokenKind::Eof && !p.eat_if(&TokenKind::Semicolon) {
            return Err(p.err("expected ';' between statements"));
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

// Words that terminate an implicit alias.
const RESERVED: &[&str] = &[
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION", "JOIN", "INNER", "LEFT",
    "RIGHT", "CROSS", "ON", "SELECT", "AND", "OR", "NOT", "AS", "SET", "VALUES", "BY", "ASC",
    "DESC", "CASE", "WHEN", "THEN", "ELSE", "END", "DISTINCT", "IS", "IN", "BETWEEN", "LIKE",
    "WITH",
];

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_kind_at(&self, offset: usize) -> &TokenKind {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> SqlError {
        SqlError::Parse { message: msg.into(), position: self.peek().position }
    }

    fn eat_if(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kind().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek_kind())))
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> SqlResult<()> {
        if self.eat_if(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek_kind())))
        }
    }

    fn expect_eof(&self) -> SqlResult<()> {
        if self.peek_kind() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek_kind())))
        }
    }

    fn expect_ident(&mut self) -> SqlResult<String> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_statement(&mut self) -> SqlResult<Statement> {
        if self.peek_kind().is_kw("CREATE") {
            self.parse_create()
        } else if self.peek_kind().is_kw("DROP") {
            self.parse_drop()
        } else if self.peek_kind().is_kw("INSERT") {
            self.parse_insert()
        } else if self.peek_kind().is_kw("UPDATE") {
            self.parse_update()
        } else if self.peek_kind().is_kw("DELETE") {
            self.parse_delete()
        } else if self.peek_kind().is_kw("SELECT") || self.peek_kind().is_kw("WITH") {
            Ok(Statement::Query(Box::new(self.parse_query()?)))
        } else if self.eat_kw("EXPLAIN") {
            Ok(Statement::Explain(Box::new(self.parse_query()?)))
        } else {
            Err(self.err(format!("unexpected statement start: {:?}", self.peek_kind())))
        }
    }

    fn parse_create(&mut self) -> SqlResult<Statement> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        if self.eat_kw("AS") {
            let query = self.parse_query()?;
            return Ok(Statement::CreateTableAs { name, query: Box::new(query), if_not_exists });
        }
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.expect_ident()?;
            let type_name = self.expect_ident()?;
            let dtype = DataType::parse(&type_name)
                .ok_or_else(|| self.err(format!("unknown type {type_name}")))?;
            // Swallow optional length like VARCHAR(64).
            if self.eat_if(&TokenKind::LParen) {
                match self.peek_kind() {
                    TokenKind::Int(_) => {
                        self.advance();
                    }
                    _ => return Err(self.err("expected length in type")),
                }
                self.expect(&TokenKind::RParen)?;
            }
            let mut nullable = true;
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                nullable = false;
            } else if self.eat_kw("NULL") {
                // explicit NULL — default
            }
            // Ignore PRIMARY KEY annotations (no index support needed).
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                nullable = false;
            }
            columns.push(ColumnDef { name: col_name, dtype, nullable });
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                order_by.push(self.expect_ident()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(Statement::CreateTable { name, columns, order_by, if_not_exists })
    }

    fn parse_drop(&mut self) -> SqlResult<Statement> {
        self.expect_kw("DROP")?;
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn parse_insert(&mut self) -> SqlResult<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.peek_kind() == &TokenKind::LParen {
            // Could be column list or VALUES-less subquery; assume column list.
            self.advance();
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect(&TokenKind::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_if(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                rows.push(row);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
            Ok(Statement::Insert { table, columns, source: InsertSource::Values(rows) })
        } else {
            let query = self.parse_query()?;
            Ok(Statement::Insert { table, columns, source: InsertSource::Query(Box::new(query)) })
        }
    }

    fn parse_update(&mut self) -> SqlResult<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.expect_ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect(&TokenKind::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((col, value));
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update { table, assignments, filter })
    }

    fn parse_delete(&mut self) -> SqlResult<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.expect_ident()?;
        let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete { table, filter })
    }

    pub(crate) fn parse_query(&mut self) -> SqlResult<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("WITH") {
            loop {
                let name = self.expect_ident()?;
                self.expect_kw("AS")?;
                self.expect(&TokenKind::LParen)?;
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                ctes.push((name, q));
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut body = SetExpr::Select(Box::new(self.parse_select()?));
        while self.peek_kind().is_kw("UNION") {
            self.advance();
            self.expect_kw("ALL")?;
            let rhs = SetExpr::Select(Box::new(self.parse_select()?));
            body = SetExpr::UnionAll(Box::new(body), Box::new(rhs));
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderByExpr { expr, asc });
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.peek_kind().clone() {
                TokenKind::Int(n) if n >= 0 => {
                    self.advance();
                    Some(n as u64)
                }
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(Query { ctes, body, order_by, limit })
    }

    fn parse_select(&mut self) -> SqlResult<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("FROM") { Some(self.parse_table_ref()?) } else { None };
        let filter = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.parse_expr()?) } else { None };
        Ok(Select { distinct, items, from, filter, group_by, having })
    }

    fn parse_select_item(&mut self) -> SqlResult<SelectItem> {
        if self.peek_kind() == &TokenKind::Star {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // alias.*
        if let TokenKind::Ident(name) = self.peek_kind().clone() {
            if self.peek_kind_at(1) == &TokenKind::Dot && self.peek_kind_at(2) == &TokenKind::Star {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_optional_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.expect_ident()?));
        }
        match self.peek_kind().clone() {
            TokenKind::Ident(s) if !RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)) => {
                self.advance();
                Ok(Some(s))
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(Some(s))
            }
            _ => Ok(None),
        }
    }

    fn parse_table_ref(&mut self) -> SqlResult<TableRef> {
        let mut left = self.parse_table_factor()?;
        loop {
            let kind = if self.peek_kind().is_kw("JOIN") || self.peek_kind().is_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.peek_kind().is_kw("LEFT") {
                self.advance();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.peek_kind().is_kw("RIGHT") {
                self.advance();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Right
            } else if self.peek_kind().is_kw("CROSS") {
                self.advance();
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else if self.peek_kind() == &TokenKind::Comma {
                // `FROM a, b` is a cross join.
                self.advance();
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.parse_table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("ON")?;
                Some(self.parse_expr()?)
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn parse_table_factor(&mut self) -> SqlResult<TableRef> {
        if self.eat_if(&TokenKind::LParen) {
            let query = self.parse_query()?;
            self.expect(&TokenKind::RParen)?;
            self.eat_kw("AS");
            let alias = self.expect_ident()?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.expect_ident()?;
        let alias = self.parse_optional_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions (precedence climbing) ----

    pub(crate) fn parse_expr(&mut self) -> SqlResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> SqlResult<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> SqlResult<Expr> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.peek_kind().is_kw("IS") {
            self.advance();
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = if self.peek_kind().is_kw("NOT")
            && (self.peek_kind_at(1).is_kw("IN")
                || self.peek_kind_at(1).is_kw("BETWEEN")
                || self.peek_kind_at(1).is_kw("LIKE"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect(&TokenKind::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        let op = match self.peek_kind() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_additive()?;
        Ok(Expr::binary(left, op, right))
    }

    fn parse_additive(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Plus,
                TokenKind::Minus => BinaryOp::Minus,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Multiply,
                TokenKind::Slash => BinaryOp::Divide,
                TokenKind::Percent => BinaryOp::Modulo,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> SqlResult<Expr> {
        if self.eat_if(&TokenKind::Minus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat_if(&TokenKind::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> SqlResult<Expr> {
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::QuotedIdent(name) => {
                self.advance();
                self.parse_maybe_qualified(name)
            }
            TokenKind::Ident(word) => {
                // keywords that start expressions
                if word.eq_ignore_ascii_case("NULL") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Null));
                }
                if word.eq_ignore_ascii_case("TRUE") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if word.eq_ignore_ascii_case("FALSE") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if word.eq_ignore_ascii_case("CASE") {
                    return self.parse_case();
                }
                // Reserved words never begin an expression (catches e.g.
                // `SELECT FROM t`).
                if RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r)) {
                    return Err(self.err(format!("unexpected keyword {word} in expression")));
                }
                if word.eq_ignore_ascii_case("CAST") {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let inner = self.parse_expr()?;
                    self.expect_kw("AS")?;
                    let tname = self.expect_ident()?;
                    let dtype = DataType::parse(&tname)
                        .ok_or_else(|| self.err(format!("unknown type {tname}")))?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Cast { expr: Box::new(inner), dtype });
                }
                self.advance();
                // Function call?
                if self.peek_kind() == &TokenKind::LParen {
                    self.advance();
                    // COUNT(*)
                    if word.eq_ignore_ascii_case("COUNT") && self.peek_kind() == &TokenKind::Star {
                        self.advance();
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::CountStar);
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if self.peek_kind() != &TokenKind::RParen {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_if(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Function { name: word.to_ascii_lowercase(), args, distinct });
                }
                self.parse_maybe_qualified(word)
            }
            other => Err(self.err(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn parse_maybe_qualified(&mut self, first: String) -> SqlResult<Expr> {
        if self.peek_kind() == &TokenKind::Dot {
            self.advance();
            let col = self.expect_ident()?;
            Ok(Expr::Column(Some(first), col))
        } else {
            Ok(Expr::Column(None, first))
        }
    }

    fn parse_case(&mut self) -> SqlResult<Expr> {
        self.expect_kw("CASE")?;
        let mut when_then = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let t = self.parse_expr()?;
            when_then.push((w, t));
        }
        if when_then.is_empty() {
            return Err(self.err("CASE requires at least one WHEN"));
        }
        let else_expr = if self.eat_kw("ELSE") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { when_then, else_expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse_statement("SELECT a, b + 1 AS c FROM t WHERE a > 2 ORDER BY a DESC LIMIT 5")
            .unwrap();
        let Statement::Query(q) = s else { panic!("expected query") };
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].asc);
        let SetExpr::Select(sel) = &q.body else { panic!("expected select") };
        assert_eq!(sel.items.len(), 2);
        assert!(sel.filter.is_some());
    }

    #[test]
    fn parses_join_chain() {
        let s = parse_statement(
            "SELECT * FROM e1 JOIN e2 ON e1.dst = e2.src LEFT JOIN v ON v.id = e2.dst",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        let Some(TableRef::Join { kind, left, .. }) = &sel.from else { panic!() };
        assert_eq!(*kind, JoinKind::Left);
        assert!(matches!(**left, TableRef::Join { kind: JoinKind::Inner, .. }));
    }

    #[test]
    fn parses_group_by_having() {
        let s = parse_statement(
            "SELECT src, COUNT(*) AS cnt FROM edge GROUP BY src HAVING COUNT(*) > 10",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
    }

    #[test]
    fn parses_union_all() {
        let s = parse_statement("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3").unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert!(matches!(q.body, SetExpr::UnionAll(_, _)));
    }

    #[test]
    fn parses_cte() {
        let s = parse_statement("WITH deg AS (SELECT src FROM edge) SELECT * FROM deg").unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.ctes.len(), 1);
        assert_eq!(q.ctes[0].0, "deg");
    }

    #[test]
    fn parses_subquery_in_from() {
        let s =
            parse_statement("SELECT x FROM (SELECT src AS x FROM edge) sub WHERE x > 1").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        assert!(matches!(sel.from, Some(TableRef::Subquery { .. })));
    }

    #[test]
    fn parses_ddl() {
        let s = parse_statement(
            "CREATE TABLE vertex (id BIGINT NOT NULL, value VARBINARY, halted BOOLEAN) ORDER BY id",
        )
        .unwrap();
        let Statement::CreateTable { columns, order_by, .. } = s else { panic!() };
        assert_eq!(columns.len(), 3);
        assert!(!columns[0].nullable);
        assert_eq!(order_by, vec!["id".to_string()]);

        let s = parse_statement("DROP TABLE IF EXISTS msg").unwrap();
        assert!(matches!(s, Statement::DropTable { if_exists: true, .. }));
    }

    #[test]
    fn parses_ctas() {
        let s = parse_statement("CREATE TABLE t2 AS SELECT * FROM t1").unwrap();
        assert!(matches!(s, Statement::CreateTableAs { .. }));
    }

    #[test]
    fn parses_dml() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert { columns, source, .. } = s else { panic!() };
        assert_eq!(columns.len(), 2);
        assert!(matches!(source, InsertSource::Values(rows) if rows.len() == 2));

        let s = parse_statement("UPDATE v SET value = value + 1 WHERE id = 3").unwrap();
        assert!(matches!(s, Statement::Update { .. }));

        let s = parse_statement("DELETE FROM msg WHERE recipient < 0").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn parses_case_cast_in_between_like() {
        let s = parse_statement(
            "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END, CAST(a AS FLOAT), \
             b IN (1, 2, 3), c BETWEEN 1 AND 5, d NOT LIKE 'x%' FROM t",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        assert_eq!(sel.items.len(), 5);
    }

    #[test]
    fn parses_count_star_and_distinct() {
        let s = parse_statement("SELECT COUNT(*), COUNT(DISTINCT src) FROM edge").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        assert!(matches!(sel.items[0], SelectItem::Expr { expr: Expr::CountStar, .. }));
        assert!(matches!(
            &sel.items[1],
            SelectItem::Expr { expr: Expr::Function { distinct: true, .. }, .. }
        ));
    }

    #[test]
    fn operator_precedence() {
        let s = parse_statement("SELECT 1 + 2 * 3").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!() };
        // Must parse as 1 + (2 * 3).
        let Expr::Binary { op: BinaryOp::Plus, right, .. } = expr else { panic!() };
        assert!(matches!(**right, Expr::Binary { op: BinaryOp::Multiply, .. }));
    }

    #[test]
    fn not_precedence() {
        let s = parse_statement("SELECT * FROM t WHERE NOT a = 1 AND b = 2").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        // NOT binds tighter than AND: (NOT (a=1)) AND (b=2)
        let Some(Expr::Binary { op: BinaryOp::And, left, .. }) = &sel.filter else { panic!() };
        assert!(matches!(**left, Expr::Unary { op: UnaryOp::Not, .. }));
    }

    #[test]
    fn parse_script_splits_statements() {
        let stmts =
            parse_script("CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn error_has_position() {
        let e = parse_statement("SELECT FROM").unwrap_err();
        assert!(matches!(e, SqlError::Parse { .. }));
    }

    #[test]
    fn comma_cross_join() {
        let s = parse_statement("SELECT * FROM a, b WHERE a.x = b.y").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = &q.body else { panic!() };
        assert!(matches!(sel.from, Some(TableRef::Join { kind: JoinKind::Cross, .. })));
    }
}

//! Recursive-descent parser for the SQL dialect.

use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, ForeignKey, TableSchema};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Token};
use crate::value::{DataType, Value};

/// Parse a single SQL statement (a trailing `;` is allowed).
pub(crate) fn parse_statement(sql: &str) -> DbResult<Stmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, params: 0 };
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    if !p.at_end() {
        return Err(DbError::Parse(format!("trailing tokens after statement: {:?}", p.peek())));
    }
    Ok(stmt)
}

/// Parse a script of `;`-separated statements.
pub(crate) fn parse_script(sql: &str) -> DbResult<Vec<Stmt>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, params: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        if p.eat(&Token::Semicolon) {
            continue;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> DbResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(DbError::Parse(format!("expected {:?}, found {:?}", t, self.peek())))
        }
    }

    /// True if the next token is the given keyword (case-insensitive).
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn peek_kw_at(&self, offset: usize, kw: &str) -> bool {
        matches!(self.tokens.get(self.pos + offset), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn identifier(&mut self) -> DbResult<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(DbError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------------- stmts

    fn statement(&mut self) -> DbResult<Stmt> {
        if self.eat_kw("SELECT") {
            self.pos -= 1;
            return Ok(Stmt::Select(Box::new(self.select()?)));
        }
        if self.eat_kw("EXPLAIN") {
            let q = self.select()?;
            return Ok(Stmt::Explain(Box::new(q)));
        }
        if self.eat_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("DROP") {
            return self.drop();
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("BEGIN") {
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Stmt::Rollback);
        }
        Err(DbError::Parse(format!("unexpected start of statement: {:?}", self.peek())))
    }

    fn create(&mut self) -> DbResult<Stmt> {
        let or_replace = if self.eat_kw("OR") {
            self.expect_kw("REPLACE")?;
            true
        } else {
            false
        };
        if self.eat_kw("TABLE") {
            let if_not_exists = if self.eat_kw("IF") {
                self.expect_kw("NOT")?;
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.identifier()?;
            let schema = self.table_body(name)?;
            return Ok(Stmt::CreateTable { schema, if_not_exists });
        }
        if self.eat_kw("VIEW") {
            let name = self.identifier()?;
            self.expect_kw("AS")?;
            self.expect_kw("SELECT")?;
            self.pos -= 1;
            let query = self.select()?;
            return Ok(Stmt::CreateView { name, query: Box::new(query), or_replace });
        }
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.identifier()?;
            self.expect_kw("ON")?;
            let table = self.identifier()?;
            self.expect(&Token::LParen)?;
            let mut columns = vec![self.identifier()?];
            while self.eat(&Token::Comma) {
                columns.push(self.identifier()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(Stmt::CreateIndex { name, table, columns, unique });
        }
        Err(DbError::Parse("expected TABLE, VIEW, or INDEX after CREATE".into()))
    }

    fn table_body(&mut self, name: String) -> DbResult<TableSchema> {
        self.expect(&Token::LParen)?;
        let mut schema = TableSchema::new(name, Vec::new());
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect(&Token::LParen)?;
                let mut cols = vec![self.identifier()?];
                while self.eat(&Token::Comma) {
                    cols.push(self.identifier()?);
                }
                self.expect(&Token::RParen)?;
                schema.primary_key = Some(cols);
            } else if self.eat_kw("FOREIGN") {
                self.expect_kw("KEY")?;
                self.expect(&Token::LParen)?;
                let mut cols = vec![self.identifier()?];
                while self.eat(&Token::Comma) {
                    cols.push(self.identifier()?);
                }
                self.expect(&Token::RParen)?;
                self.expect_kw("REFERENCES")?;
                let ref_table = self.identifier()?;
                self.expect(&Token::LParen)?;
                let mut ref_cols = vec![self.identifier()?];
                while self.eat(&Token::Comma) {
                    ref_cols.push(self.identifier()?);
                }
                self.expect(&Token::RParen)?;
                schema.foreign_keys.push(ForeignKey {
                    columns: cols,
                    ref_table,
                    ref_columns: ref_cols,
                });
            } else if self.eat_kw("UNIQUE") {
                self.expect(&Token::LParen)?;
                let mut cols = vec![self.identifier()?];
                while self.eat(&Token::Comma) {
                    cols.push(self.identifier()?);
                }
                self.expect(&Token::RParen)?;
                schema.uniques.push(cols);
            } else {
                // Column definition.
                let col_name = self.identifier()?;
                let ty_name = self.identifier()?;
                // Swallow optional length like VARCHAR(100).
                if self.eat(&Token::LParen) {
                    while !self.eat(&Token::RParen) {
                        self.next();
                    }
                }
                let data_type = DataType::parse(&ty_name)?;
                let mut col = ColumnDef::new(col_name.clone(), data_type);
                loop {
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        col = col.not_null();
                    } else if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        schema.primary_key = Some(vec![col_name.clone()]);
                        col = col.not_null();
                    } else if self.eat_kw("REFERENCES") {
                        let ref_table = self.identifier()?;
                        self.expect(&Token::LParen)?;
                        let ref_col = self.identifier()?;
                        self.expect(&Token::RParen)?;
                        schema.foreign_keys.push(ForeignKey {
                            columns: vec![col_name.clone()],
                            ref_table,
                            ref_columns: vec![ref_col],
                        });
                    } else if self.eat_kw("UNIQUE") {
                        schema.uniques.push(vec![col_name.clone()]);
                    } else {
                        break;
                    }
                }
                schema.columns.push(col);
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(schema)
    }

    fn drop(&mut self) -> DbResult<Stmt> {
        if self.eat_kw("TABLE") {
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.identifier()?;
            return Ok(Stmt::DropTable { name, if_exists });
        }
        if self.eat_kw("VIEW") {
            let name = self.identifier()?;
            return Ok(Stmt::DropView { name });
        }
        if self.eat_kw("INDEX") {
            let name = self.identifier()?;
            return Ok(Stmt::DropIndex { name });
        }
        Err(DbError::Parse("expected TABLE, VIEW, or INDEX after DROP".into()))
    }

    fn insert(&mut self) -> DbResult<Stmt> {
        self.expect_kw("INTO")?;
        let table = self.identifier()?;
        let columns = if self.eat(&Token::LParen) {
            let mut cols = vec![self.identifier()?];
            while self.eat(&Token::Comma) {
                cols.push(self.identifier()?);
            }
            self.expect(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                row.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            values.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert { table, columns, values })
    }

    fn update(&mut self) -> DbResult<Stmt> {
        let table = self.identifier()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect(&Token::Eq)?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Update { table, sets, where_clause })
    }

    fn delete(&mut self) -> DbResult<Stmt> {
        self.expect_kw("FROM")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Delete { table, where_clause })
    }

    // --------------------------------------------------------------- select

    fn select(&mut self) -> DbResult<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut stmt = SelectStmt { distinct: self.eat_kw("DISTINCT"), ..Default::default() };
        loop {
            stmt.items.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        if self.eat_kw("FROM") {
            loop {
                stmt.from.push(self.parse_from_item()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("WHERE") {
            stmt.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                stmt.order_by.push(OrderItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") || self.eat_kw("FETCH") {
            // Accept both `LIMIT n` and Db2's `FETCH FIRST n ROWS ONLY`.
            self.eat_kw("FIRST");
            match self.next() {
                Some(Token::IntLit(n)) => stmt.limit = Some(n),
                other => {
                    return Err(DbError::Parse(format!("expected LIMIT count, got {other:?}")))
                }
            }
            self.eat_kw("ROWS");
            self.eat_kw("ROW");
            self.eat_kw("ONLY");
        }
        Ok(stmt)
    }

    fn select_item(&mut self) -> DbResult<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.*
        if let (Some(Token::Ident(q)), Some(Token::Dot), Some(Token::Star)) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS")
            || matches!(self.peek(), Some(Token::Ident(s)) if !is_clause_keyword(s))
        {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from_item(&mut self) -> DbResult<FromItem> {
        let source = self.table_source()?;
        let mut joins = Vec::new();
        loop {
            let left_outer = if self.peek_kw("LEFT") {
                self.eat_kw("LEFT");
                self.eat_kw("OUTER");
                true
            } else if self.peek_kw("INNER") && self.peek_kw_at(1, "JOIN") {
                self.eat_kw("INNER");
                false
            } else if self.peek_kw("JOIN") {
                false
            } else {
                break;
            };
            self.expect_kw("JOIN")?;
            let src = self.table_source()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            joins.push(Join { source: src, on, left_outer });
        }
        Ok(FromItem { source, joins })
    }

    fn table_source(&mut self) -> DbResult<TableSource> {
        // TABLE(fn(args)) AS alias (col type, ...)
        if self.peek_kw("TABLE") && self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
            self.eat_kw("TABLE");
            self.expect(&Token::LParen)?;
            let fname = self.identifier()?;
            self.expect(&Token::LParen)?;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                args.push(self.expr()?);
                while self.eat(&Token::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect(&Token::RParen)?;
            self.expect(&Token::RParen)?;
            self.eat_kw("AS");
            let alias = self.identifier()?;
            self.expect(&Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                let cname = self.identifier()?;
                let tname = self.identifier()?;
                columns.push((cname, DataType::parse(&tname)?));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(TableSource::Function { name: fname, args, alias, columns });
        }
        // (SELECT ...) AS alias
        if self.peek() == Some(&Token::LParen) {
            self.expect(&Token::LParen)?;
            let query = self.select()?;
            self.expect(&Token::RParen)?;
            self.eat_kw("AS");
            let alias = self.identifier()?;
            return Ok(TableSource::Subquery { query: Box::new(query), alias });
        }
        let name = self.identifier()?;
        let alias = if self.eat_kw("AS")
            || matches!(self.peek(), Some(Token::Ident(s)) if !is_clause_keyword(s))
        {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(TableSource::Named { name, alias })
    }

    // ---------------------------------------------------------------- exprs

    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> DbResult<Expr> {
        let left = self.additive()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.additive()?;
            return Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) });
        }
        // IN / NOT IN / LIKE / NOT LIKE / IS [NOT] NULL / BETWEEN
        let negated = self.peek_kw("NOT")
            && (self.peek_kw_at(1, "IN")
                || self.peek_kw_at(1, "LIKE")
                || self.peek_kw_at(1, "BETWEEN"));
        if negated {
            self.eat_kw("NOT");
        }
        if self.eat_kw("IN") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                list.push(self.expr()?);
                while self.eat(&Token::Comma) {
                    list.push(self.expr()?);
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            let ge = Expr::Binary {
                op: BinOp::GtEq,
                left: Box::new(left.clone()),
                right: Box::new(low),
            };
            let le = Expr::Binary { op: BinOp::LtEq, left: Box::new(left), right: Box::new(high) };
            let both = ge.and(le);
            return Ok(if negated {
                Expr::Unary { op: UnaryOp::Not, expr: Box::new(both) }
            } else {
                both
            });
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        Ok(left)
    }

    fn additive(&mut self) -> DbResult<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.multiplicative()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> DbResult<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.next();
            let right = self.unary()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> DbResult<Expr> {
        if self.eat(&Token::Minus) {
            // i64::MIN's magnitude does not fit in a bare integer literal
            // (the lexer emits unsigned magnitudes), so fold the sign here
            // before `primary` range-checks the literal.
            if let Some(Token::IntLit(m)) = self.peek() {
                let m = *m;
                if m <= i64::MAX as u64 + 1 {
                    self.next();
                    return Ok(Expr::Literal(Value::Bigint((m as i64).wrapping_neg())));
                }
            }
            let inner = self.unary()?;
            // Fold negative literals directly.
            return Ok(match inner {
                Expr::Literal(Value::Bigint(v)) => Expr::Literal(Value::Bigint(-v)),
                Expr::Literal(Value::Double(v)) => Expr::Literal(Value::Double(-v)),
                other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> DbResult<Expr> {
        match self.next() {
            Some(Token::IntLit(v)) => {
                let v = i64::try_from(v).map_err(|_| {
                    DbError::Parse(format!("integer literal {v} out of BIGINT range"))
                })?;
                Ok(Expr::Literal(Value::Bigint(v)))
            }
            Some(Token::FloatLit(v)) => Ok(Expr::Literal(Value::Double(v))),
            Some(Token::StringLit(s)) => Ok(Expr::Literal(Value::Varchar(s))),
            Some(Token::Param) => {
                let id = self.params;
                self.params += 1;
                Ok(Expr::Param(id))
            }
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::QuotedIdent(name)) => self.column_or_call(name, true),
            Some(Token::Ident(name)) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => Ok(Expr::Literal(Value::Null)),
                    "TRUE" => Ok(Expr::Literal(Value::Boolean(true))),
                    "FALSE" => Ok(Expr::Literal(Value::Boolean(false))),
                    _ => self.column_or_call(name, false),
                }
            }
            other => Err(DbError::Parse(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn column_or_call(&mut self, name: String, quoted: bool) -> DbResult<Expr> {
        if !quoted && self.peek() == Some(&Token::LParen) {
            self.next();
            // Function call.
            let distinct = self.eat_kw("DISTINCT");
            if self.eat(&Token::Star) {
                self.expect(&Token::RParen)?;
                return Ok(Expr::Function { name, args: vec![], distinct, star: true });
            }
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                args.push(self.expr()?);
                while self.eat(&Token::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function { name, args, distinct, star: false });
        }
        if self.eat(&Token::Dot) {
            let col = self.identifier()?;
            return Ok(Expr::Column { qualifier: Some(name), name: col });
        }
        Ok(Expr::Column { qualifier: None, name })
    }
}

/// Keywords that end an implicit alias position.
fn is_clause_keyword(s: &str) -> bool {
    matches!(
        s.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "FETCH"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "ON"
            | "AS"
            | "UNION"
            | "AND"
            | "OR"
            | "SET"
            | "VALUES"
            | "DESC"
            | "ASC"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table_with_constraints() {
        let stmt = parse_statement(
            "CREATE TABLE HasDisease (
                patientID BIGINT NOT NULL,
                diseaseID BIGINT NOT NULL,
                description VARCHAR(200),
                FOREIGN KEY (patientID) REFERENCES Patient(patientID),
                FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID)
            )",
        )
        .unwrap();
        match stmt {
            Stmt::CreateTable { schema, .. } => {
                assert_eq!(schema.name, "HasDisease");
                assert_eq!(schema.columns.len(), 3);
                assert_eq!(schema.foreign_keys.len(), 2);
                assert!(!schema.has_primary_key());
                assert!(!schema.columns[0].nullable);
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parse_inline_pk_and_references() {
        let stmt = parse_statement(
            "CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, parent BIGINT REFERENCES Disease(diseaseID))",
        )
        .unwrap();
        match stmt {
            Stmt::CreateTable { schema, .. } => {
                assert_eq!(schema.primary_key, Some(vec!["diseaseID".to_string()]));
                assert_eq!(schema.foreign_keys.len(), 1);
                assert_eq!(schema.foreign_keys[0].ref_table, "Disease");
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parse_select_with_everything() {
        let stmt = parse_statement(
            "SELECT p.patientID, COUNT(*) AS n FROM Patient AS p \
             JOIN HasDisease h ON p.patientID = h.patientID \
             WHERE p.name = 'Alice' AND h.diseaseID IN (1, 2, 3) \
             GROUP BY p.patientID HAVING COUNT(*) > 1 \
             ORDER BY n DESC LIMIT 10",
        )
        .unwrap();
        let q = match stmt {
            Stmt::Select(q) => q,
            _ => panic!("wrong stmt"),
        };
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].joins.len(), 1);
        assert!(q.where_clause.is_some());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parse_table_function_in_from() {
        let stmt = parse_statement(
            "SELECT patientID FROM TABLE(graphQuery('gremlin', 'g.V()')) AS P (patientID BIGINT, subscriptionID BIGINT)",
        )
        .unwrap();
        let q = match stmt {
            Stmt::Select(q) => q,
            _ => panic!("wrong stmt"),
        };
        match &q.from[0].source {
            TableSource::Function { name, args, alias, columns } => {
                assert_eq!(name, "graphQuery");
                assert_eq!(args.len(), 2);
                assert_eq!(alias, "P");
                assert_eq!(columns.len(), 2);
                assert_eq!(columns[0].1, DataType::Bigint);
            }
            other => panic!("expected function source, got {other:?}"),
        }
    }

    #[test]
    fn parse_insert_update_delete() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match s {
            Stmt::Insert { table, columns, values } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap().len(), 2);
                assert_eq!(values.len(), 2);
            }
            _ => panic!(),
        }
        let s = parse_statement("UPDATE t SET a = a + 1, b = 'y' WHERE a < 5").unwrap();
        match s {
            Stmt::Update { sets, where_clause, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(where_clause.is_some());
            }
            _ => panic!(),
        }
        let s = parse_statement("DELETE FROM t WHERE b IS NOT NULL").unwrap();
        match s {
            Stmt::Delete { where_clause: Some(Expr::IsNull { negated: true, .. }), .. } => {}
            other => panic!("bad delete: {other:?}"),
        }
    }

    #[test]
    fn parse_params_numbered_in_order() {
        let s = parse_statement("SELECT * FROM t WHERE a = ? AND b IN (?, ?)").unwrap();
        let q = match s {
            Stmt::Select(q) => q,
            _ => panic!(),
        };
        let mut params = Vec::new();
        q.where_clause.as_ref().unwrap().walk(&mut |e| {
            if let Expr::Param(i) = e {
                params.push(*i);
            }
        });
        assert_eq!(params, vec![0, 1, 2]);
    }

    #[test]
    fn parse_between_and_not_in() {
        let s =
            parse_statement("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b NOT IN (1)").unwrap();
        assert!(matches!(s, Stmt::Select(_)));
        let s = parse_statement("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 5").unwrap();
        assert!(matches!(s, Stmt::Select(_)));
    }

    #[test]
    fn parse_operator_precedence() {
        let s = parse_statement("SELECT 1 + 2 * 3").unwrap();
        let q = match s {
            Stmt::Select(q) => q,
            _ => panic!(),
        };
        match &q.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("bad precedence: {other:?}"),
        }
    }

    #[test]
    fn parse_fetch_first_syntax() {
        let s = parse_statement("SELECT * FROM t FETCH FIRST 5 ROWS ONLY").unwrap();
        match s {
            Stmt::Select(q) => assert_eq!(q.limit, Some(5)),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_script_multiple_statements() {
        let stmts =
            parse_script("CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn parse_subquery_in_from() {
        let s = parse_statement("SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x > 1").unwrap();
        let q = match s {
            Stmt::Select(q) => q,
            _ => panic!(),
        };
        assert!(matches!(&q.from[0].source, TableSource::Subquery { alias, .. } if alias == "sub"));
    }

    #[test]
    fn parse_explain_and_txn() {
        assert!(matches!(parse_statement("EXPLAIN SELECT * FROM t").unwrap(), Stmt::Explain(_)));
        assert!(matches!(parse_statement("BEGIN").unwrap(), Stmt::Begin));
        assert!(matches!(parse_statement("COMMIT").unwrap(), Stmt::Commit));
        assert!(matches!(parse_statement("ROLLBACK").unwrap(), Stmt::Rollback));
    }

    #[test]
    fn trailing_tokens_rejected() {
        // `SELECT 1 garbage` parses `garbage` as an implicit alias; truly
        // malformed trailing tokens must error.
        assert!(parse_statement("SELECT 1 FROM t extra, ,").is_err());
        assert!(parse_statement("SELECT 1 FROM t )").is_err());
    }
}

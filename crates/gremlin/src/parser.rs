//! Lexer and recursive-descent parser for the Gremlin subset.

use crate::ast::*;
use crate::error::{GResult, GremlinError};
use crate::step::CompareOp;
use crate::structure::GValue;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Assign,
    EqEq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

fn tokenize(input: &str) -> GResult<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' if !bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) => {
                out.push(Token::Dot);
                i += 1;
            }
            ';' => {
                out.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::EqEq);
                    i += 2;
                } else {
                    out.push(Token::Assign);
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::LtEq);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::GtEq);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    if j >= bytes.len() {
                        return Err(GremlinError::Parse("unterminated string".into()));
                    }
                    let ch = input[j..].chars().next().unwrap();
                    if ch == '\\' {
                        // Escapes: \' \" \\ \n \t
                        let next = input[j + 1..].chars().next().ok_or_else(|| {
                            GremlinError::Parse("dangling escape in string".into())
                        })?;
                        s.push(match next {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                        j += 1 + next.len_utf8();
                    } else if ch == quote {
                        j += 1;
                        break;
                    } else {
                        s.push(ch);
                        j += ch.len_utf8();
                    }
                }
                out.push(Token::Str(s));
                i = j;
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if !is_float
                            && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) =>
                        {
                            is_float = true;
                            i += 1;
                        }
                        b'e' | b'E' if i > start => {
                            is_float = true;
                            i += 1;
                            if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &input[start..i];
                if text == "-" {
                    return Err(GremlinError::Parse("stray '-'".into()));
                }
                if is_float {
                    out.push(Token::Float(
                        text.parse()
                            .map_err(|_| GremlinError::Parse(format!("bad float '{text}'")))?,
                    ));
                } else {
                    out.push(Token::Int(
                        text.parse()
                            .map_err(|_| GremlinError::Parse(format!("bad integer '{text}'")))?,
                    ));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(GremlinError::Parse(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

/// Maximum nesting depth of step calls (anonymous traversals, predicates)
/// the parser accepts. The recursive descent otherwise recurses once per
/// nesting level, so adversarial input like `f(f(f(…)))` would overflow
/// the stack — an abort, not an error a server can map to 400. Real
/// queries nest a handful of levels; 64 is far beyond any of them.
pub(crate) const MAX_NESTING_DEPTH: usize = 64;

/// Parse a Gremlin script (one or more `;`-separated statements).
pub fn parse(input: &str) -> GResult<Script> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let mut statements = Vec::new();
    while !p.at_end() {
        if p.eat(&Token::Semicolon) {
            continue;
        }
        statements.push(p.statement()?);
    }
    if statements.is_empty() {
        return Err(GremlinError::Parse("empty script".into()));
    }
    Ok(Script { statements })
}

/// Predicate function names (TinkerPop `P`).
fn is_pred_name(name: &str) -> bool {
    matches!(
        name,
        "eq" | "neq" | "gt" | "gte" | "lt" | "lte" | "within" | "without" | "between" | "inside"
    )
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current step-call nesting depth (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

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

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> GResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(GremlinError::Parse(format!("expected {:?}, found {:?}", t, self.peek())))
        }
    }

    fn statement(&mut self) -> GResult<Statement> {
        // Optional `name =` assignment.
        let assign = if let (Some(Token::Ident(name)), Some(Token::Assign)) =
            (self.tokens.get(self.pos), self.tokens.get(self.pos + 1))
        {
            if name != "g" {
                let name = name.clone();
                self.pos += 2;
                Some(name)
            } else {
                None
            }
        } else {
            None
        };

        // Must start with `g`.
        match self.next() {
            Some(Token::Ident(g)) if g == "g" => {}
            other => {
                return Err(GremlinError::Parse(format!(
                    "traversal must start with 'g', found {other:?}"
                )))
            }
        }
        self.expect(&Token::Dot)?;
        let start = self.step_call()?;
        if start.name != "V" && start.name != "E" {
            return Err(GremlinError::Parse(format!(
                "traversal source must be g.V(...) or g.E(...), found g.{}",
                start.name
            )));
        }
        let mut steps = Vec::new();
        let mut terminal = None;
        while self.eat(&Token::Dot) {
            let call = self.step_call()?;
            match call.name.as_str() {
                "next" => {
                    terminal = Some(Terminal::Next);
                    break;
                }
                "toList" => {
                    terminal = Some(Terminal::ToList);
                    break;
                }
                "iterate" => {
                    terminal = Some(Terminal::Iterate);
                    break;
                }
                "explain" => {
                    terminal = Some(Terminal::Explain);
                    break;
                }
                "profile" => {
                    terminal = Some(Terminal::Profile);
                    break;
                }
                _ => steps.push(call),
            }
        }
        Ok(Statement { assign, traversal: SourceCall { start, steps }, terminal })
    }

    fn step_call(&mut self) -> GResult<StepCall> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(GremlinError::Parse(format!(
                "query nesting exceeds the maximum depth of {MAX_NESTING_DEPTH}"
            )));
        }
        self.depth += 1;
        let out = self.step_call_inner();
        self.depth -= 1;
        out
    }

    fn step_call_inner(&mut self) -> GResult<StepCall> {
        let name = match self.next() {
            Some(Token::Ident(n)) => n,
            other => {
                return Err(GremlinError::Parse(format!("expected step name, found {other:?}")))
            }
        };
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            args.push(self.arg()?);
            while self.eat(&Token::Comma) {
                args.push(self.arg()?);
            }
        }
        self.expect(&Token::RParen)?;
        Ok(StepCall { name, args })
    }

    fn arg(&mut self) -> GResult<Arg> {
        let base = self.arg_base()?;
        // Comparison sugar after an anonymous traversal.
        if let Arg::Anon(trav) = &base {
            let op = match self.peek() {
                Some(Token::EqEq) => Some(CompareOp::Eq),
                Some(Token::NotEq) => Some(CompareOp::Neq),
                Some(Token::Lt) => Some(CompareOp::Lt),
                Some(Token::LtEq) => Some(CompareOp::Lte),
                Some(Token::Gt) => Some(CompareOp::Gt),
                Some(Token::GtEq) => Some(CompareOp::Gte),
                _ => None,
            };
            if let Some(op) = op {
                self.next();
                let value = self.arg_base()?;
                return Ok(Arg::Compare { traversal: trav.clone(), op, value: Box::new(value) });
            }
        }
        Ok(base)
    }

    fn arg_base(&mut self) -> GResult<Arg> {
        match self.peek().cloned() {
            Some(Token::Str(s)) => {
                self.next();
                Ok(Arg::Value(GValue::Str(s)))
            }
            Some(Token::Int(v)) => {
                self.next();
                Ok(Arg::Value(GValue::Long(v)))
            }
            Some(Token::Float(v)) => {
                self.next();
                Ok(Arg::Value(GValue::Double(v)))
            }
            Some(Token::Ident(name)) => {
                self.next();
                match name.as_str() {
                    "true" => return Ok(Arg::Value(GValue::Bool(true))),
                    "false" => return Ok(Arg::Value(GValue::Bool(false))),
                    "null" => return Ok(Arg::Value(GValue::Null)),
                    _ => {}
                }
                // `__` prefix for anonymous traversals: `__.out(...)`.
                if name == "__" {
                    self.expect(&Token::Dot)?;
                    let mut steps = vec![self.step_call()?];
                    while self.eat(&Token::Dot) {
                        steps.push(self.step_call()?);
                    }
                    return Ok(Arg::Anon(steps));
                }
                if self.peek() == Some(&Token::LParen) {
                    // Either a predicate or an anonymous traversal step.
                    self.pos -= 1; // rewind to re-parse as a call
                    let call = self.step_call()?;
                    if is_pred_name(&call.name) {
                        return Ok(Arg::Pred(PredArg { name: call.name, args: call.args }));
                    }
                    let mut steps = vec![call];
                    while self.eat(&Token::Dot) {
                        steps.push(self.step_call()?);
                    }
                    return Ok(Arg::Anon(steps));
                }
                // Bare identifier: a script variable (or order modulators
                // `asc`/`desc`, passed through as strings).
                if name == "asc" || name == "desc" || name == "incr" || name == "decr" {
                    return Ok(Arg::Value(GValue::Str(name)));
                }
                Ok(Arg::Var(name))
            }
            other => Err(GremlinError::Parse(format!("unexpected token in argument: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_chain() {
        let s = parse("g.V().hasLabel('patient').has('name', 'Alice').outE()").unwrap();
        assert_eq!(s.statements.len(), 1);
        let st = &s.statements[0];
        assert_eq!(st.traversal.start.name, "V");
        let names: Vec<&str> = st.traversal.steps.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["hasLabel", "has", "outE"]);
        assert!(st.terminal.is_none());
        assert!(st.assign.is_none());
    }

    #[test]
    fn parse_ids_and_numbers() {
        let s = parse("g.V(1, 2, -3).has('score', 4.5)").unwrap();
        let st = &s.statements[0];
        assert_eq!(
            st.traversal.start.args,
            vec![
                Arg::Value(GValue::Long(1)),
                Arg::Value(GValue::Long(2)),
                Arg::Value(GValue::Long(-3))
            ]
        );
        assert_eq!(st.traversal.steps[0].args[1], Arg::Value(GValue::Double(4.5)));
    }

    #[test]
    fn parse_assignment_and_multi_statement() {
        let s = parse(
            "xs = g.V().hasLabel('d').store('x').cap('x').next(); g.V(xs).in('hasDisease').dedup()",
        )
        .unwrap();
        assert_eq!(s.statements.len(), 2);
        assert_eq!(s.statements[0].assign.as_deref(), Some("xs"));
        assert_eq!(s.statements[0].terminal, Some(Terminal::Next));
        assert_eq!(s.statements[1].traversal.start.args, vec![Arg::Var("xs".into())]);
    }

    #[test]
    fn parse_repeat_with_anonymous_traversal() {
        let s = parse("g.V(1).repeat(out('isa').dedup().store('x')).times(2).cap('x')").unwrap();
        let st = &s.statements[0];
        assert_eq!(st.traversal.steps[0].name, "repeat");
        match &st.traversal.steps[0].args[0] {
            Arg::Anon(steps) => {
                let names: Vec<&str> = steps.iter().map(|c| c.name.as_str()).collect();
                assert_eq!(names, vec!["out", "dedup", "store"]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(st.traversal.steps[1].name, "times");
    }

    #[test]
    fn parse_predicates() {
        let s = parse("g.V().has('age', gt(30)).has('tag', within('a', 'b'))").unwrap();
        let st = &s.statements[0];
        match &st.traversal.steps[0].args[1] {
            Arg::Pred(p) => {
                assert_eq!(p.name, "gt");
                assert_eq!(p.args, vec![Arg::Value(GValue::Long(30))]);
            }
            other => panic!("{other:?}"),
        }
        match &st.traversal.steps[1].args[1] {
            Arg::Pred(p) => assert_eq!(p.name, "within"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_comparison_filter() {
        // The LinkBench getLink query shape from Table 1.
        let s = parse("g.V(7).outE('follows').filter(outV().id() == 9)").unwrap();
        let st = &s.statements[0];
        match &st.traversal.steps[1].args[0] {
            Arg::Compare { traversal, op, value } => {
                assert_eq!(traversal.len(), 2);
                assert_eq!(*op, CompareOp::Eq);
                assert_eq!(**value, Arg::Value(GValue::Long(9)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_dunder_anonymous() {
        let s = parse("g.V().where(__.out('isa').hasLabel('disease'))").unwrap();
        match &s.statements[0].traversal.steps[0].args[0] {
            Arg::Anon(steps) => assert_eq!(steps[0].name, "out"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_escaped_strings() {
        let s = parse(r"g.V().has('name', 'O\'Brien')").unwrap();
        match &s.statements[0].traversal.steps[0].args[1] {
            Arg::Value(GValue::Str(v)) => assert_eq!(v, "O'Brien"),
            other => panic!("{other:?}"),
        }
        // Double-quoted strings also accepted.
        let s = parse(r#"g.V().has("name", "Alice")"#).unwrap();
        assert_eq!(s.statements.len(), 1);
    }

    #[test]
    fn parse_rejects_bad_sources() {
        assert!(parse("h.V()").is_err());
        assert!(parse("g.addV('x')").is_err());
        assert!(parse("").is_err());
        assert!(parse("g.V(").is_err());
        assert!(parse("g.V().has('unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // f(f(f(…))) used to recurse once per level; past the guard it is
        // a structured parse error a server can turn into a 400.
        let deep = format!("g.V().where({}out(){}", "not(".repeat(10_000), ")".repeat(10_000));
        match parse(&deep) {
            Err(GremlinError::Parse(m)) => assert!(m.contains("nesting"), "{m}"),
            other => panic!("expected nesting error, got {other:?}"),
        }
        // Nesting below the limit still parses.
        let ok = format!("g.V().where({}out(){})", "not(".repeat(20), ")".repeat(20));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn parse_order_modulators() {
        let s = parse("g.V().order().by('name', desc).limit(5)").unwrap();
        let st = &s.statements[0];
        assert_eq!(st.traversal.steps[1].name, "by");
        assert_eq!(st.traversal.steps[1].args[1], Arg::Value(GValue::Str("desc".into())));
    }
}

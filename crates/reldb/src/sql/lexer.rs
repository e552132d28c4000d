//! SQL tokenizer.

use crate::error::{DbError, DbResult};

/// A lexical token of the SQL dialect.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Unquoted identifier or keyword (kept verbatim; keyword matching is
    /// case-insensitive at the parser).
    Ident(String),
    /// Double-quoted identifier (case preserved, never a keyword).
    QuotedIdent(String),
    /// Single-quoted string literal, with `''` unescaped.
    StringLit(String),
    /// Integer literal.
    /// Unsigned magnitude; a preceding `-` is a separate token folded by
    /// the parser, which lets `-9223372036854775808` (i64::MIN) lex.
    IntLit(u64),
    /// Floating point literal.
    FloatLit(f64),
    /// `?` positional parameter.
    Param,
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Semicolon,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Slash,
}

/// Tokenize SQL text. Supports `--` line comments.
pub(crate) fn tokenize(input: &str) -> DbResult<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' if !bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Param);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token::StringLit(s));
                i = next;
            }
            '"' => {
                let end = input[i + 1..]
                    .find('"')
                    .ok_or_else(|| DbError::Parse("unterminated quoted identifier".into()))?;
                tokens.push(Token::QuotedIdent(input[i + 1..i + 1 + end].to_string()));
                i = i + 1 + end + 1;
            }
            c if c.is_ascii_digit()
                || (c == '.' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())) =>
            {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' || b == '$' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(DbError::Parse(format!("unexpected character '{other}' at byte {i}")))
            }
        }
    }
    Ok(tokens)
}

fn lex_string(input: &str, start: usize) -> DbResult<(String, usize)> {
    // start points at the opening quote.
    let bytes = input.as_bytes();
    let mut out = String::new();
    let mut i = start + 1;
    loop {
        if i >= bytes.len() {
            return Err(DbError::Parse("unterminated string literal".into()));
        }
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                out.push('\'');
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // Advance over a full UTF-8 character.
            let ch_len = input[i..].chars().next().map(|c| c.len_utf8()).unwrap_or(1);
            out.push_str(&input[i..i + ch_len]);
            i += ch_len;
        }
    }
}

fn lex_number(input: &str, start: usize) -> DbResult<(Token, usize)> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut is_float = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' if !is_float => {
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
    if is_float {
        text.parse::<f64>()
            .map(|v| (Token::FloatLit(v), i))
            .map_err(|_| DbError::Parse(format!("bad float literal '{text}'")))
    } else {
        text.parse::<u64>()
            .map(|v| (Token::IntLit(v), i))
            .map_err(|_| DbError::Parse(format!("bad integer literal '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select_tokens() {
        let toks = tokenize("SELECT * FROM t WHERE a = 1 AND b <> 'x'").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[1], Token::Star);
        assert!(toks.contains(&Token::Eq));
        assert!(toks.contains(&Token::NotEq));
        assert!(toks.contains(&Token::StringLit("x".into())));
    }

    #[test]
    fn string_escaping_and_unicode() {
        let toks = tokenize("'O''Brien' 'héllo'").unwrap();
        assert_eq!(toks[0], Token::StringLit("O'Brien".into()));
        assert_eq!(toks[1], Token::StringLit("héllo".into()));
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn numbers_ints_floats_and_exponents() {
        let toks = tokenize("42 3.5 1e3 2.5E-2 .5").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::IntLit(42),
                Token::FloatLit(3.5),
                Token::FloatLit(1000.0),
                Token::FloatLit(0.025),
                Token::FloatLit(0.5),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("< <= > >= = <> !=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::Eq,
                Token::NotEq,
                Token::NotEq
            ]
        );
    }

    #[test]
    fn comments_and_params_and_quoted_idents() {
        let toks = tokenize("SELECT a -- comment\nFROM \"Weird Name\" WHERE x = ?").unwrap();
        assert!(toks.contains(&Token::QuotedIdent("Weird Name".into())));
        assert!(toks.contains(&Token::Param));
        assert!(!toks.iter().any(|t| matches!(t, Token::Ident(s) if s == "comment")));
    }

    #[test]
    fn dot_vs_decimal() {
        let toks = tokenize("t.col 1.5").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("col".into()),
                Token::FloatLit(1.5)
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("a @ b").is_err());
    }
}

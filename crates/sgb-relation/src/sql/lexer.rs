//! SQL tokenizer.

use crate::error::{Error, Result};

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword (original spelling preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semicolon,
}

impl Token {
    /// `true` when the token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes `input`, skipping whitespace and `--` line comments.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
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
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            ';' => {
                out.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(Error::Parse("stray '!'".into()));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Le);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(Error::Parse("unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Multi-byte UTF-8 safe: copy the full char.
                        let Some(ch) = input.get(i..).and_then(|rest| rest.chars().next()) else {
                            return Err(Error::Parse("malformed string literal".into()));
                        };
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i + 1 < bytes.len()
                    && bytes[i] == b'.'
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| {
                        Error::Parse(format!("bad float literal '{text}'"))
                    })?));
                } else {
                    out.push(Token::Int(text.parse().map_err(|_| {
                        Error::Parse(format!("bad integer literal '{text}'"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(input[start..i].to_owned()));
            }
            other => {
                // Reject anything else, including non-ASCII: step over the
                // *whole* character so the error does not split a UTF-8
                // sequence.
                let ch = input[i..].chars().next().unwrap_or(other);
                return Err(Error::Parse(format!("unexpected character '{ch}'")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query_tokens() {
        let toks = tokenize("SELECT count(*) FROM t WHERE a >= 1.5;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("count".into()),
                Token::LParen,
                Token::Star,
                Token::RParen,
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("a".into()),
                Token::Ge,
                Token::Float(1.5),
                Token::Semicolon,
            ]
        );
    }

    #[test]
    fn hyphenated_similarity_keywords_split() {
        let toks = tokenize("GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3").unwrap();
        assert!(toks.contains(&Token::Minus));
        assert!(toks.iter().any(|t| t.is_kw("distance")));
        assert!(toks.iter().any(|t| t.is_kw("linf")));
        assert_eq!(*toks.last().unwrap(), Token::Int(3));
    }

    #[test]
    fn string_literals_and_escapes() {
        let toks = tokenize("'abc' 'it''s' ''").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("abc".into()),
                Token::Str("it's".into()),
                Token::Str("".into())
            ]
        );
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT a -- trailing comment\nFROM t").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("< <= > >= = <> !=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne
            ]
        );
    }

    #[test]
    fn scientific_notation() {
        let toks = tokenize("1e3 2.5E-2 7").unwrap();
        assert_eq!(
            toks,
            vec![Token::Float(1000.0), Token::Float(0.025), Token::Int(7)]
        );
    }

    #[test]
    fn qualified_names() {
        let toks = tokenize("r1.c_custkey").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("r1".into()),
                Token::Dot,
                Token::Ident("c_custkey".into())
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("a ? b").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn non_ascii_outside_strings_is_rejected_not_panicking() {
        // Regression (found by proptest): multi-byte characters used to be
        // byte-indexed into identifiers and panic on slicing.
        assert!(tokenize("SELECT café FROM t").is_err());
        assert!(tokenize("é").is_err());
        assert!(tokenize("\u{00A0}").is_err()); // non-breaking space
                                                // Inside string literals any UTF-8 is fine.
        assert_eq!(tokenize("'café'").unwrap(), vec![Token::Str("café".into())]);
    }
}

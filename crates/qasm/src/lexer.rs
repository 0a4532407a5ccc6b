use crate::QasmError;

/// A lexical token with its source position. Tokens borrow their text
/// from the source, so they are `Copy` and lexing allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: u32,
    pub column: u32,
}

/// Token kinds of the OpenQASM 2.0 subset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TokenKind<'a> {
    /// Identifier or keyword (`qreg`, `h`, `q`, ...).
    Ident(&'a str),
    /// Digits only, at most 19 of them (so the value fits a `u64`).
    Int(u64),
    /// Any other numeric literal. The parser still accepts an integral
    /// real where an integer is required (`q[1.0]`).
    Real(f64),
    /// String literal contents (only used by `include`).
    Str(&'a str),
    /// `OPENQASM` keyword (case-sensitive per the grammar).
    OpenQasm,
    Semicolon,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Plus,
    Minus,
    Star,
    Slash,
    Arrow,
    Eof,
}

impl TokenKind<'_> {
    /// Short printable form for error messages.
    pub fn describe(&self) -> String {
        let fixed = match self {
            TokenKind::Ident(s) => return format!("`{s}`"),
            // Integers print as the `f64` they denote, as every literal
            // did when all numbers lexed to `f64`.
            TokenKind::Int(v) => return format!("number `{}`", *v as f64),
            TokenKind::Real(v) => return format!("number `{v}`"),
            TokenKind::Str(s) => return format!("string \"{s}\""),
            TokenKind::OpenQasm => "`OPENQASM`",
            TokenKind::Semicolon => "`;`",
            TokenKind::Comma => "`,`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::LBracket => "`[`",
            TokenKind::RBracket => "`]`",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::Plus => "`+`",
            TokenKind::Minus => "`-`",
            TokenKind::Star => "`*`",
            TokenKind::Slash => "`/`",
            TokenKind::Arrow => "`->`",
            TokenKind::Eof => "end of input",
        };
        fixed.into()
    }
}

/// On-demand lexer: [`Lexer::next_token`] scans one token at a time.
/// `//` line comments are skipped. Lines and columns are 1-based and
/// count bytes.
pub(crate) struct Lexer<'a> {
    source: &'a str,
    pos: usize,
    line: u32,
    column: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(source: &'a str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    /// Scans the next token. At the end of the source this returns `Eof`,
    /// and keeps returning it. A failed scan stops at the offending
    /// token, so calling again reports the same error.
    pub fn next_token(&mut self) -> Result<Token<'a>, QasmError> {
        let bytes = self.source.as_bytes();
        self.skip_trivia();
        let (line, column) = (self.line, self.column);
        let start = self.pos;
        let Some(&c) = bytes.get(start) else {
            return Ok(Token {
                kind: TokenKind::Eof,
                line,
                column,
            });
        };
        let error = |message: String| QasmError::new(line, column, message);
        let (kind, len) = match c {
            b';' => (TokenKind::Semicolon, 1),
            b',' => (TokenKind::Comma, 1),
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b'[' => (TokenKind::LBracket, 1),
            b']' => (TokenKind::RBracket, 1),
            b'{' => (TokenKind::LBrace, 1),
            b'}' => (TokenKind::RBrace, 1),
            b'+' => (TokenKind::Plus, 1),
            b'*' => (TokenKind::Star, 1),
            b'/' => (TokenKind::Slash, 1),
            b'-' if bytes.get(start + 1) == Some(&b'>') => (TokenKind::Arrow, 2),
            b'-' => (TokenKind::Minus, 1),
            b'"' => {
                let body = &bytes[start + 1..];
                match body.iter().position(|&b| b == b'"' || b == b'\n') {
                    Some(end) if body[end] == b'"' => (
                        TokenKind::Str(&self.source[start + 1..start + 1 + end]),
                        end + 2,
                    ),
                    _ => return Err(error("unterminated string literal".into())),
                }
            }
            b'0'..=b'9' | b'.' => {
                let len = number_len(&bytes[start..]);
                let text = &self.source[start..start + len];
                let kind = match integer(text) {
                    Some(v) => TokenKind::Int(v),
                    None => TokenKind::Real(
                        text.parse()
                            .map_err(|_| error(format!("invalid number literal `{text}`")))?,
                    ),
                };
                (kind, len)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let len = bytes[start..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - start);
                let text = &self.source[start..start + len];
                let kind = match text {
                    "OPENQASM" => TokenKind::OpenQasm,
                    _ => TokenKind::Ident(text),
                };
                (kind, len)
            }
            // A byte, not a char: a multi-byte UTF-8 sequence is reported
            // by its lead byte.
            other => return Err(error(format!("unexpected character `{}`", other as char))),
        };
        self.pos += len;
        self.column += len as u32;
        Ok(Token { kind, line, column })
    }

    /// Scans `[digits]` right after the previous token: the index of
    /// nearly every gate argument (`q[12]`), read without going through
    /// three tokens. Returns `None` and consumes nothing when the source
    /// holds anything else there (spaces, a real, a comment, more than 9
    /// digits), which the token path then handles.
    #[inline]
    pub fn index_suffix(&mut self) -> Option<u32> {
        let rest = &self.source.as_bytes()[self.pos..];
        let digits = rest
            .get(1..)?
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if rest[0] != b'[' || digits == 0 || digits > 9 || rest.get(1 + digits) != Some(&b']') {
            return None;
        }
        let index = rest[1..=digits]
            .iter()
            .fold(0, |v, &b| v * 10 + u32::from(b - b'0'));
        self.pos += digits + 2;
        self.column += digits as u32 + 2;
        Some(index)
    }

    /// Lexes the rest of the source and returns its first lexical error.
    /// Lexical errors outrank syntax errors wherever they sit in the
    /// source, so the parser asks this before reporting one of its own.
    pub fn first_error_in_rest(&mut self) -> Option<QasmError> {
        loop {
            match self.next_token() {
                Ok(Token {
                    kind: TokenKind::Eof,
                    ..
                }) => return None,
                Ok(_) => {}
                Err(e) => return Some(e),
            }
        }
    }

    /// Skips whitespace and `//` comments. A comment does not advance the
    /// column; the newline that ends it resets it.
    fn skip_trivia(&mut self) {
        let bytes = self.source.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.column = 1;
                }
                b' ' | b'\t' | b'\r' => self.column += 1,
                b'/' if bytes.get(self.pos + 1) == Some(&b'/') => {
                    self.pos += bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .unwrap_or(bytes.len() - self.pos);
                    continue;
                }
                _ => return,
            }
            self.pos += 1;
        }
    }
}

/// Length of the numeric literal at the start of `bytes`: digits, at most
/// one `.` before any exponent, and one `e`/`E` exponent with an optional
/// sign. Whether the text is a valid number is decided by `f64` parsing.
fn number_len(bytes: &[u8]) -> usize {
    let mut end = 0;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while let Some(&b) = bytes.get(end) {
        match b {
            b'0'..=b'9' => end += 1,
            b'.' if !seen_dot && !seen_exp => {
                seen_dot = true;
                end += 1;
            }
            b'e' | b'E' if !seen_exp && end > 0 => {
                seen_exp = true;
                end += 1;
                if matches!(bytes.get(end), Some(b'+' | b'-')) {
                    end += 1;
                }
            }
            _ => break,
        }
    }
    end
}

/// The value of an all-digit literal of at most 19 digits. Longer or
/// non-digit literals go through `f64` parsing, which rounds the same way
/// `u64 as f64` does, so a literal denotes the same angle either way.
fn integer(text: &str) -> Option<u64> {
    if text.len() > 19 || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(text.bytes().fold(0u64, |v, b| v * 10 + u64::from(b - b'0')))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Result<Vec<Token<'_>>, QasmError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let token = lexer.next_token()?;
            out.push(token);
            if token.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokens(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_header() {
        let k = kinds("OPENQASM 2.0;");
        assert_eq!(
            k,
            vec![
                TokenKind::OpenQasm,
                TokenKind::Real(2.0),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_gate_application() {
        let k = kinds("cx q[0], q[1];");
        assert_eq!(k[0], TokenKind::Ident("cx"));
        assert_eq!(k[1], TokenKind::Ident("q"));
        assert_eq!(k[2], TokenKind::LBracket);
        assert_eq!(k[3], TokenKind::Int(0));
        assert_eq!(k[4], TokenKind::RBracket);
        assert_eq!(k[5], TokenKind::Comma);
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let k = kinds("h q[0]; // apply hadamard\nx q[1];");
        let idents: Vec<_> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Ident(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["h", "q", "x", "q"]);
    }

    #[test]
    fn tracks_line_numbers() {
        let tokens = tokens("h q[0];\nx q[1];").unwrap();
        let x_tok = tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("x"))
            .unwrap();
        assert_eq!(x_tok.line, 2);
        assert_eq!(x_tok.column, 1);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("3")[0], TokenKind::Int(3));
        assert_eq!(kinds("3.5")[0], TokenKind::Real(3.5));
        assert_eq!(kinds("1e-3")[0], TokenKind::Real(1e-3));
        assert_eq!(kinds("2.5E+2")[0], TokenKind::Real(250.0));
        assert_eq!(kinds(".5")[0], TokenKind::Real(0.5));
        assert_eq!(
            kinds("9999999999999999999")[0],
            TokenKind::Int(9_999_999_999_999_999_999)
        );
        assert_eq!(kinds("99999999999999999999")[0], TokenKind::Real(1e20));
    }

    #[test]
    fn lexes_string_literal() {
        assert_eq!(
            kinds("include \"qelib1.inc\";")[1],
            TokenKind::Str("qelib1.inc")
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        let err = tokens("include \"qelib1").unwrap_err();
        assert!(err.message().contains("unterminated"));
    }

    #[test]
    fn arrow_and_minus() {
        assert_eq!(kinds("->")[0], TokenKind::Arrow);
        assert_eq!(kinds("-")[0], TokenKind::Minus);
        assert_eq!(kinds("a -> b")[1], TokenKind::Arrow,);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = tokens("h q[0]; @").unwrap_err();
        assert!(err.message().contains('@'));
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn expression_tokens() {
        let k = kinds("(pi/2 + -0.5*3)");
        assert!(k.contains(&TokenKind::Ident("pi")));
        assert!(k.contains(&TokenKind::Slash));
        assert!(k.contains(&TokenKind::Plus));
        assert!(k.contains(&TokenKind::Minus));
        assert!(k.contains(&TokenKind::Star));
    }

    #[test]
    fn end_of_input_repeats_and_errors_stick() {
        let mut lexer = Lexer::new("x");
        lexer.next_token().unwrap();
        for _ in 0..2 {
            let eof = lexer.next_token().unwrap();
            assert_eq!((eof.kind, eof.line, eof.column), (TokenKind::Eof, 1, 2));
        }
        let mut lexer = Lexer::new("  @");
        let first = lexer.next_token().unwrap_err();
        assert_eq!(lexer.next_token().unwrap_err(), first);
        assert_eq!(first.column(), 3);
    }

    #[test]
    fn index_suffix_reads_only_the_plain_form() {
        for (src, expected) in [
            ("[12];", Some((12, 5))),
            ("[0]", Some((0, 4))),
            ("[007]", Some((7, 6))),
            ("[999999999]", Some((999_999_999, 12))),
            ("[1234567890]", None),
            ("[ 1]", None),
            ("[1 ]", None),
            ("[1.0]", None),
            ("[]", None),
            ("[", None),
            ("", None),
        ] {
            let mut lexer = Lexer::new(src);
            let got = lexer.index_suffix().map(|i| (i, lexer.column));
            assert_eq!(got, expected, "{src:?}");
            if expected.is_none() {
                assert_eq!((lexer.pos, lexer.column), (0, 1), "{src:?} consumed");
            }
        }
    }
}

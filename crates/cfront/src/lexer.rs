//! The C lexer.
//!
//! Tokenizes the C subset used by the paper's workloads: all the operators
//! the paper calls out as problematic for vectorization (`++`, `--`, `?:`,
//! `&&`, `||`, embedded assignment, compound assignment), the keywords of
//! K&R C plus the ANSI additions the Titan front end supported (`volatile`,
//! prototypes via ordinary syntax, `void`).

use crate::error::{Diagnostic, Span};
use std::fmt;

/// A lexical token kind.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok {
    /// Integer literal.
    IntLit(i64),
    /// Floating literal; `true` when suffixed `f`/`F` (single precision).
    FloatLit(f64, bool),
    /// Character literal (value of the character).
    CharLit(i64),
    /// String literal (unescaped contents).
    StrLit(String),
    /// Identifier.
    Ident(String),
    /// Keyword.
    Kw(Kw),
    /// Punctuator or operator.
    Punct(Punct),
    /// `#pragma safe` — the §9 loop-independence assertion.
    PragmaSafe,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::IntLit(v) => write!(f, "{v}"),
            Tok::FloatLit(v, _) => write!(f, "{v}"),
            Tok::CharLit(v) => write!(f, "'{v}'"),
            Tok::StrLit(s) => write!(f, "{s:?}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Kw(k) => write!(f, "{k:?}"),
            Tok::Punct(p) => write!(f, "{}", p.as_str()),
            Tok::PragmaSafe => write!(f, "#pragma safe"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// C keywords recognized by the front end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Kw {
    Void,
    Char,
    Int,
    Float,
    Double,
    Struct,
    If,
    Else,
    While,
    Do,
    For,
    Return,
    Break,
    Continue,
    Goto,
    Static,
    Extern,
    Register,
    Volatile,
    Const,
    Sizeof,
    Unsigned,
    Long,
    Short,
    Switch,
    Case,
    Default,
    Enum,
}

fn keyword(s: &str) -> Option<Kw> {
    Some(match s {
        "void" => Kw::Void,
        "char" => Kw::Char,
        "int" => Kw::Int,
        "float" => Kw::Float,
        "double" => Kw::Double,
        "struct" => Kw::Struct,
        "if" => Kw::If,
        "else" => Kw::Else,
        "while" => Kw::While,
        "do" => Kw::Do,
        "for" => Kw::For,
        "return" => Kw::Return,
        "break" => Kw::Break,
        "continue" => Kw::Continue,
        "goto" => Kw::Goto,
        "static" => Kw::Static,
        "extern" => Kw::Extern,
        "register" => Kw::Register,
        "volatile" => Kw::Volatile,
        "const" => Kw::Const,
        "sizeof" => Kw::Sizeof,
        "unsigned" => Kw::Unsigned,
        "long" => Kw::Long,
        "short" => Kw::Short,
        "switch" => Kw::Switch,
        "case" => Kw::Case,
        "default" => Kw::Default,
        "enum" => Kw::Enum,
        _ => return None,
    })
}

/// Punctuators and operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    Question,
    Dot,
    Arrow,
    PlusPlus,
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AmpAmp,
    PipePipe,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
}

impl Punct {
    /// The source spelling.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            Question => "?",
            Dot => ".",
            Arrow => "->",
            PlusPlus => "++",
            MinusMinus => "--",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            AmpAmp => "&&",
            PipePipe => "||",
            Assign => "=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            CaretAssign => "^=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
        }
    }
}

/// A token with its source span.
#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    /// The token kind.
    pub tok: Tok,
    /// Where it came from.
    pub span: Span,
}

/// Tokenizes C source.
///
/// # Errors
///
/// Returns a diagnostic for unterminated literals/comments and unknown
/// characters.
pub fn lex(src: &str) -> Result<Vec<Token>, Diagnostic> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    pending: Option<Tok>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            pending: None,
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.src.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn here(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(msg, self.here())
    }

    fn run(mut self) -> Result<Vec<Token>, Diagnostic> {
        let mut out = Vec::new();
        loop {
            self.skip_ws_and_comments()?;
            let span = self.here();
            if let Some(tok) = self.pending.take() {
                out.push(Token { tok, span });
                continue;
            }
            if self.pos >= self.src.len() {
                out.push(Token {
                    tok: Tok::Eof,
                    span,
                });
                return Ok(out);
            }
            let tok = self.next_token()?;
            out.push(Token { tok, span });
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(Diagnostic::new("unterminated comment", start));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                b'#' => {
                    // Preprocessor lines are ignored (the corpus is
                    // preprocessed by hand) — except `#pragma safe`, which
                    // becomes a token (§9's vectorization pragma). It is
                    // recognised by its words: `#pragma unsafe` asserts
                    // nothing.
                    self.bump();
                    let start = self.pos;
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                    let line = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
                    let mut words = line.split_whitespace();
                    if words.next() == Some("pragma") && words.next() == Some("safe") {
                        self.pending = Some(Tok::PragmaSafe);
                        return Ok(());
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Tok, Diagnostic> {
        let c = self.peek();
        if c.is_ascii_digit() || (c == b'.' && self.peek2().is_ascii_digit()) {
            return self.number();
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            return Ok(self.ident());
        }
        if c == b'\'' {
            return self.char_lit();
        }
        if c == b'"' {
            return self.string_lit();
        }
        self.punct()
    }

    fn number(&mut self) -> Result<Tok, Diagnostic> {
        let start = self.pos;
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.bump();
            self.bump();
            let hs = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[hs..self.pos]).unwrap();
            let v =
                i64::from_str_radix(text, 16).map_err(|_| self.err("hex literal out of range"))?;
            while matches!(self.peek(), b'u' | b'U' | b'l' | b'L') {
                self.bump();
            }
            return Ok(Tok::IntLit(v));
        }
        let mut is_float = false;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        if self.peek() == b'.' {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if matches!(self.peek(), b'e' | b'E') {
            let save = (self.pos, self.line, self.col);
            self.bump();
            if matches!(self.peek(), b'+' | b'-') {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                is_float = true;
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            } else {
                (self.pos, self.line, self.col) = save;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_float {
            let single = matches!(self.peek(), b'f' | b'F');
            if single {
                self.bump();
            }
            let v: f64 = text.parse().map_err(|_| self.err("bad float literal"))?;
            Ok(Tok::FloatLit(v, single))
        } else {
            while matches!(self.peek(), b'u' | b'U' | b'l' | b'L') {
                self.bump();
            }
            let v: i64 = text
                .parse()
                .map_err(|_| self.err("int literal out of range"))?;
            Ok(Tok::IntLit(v))
        }
    }

    fn ident(&mut self) -> Tok {
        let start = self.pos;
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        match keyword(text) {
            Some(k) => Tok::Kw(k),
            None => Tok::Ident(text.to_string()),
        }
    }

    fn escape(&mut self) -> Result<i64, Diagnostic> {
        // caller consumed the backslash
        let c = self.bump();
        Ok(match c {
            b'n' => b'\n' as i64,
            b't' => b'\t' as i64,
            b'r' => b'\r' as i64,
            b'0' => 0,
            b'\\' => b'\\' as i64,
            b'\'' => b'\'' as i64,
            b'"' => b'"' as i64,
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn char_lit(&mut self) -> Result<Tok, Diagnostic> {
        self.bump(); // '
        let v = if self.peek() == b'\\' {
            self.bump();
            self.escape()?
        } else {
            self.bump() as i64
        };
        if self.bump() != b'\'' {
            return Err(self.err("unterminated char literal"));
        }
        Ok(Tok::CharLit(v))
    }

    fn string_lit(&mut self) -> Result<Tok, Diagnostic> {
        let start = self.here();
        self.bump(); // "
        let mut s = String::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(Diagnostic::new("unterminated string literal", start));
            }
            match self.peek() {
                b'"' => {
                    self.bump();
                    return Ok(Tok::StrLit(s));
                }
                b'\\' => {
                    self.bump();
                    let v = self.escape()?;
                    s.push(v as u8 as char);
                }
                _ => s.push(self.bump() as char),
            }
        }
    }

    fn punct(&mut self) -> Result<Tok, Diagnostic> {
        use Punct::*;
        let (c, c2, c3) = (self.peek(), self.peek2(), self.peek3());
        // three-character operators first
        let three = match (c, c2, c3) {
            (b'<', b'<', b'=') => Some(ShlAssign),
            (b'>', b'>', b'=') => Some(ShrAssign),
            _ => None,
        };
        if let Some(p) = three {
            self.bump();
            self.bump();
            self.bump();
            return Ok(Tok::Punct(p));
        }
        let two = match (c, c2) {
            (b'-', b'>') => Some(Arrow),
            (b'+', b'+') => Some(PlusPlus),
            (b'-', b'-') => Some(MinusMinus),
            (b'<', b'<') => Some(Shl),
            (b'>', b'>') => Some(Shr),
            (b'<', b'=') => Some(Le),
            (b'>', b'=') => Some(Ge),
            (b'=', b'=') => Some(EqEq),
            (b'!', b'=') => Some(Ne),
            (b'&', b'&') => Some(AmpAmp),
            (b'|', b'|') => Some(PipePipe),
            (b'+', b'=') => Some(PlusAssign),
            (b'-', b'=') => Some(MinusAssign),
            (b'*', b'=') => Some(StarAssign),
            (b'/', b'=') => Some(SlashAssign),
            (b'%', b'=') => Some(PercentAssign),
            (b'&', b'=') => Some(AmpAssign),
            (b'|', b'=') => Some(PipeAssign),
            (b'^', b'=') => Some(CaretAssign),
            _ => None,
        };
        if let Some(p) = two {
            self.bump();
            self.bump();
            return Ok(Tok::Punct(p));
        }
        let one = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b':' => Colon,
            b'?' => Question,
            b'.' => Dot,
            b'+' => Plus,
            b'-' => Minus,
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'&' => Amp,
            b'|' => Pipe,
            b'^' => Caret,
            b'~' => Tilde,
            b'!' => Bang,
            b'<' => Lt,
            b'>' => Gt,
            b'=' => Assign,
            _ => return Err(self.err(format!("unexpected character {:?}", c as char))),
        };
        self.bump();
        Ok(Tok::Punct(one))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_pointer_walk() {
        let t = toks("while(n) { *a++ = *b++; n--; }");
        assert!(t.contains(&Tok::Kw(Kw::While)));
        assert!(t.contains(&Tok::Punct(Punct::PlusPlus)));
        assert!(t.contains(&Tok::Punct(Punct::MinusMinus)));
        assert_eq!(t.last(), Some(&Tok::Eof));
    }

    #[test]
    fn distinguishes_float_and_int() {
        assert_eq!(toks("42")[0], Tok::IntLit(42));
        assert_eq!(toks("4.5")[0], Tok::FloatLit(4.5, false));
        assert_eq!(toks("4.5f")[0], Tok::FloatLit(4.5, true));
        assert_eq!(toks("1e3")[0], Tok::FloatLit(1000.0, false));
        assert_eq!(toks(".5")[0], Tok::FloatLit(0.5, false));
        assert_eq!(toks("0x10")[0], Tok::IntLit(16));
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(toks("a+++b")[1], Tok::Punct(Punct::PlusPlus));
        assert_eq!(toks("a<<=b")[1], Tok::Punct(Punct::ShlAssign));
        assert_eq!(toks("a->b")[1], Tok::Punct(Punct::Arrow));
        assert_eq!(toks("a&&b")[1], Tok::Punct(Punct::AmpAmp));
        assert_eq!(toks("a&b")[1], Tok::Punct(Punct::Amp));
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(toks("volatile")[0], Tok::Kw(Kw::Volatile));
        assert_eq!(toks("volatiles")[0], Tok::Ident("volatiles".into()));
        assert_eq!(
            toks("keyboard_status")[0],
            Tok::Ident("keyboard_status".into())
        );
    }

    #[test]
    fn comments_and_preprocessor_skipped() {
        let t = toks("#include <stdio.h>\nint /* hi */ x; // tail\nfloat y;");
        assert_eq!(t[0], Tok::Kw(Kw::Int));
        assert_eq!(t[1], Tok::Ident("x".into()));
        assert_eq!(t[3], Tok::Kw(Kw::Float));
    }

    #[test]
    fn char_and_string_literals() {
        assert_eq!(toks("'a'")[0], Tok::CharLit('a' as i64));
        assert_eq!(toks(r"'\n'")[0], Tok::CharLit(10));
        assert_eq!(toks(r#""hi\n""#)[0], Tok::StrLit("hi\n".into()));
    }

    #[test]
    fn spans_track_lines() {
        let tokens = lex("int x;\nfloat y;").unwrap();
        let float_tok = tokens.iter().find(|t| t.tok == Tok::Kw(Kw::Float)).unwrap();
        assert_eq!(float_tok.span.line, 2);
        assert_eq!(float_tok.span.col, 1);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(lex("/* oops").is_err());
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn exponent_requires_digits() {
        // `1e` is int 1 followed by ident e
        let t = toks("1e");
        assert_eq!(t[0], Tok::IntLit(1));
        assert_eq!(t[1], Tok::Ident("e".into()));
    }

    #[test]
    fn pragma_safe_becomes_a_token() {
        let t = toks("#pragma safe\nwhile(n) n--;");
        assert_eq!(t[0], Tok::PragmaSafe);
        assert_eq!(t[1], Tok::Kw(Kw::While));
        assert_eq!(toks("# pragma\tsafe\nint x;")[0], Tok::PragmaSafe);
        // other pragmas are skipped, those that merely contain the word too
        for other in [
            "#pragma once",
            "#pragma unsafe",
            "#pragma safety",
            "#safe pragma",
        ] {
            assert_eq!(
                toks(&format!("{other}\nint x;"))[0],
                Tok::Kw(Kw::Int),
                "{other}"
            );
        }
    }

    #[test]
    fn integer_suffixes_ignored() {
        assert_eq!(toks("10L")[0], Tok::IntLit(10));
        assert_eq!(toks("10UL")[0], Tok::IntLit(10));
    }
}

//! Recursive-descent parser for the C subset.
//!
//! One forward pass over the token vector: `Parser::bump` moves each
//! token out (an identifier's `String` goes into the AST uncopied), and
//! look-ahead reads only tokens not yet consumed. Statements and unary
//! and postfix operators dispatch on a borrowed token. The ten binary
//! precedence levels are one precedence-climbing loop,
//! `Parser::binary`: an operand costs one call, not one per level.
//!
//! Because the front end supports no `typedef`, the classic
//! declaration/expression ambiguity disappears: a parenthesis opens a cast
//! exactly when the next token is a type keyword or `struct`. Declarators
//! support pointers, arrays and prototypes (no function pointers — the
//! Titan compiler required direct calls for inlining anyway).

use crate::ast::*;
use crate::error::{Diagnostic, DiagnosticSink, Span};
use crate::lexer::{lex, Kw, Punct, Tok, Token};

/// Parses a translation unit: [`parse_recovering`] under an error cap of
/// one.
///
/// # Errors
///
/// Returns the first error diagnostic (fail-fast, like PCC was). Use
/// [`parse_recovering`] directly to collect every diagnostic.
pub fn parse(src: &str) -> Result<TranslationUnit, Diagnostic> {
    let mut sink = DiagnosticSink::new(1);
    let tu = parse_recovering(src, &mut sink);
    let first = sink.errors().next().cloned();
    first.map_or(Ok(tu), Err)
}

/// Parses a translation unit with error recovery.
///
/// One bad statement yields one diagnostic plus continued parsing: the
/// parser records the diagnostic into `sink` and *synchronizes* — it
/// skips tokens until a `;`, a block close, or something that starts a
/// declaration, then picks up where C's statement structure resumes.
/// Every item that parsed cleanly is kept, so a translation unit with
/// errors still yields the recognizable part of the program (callers
/// must check [`DiagnosticSink::has_errors`] before trusting it).
///
/// The sink's error cap bounds the cascade: once `max_errors` errors
/// are recorded the rest of the file is abandoned.
pub fn parse_recovering(src: &str, sink: &mut DiagnosticSink) -> TranslationUnit {
    let tokens = match lex(src) {
        Ok(t) => t,
        Err(d) => {
            // lexical errors are not recoverable: the token stream after
            // a mangled literal is unbounded garbage
            sink.emit(d);
            return TranslationUnit { items: Vec::new() };
        }
    };
    let mut p = Parser::new(tokens);
    p.sink = std::mem::take(sink);
    let tu = p.translation_unit();
    *sink = p.sink;
    tu
}

/// Parses a single expression (used by tests and the REPL-style tools).
///
/// # Errors
///
/// Returns a diagnostic if the source is not a complete expression.
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostic> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// `enum` constants resolve to integer literals at parse time (the
    /// front end has no symbol table; enums are pure constants in C89).
    enum_consts: std::collections::HashMap<String, i64>,
    /// Statement and item errors are recorded here, and the parser
    /// synchronizes instead of aborting until the sink's cap is reached.
    sink: DiagnosticSink,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Parser {
        Parser {
            toks,
            pos: 0,
            enum_consts: std::collections::HashMap::new(),
            sink: DiagnosticSink::default(),
        }
    }

    // `pos` never passes the final `Eof`, and it only moves forward
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Consumes the current token by moving it out (its slot keeps only
    /// `Eof`): the parser never backtracks, so nothing reads it again.
    fn bump(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.toks[self.pos].tok, Tok::Eof);
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(msg, self.span())
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), Diagnostic> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found `{}`",
                p.as_str(),
                self.peek()
            )))
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if *self.peek() == Tok::Kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, Diagnostic> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), Diagnostic> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected `{}` after expression", self.peek())))
        }
    }

    // ---- types ----

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw(
                Kw::Void
                    | Kw::Char
                    | Kw::Int
                    | Kw::Float
                    | Kw::Double
                    | Kw::Struct
                    | Kw::Enum
                    | Kw::Unsigned
                    | Kw::Long
                    | Kw::Short
                    | Kw::Volatile
                    | Kw::Const
            )
        )
    }

    fn starts_decl(&self) -> bool {
        self.starts_type() || matches!(self.peek(), Tok::Kw(Kw::Static | Kw::Extern | Kw::Register))
    }

    /// Parses declaration specifiers: storage class + qualifiers + base type.
    fn decl_specifiers(&mut self) -> Result<(StorageClass, QualType), Diagnostic> {
        let mut storage = StorageClass::None;
        let mut volatile = false;
        let mut base: Option<CType> = None;
        let mut saw_int_modifier = false;
        loop {
            match self.peek() {
                Tok::Kw(Kw::Static) => {
                    self.bump();
                    storage = StorageClass::Static;
                }
                Tok::Kw(Kw::Extern) => {
                    self.bump();
                    storage = StorageClass::Extern;
                }
                Tok::Kw(Kw::Register) => {
                    self.bump();
                    storage = StorageClass::Register;
                }
                Tok::Kw(Kw::Volatile) => {
                    self.bump();
                    volatile = true;
                }
                Tok::Kw(Kw::Const) => {
                    self.bump();
                }
                Tok::Kw(Kw::Unsigned | Kw::Long | Kw::Short) => {
                    self.bump();
                    saw_int_modifier = true;
                }
                Tok::Kw(Kw::Void) => {
                    self.bump();
                    base = Some(CType::Void);
                }
                Tok::Kw(Kw::Char) => {
                    self.bump();
                    base = Some(CType::Char);
                }
                Tok::Kw(Kw::Int) => {
                    self.bump();
                    base = Some(CType::Int);
                }
                Tok::Kw(Kw::Float) => {
                    self.bump();
                    base = Some(CType::Float);
                }
                Tok::Kw(Kw::Double) => {
                    self.bump();
                    base = Some(CType::Double);
                }
                Tok::Kw(Kw::Struct) => {
                    self.bump();
                    let name = self.ident()?;
                    base = Some(CType::Struct(name));
                }
                Tok::Kw(Kw::Enum) => {
                    self.bump();
                    // optional tag; enums are plain ints in this front end
                    if matches!(self.peek(), Tok::Ident(_)) {
                        self.bump();
                    }
                    base = Some(CType::Int);
                }
                _ => break,
            }
        }
        let ty = match base {
            Some(t) => t,
            None if saw_int_modifier => CType::Int,
            None => return Err(self.err("expected a type")),
        };
        Ok((storage, QualType { ty, volatile }))
    }

    /// Parses a declarator: pointers, name, array/function suffixes.
    /// Returns `(name, type, params_if_function)`.
    #[allow(clippy::type_complexity)]
    fn declarator(
        &mut self,
        base: QualType,
    ) -> Result<(String, QualType, Option<Vec<Param>>), Diagnostic> {
        let mut ty = self.pointers(base);
        let name = self.ident()?;
        if self.eat_punct(Punct::LParen) {
            let params = self.param_list()?;
            return Ok((name, ty, Some(params)));
        }
        // Array suffixes: e.g. a[4][4] builds Array(Array(base,4),4) with
        // the *outermost* bracket as the outermost array.
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            if self.eat_punct(Punct::RBracket) {
                dims.push(None);
            } else {
                let n = self.const_int_expr()?;
                if n < 0 {
                    return Err(self.err("negative array length"));
                }
                self.expect_punct(Punct::RBracket)?;
                dims.push(Some(n as usize));
            }
        }
        for d in dims.into_iter().rev() {
            ty = QualType::plain(CType::Array(Box::new(ty), d));
        }
        Ok((name, ty, None))
    }

    fn param_list(&mut self) -> Result<Vec<Param>, Diagnostic> {
        let mut params = Vec::new();
        if self.eat_punct(Punct::RParen) {
            return Ok(params);
        }
        // `(void)` means no parameters
        if *self.peek() == Tok::Kw(Kw::Void) && *self.peek2() == Tok::Punct(Punct::RParen) {
            self.bump();
            self.bump();
            return Ok(params);
        }
        loop {
            let (_storage, base) = self.decl_specifiers()?;
            let mut ty = self.pointers(base);
            let name = match self.peek() {
                Tok::Ident(_) => Some(self.ident()?),
                _ => None,
            };
            // array parameter adjusts to pointer
            while self.eat_punct(Punct::LBracket) {
                if !self.eat_punct(Punct::RBracket) {
                    let _ = self.const_int_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                }
                ty = ty.ptr();
            }
            params.push(Param { name, ty });
            if self.eat_punct(Punct::RParen) {
                return Ok(params);
            }
            self.expect_punct(Punct::Comma)?;
        }
    }

    /// A limited constant-expression evaluator for array bounds.
    fn const_int_expr(&mut self) -> Result<i64, Diagnostic> {
        let e = self.conditional()?;
        const_eval(&e).ok_or_else(|| self.err("array length must be a constant expression"))
    }

    /// Parses an abstract type name (for casts and `sizeof`).
    fn type_name(&mut self) -> Result<QualType, Diagnostic> {
        let (_s, base) = self.decl_specifiers()?;
        Ok(self.pointers(base))
    }

    /// Wraps `ty` in one pointer per `*`, each qualified by the
    /// `volatile`/`const` after it (only `volatile` is kept).
    fn pointers(&mut self, mut ty: QualType) -> QualType {
        while self.eat_punct(Punct::Star) {
            let mut volatile = false;
            while matches!(self.peek(), Tok::Kw(Kw::Volatile | Kw::Const)) {
                if self.eat_kw(Kw::Volatile) {
                    volatile = true;
                } else {
                    self.bump();
                }
            }
            ty = ty.ptr();
            ty.volatile = volatile;
        }
        ty
    }

    // ---- top level ----

    /// Fail-soft top level: every item error is recorded and the parser
    /// resynchronizes at the next plausible declaration start.
    fn translation_unit(&mut self) -> TranslationUnit {
        let mut items = Vec::new();
        while *self.peek() != Tok::Eof {
            if self.sink.at_limit() {
                self.sink.emit(Diagnostic::remark(
                    "too many errors; giving up on the rest of the file",
                    self.span(),
                ));
                break;
            }
            let before = self.pos;
            if let Err(d) = self.item(&mut items) {
                self.sink.emit(d);
                self.sync_top_level(before);
            }
        }
        TranslationUnit { items }
    }

    /// Skips to the next top-level synchronization point: past a `;` or
    /// the `}` that closes the offending definition, or up to a token
    /// that starts a declaration. Always consumes at least one token so
    /// recovery can never loop forever on garbage input.
    fn sync_top_level(&mut self, before: usize) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Punct(Punct::Semi) if depth == 0 => {
                    self.bump();
                    break;
                }
                Tok::Punct(Punct::LBrace) => {
                    depth += 1;
                    self.bump();
                }
                Tok::Punct(Punct::RBrace) => {
                    self.bump();
                    if depth <= 1 {
                        break;
                    }
                    depth -= 1;
                }
                _ if depth == 0 && self.pos > before && self.starts_decl() => break,
                _ => {
                    self.bump();
                }
            }
        }
        if self.pos == before && *self.peek() != Tok::Eof {
            self.bump();
        }
    }

    /// Statement-level synchronization: skip to just past the next `;`
    /// (balancing braces opened inside the bad statement) or stop at the
    /// `}` that closes the enclosing block, which the block loop eats.
    fn sync_stmt(&mut self, before: usize) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Punct(Punct::Semi) if depth == 0 => {
                    self.bump();
                    break;
                }
                Tok::Punct(Punct::LBrace) => {
                    depth += 1;
                    self.bump();
                }
                Tok::Punct(Punct::RBrace) => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
        if self.pos == before && *self.peek() != Tok::Eof {
            self.bump();
        }
    }

    fn item(&mut self, items: &mut Vec<Item>) -> Result<(), Diagnostic> {
        // enum definition? `enum [Tag] { A, B = 5, C };`
        if *self.peek() == Tok::Kw(Kw::Enum) {
            let brace_at = if matches!(self.peek2(), Tok::Ident(_)) {
                2
            } else {
                1
            };
            if self.toks[(self.pos + brace_at).min(self.toks.len() - 1)].tok
                == Tok::Punct(Punct::LBrace)
            {
                self.bump(); // enum
                if matches!(self.peek(), Tok::Ident(_)) {
                    self.bump(); // tag
                }
                self.bump(); // {
                let mut next = 0i64;
                loop {
                    if self.eat_punct(Punct::RBrace) {
                        break;
                    }
                    let name = self.ident()?;
                    if self.eat_punct(Punct::Assign) {
                        next = self.const_int_expr()?;
                    }
                    self.enum_consts.insert(name, next);
                    next += 1;
                    if !self.eat_punct(Punct::Comma) {
                        self.expect_punct(Punct::RBrace)?;
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                return Ok(());
            }
        }
        let span = self.span();
        // struct definition?
        if *self.peek() == Tok::Kw(Kw::Struct) {
            if let Tok::Ident(_) = self.peek2() {
                if self.toks[(self.pos + 2).min(self.toks.len() - 1)].tok
                    == Tok::Punct(Punct::LBrace)
                {
                    self.bump(); // struct
                    let name = self.ident()?;
                    self.bump(); // {
                    let mut fields = Vec::new();
                    while !self.eat_punct(Punct::RBrace) {
                        let (_s, base) = self.decl_specifiers()?;
                        loop {
                            let fspan = self.span();
                            let (fname, fty, fparams) = self.declarator(base.clone())?;
                            if fparams.is_some() {
                                return Err(self.err("function fields are not supported"));
                            }
                            fields.push((fname, fty, fspan));
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::Semi)?;
                    }
                    self.expect_punct(Punct::Semi)?;
                    items.push(Item::Struct(StructDecl { name, fields, span }));
                    return Ok(());
                }
            }
        }
        let (storage, base) = self.decl_specifiers()?;
        let (name, ty, params) = self.declarator(base.clone())?;
        if let Some(params) = params {
            if self.eat_punct(Punct::Semi) {
                items.push(Item::Proto(FuncProto {
                    name,
                    ret: ty,
                    params,
                    span,
                }));
                return Ok(());
            }
            self.expect_punct(Punct::LBrace)?;
            let body = self.block_body()?;
            items.push(Item::Func(FuncDef {
                name,
                ret: ty,
                params,
                body,
                is_static: storage == StorageClass::Static,
                span,
            }));
            return Ok(());
        }
        // global variable declaration list
        let mut current = (name, ty);
        loop {
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.assign()?)
            } else {
                None
            };
            items.push(Item::Global(VarDecl {
                name: current.0,
                ty: current.1,
                storage,
                init,
                span,
            }));
            if self.eat_punct(Punct::Comma) {
                let (n2, t2, p2) = self.declarator(base.clone())?;
                if p2.is_some() {
                    return Err(self.err("function declarator in variable list"));
                }
                current = (n2, t2);
            } else {
                self.expect_punct(Punct::Semi)?;
                return Ok(());
            }
        }
    }

    // ---- statements ----

    fn block_body(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of file in block"));
            }
            let before = self.pos;
            match self.stmt() {
                Ok(s) => stmts.push(s),
                Err(d) => {
                    if self.sink.at_limit() {
                        return Err(d);
                    }
                    // fail-soft: one bad statement, one diagnostic, and
                    // parsing continues at the next statement boundary
                    self.sink.emit(d);
                    self.sync_stmt(before);
                }
            }
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        // label?
        let span = self.span();
        if let (Tok::Ident(_), Tok::Punct(Punct::Colon)) = (self.peek(), self.peek2()) {
            let name = self.ident()?;
            self.bump(); // :
            let inner = self.stmt()?;
            return Ok(Stmt::Label(name, Box::new(inner), span));
        }
        match self.peek() {
            Tok::PragmaSafe => {
                self.bump();
                Ok(Stmt::PragmaSafe)
            }
            Tok::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::Punct(Punct::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?))
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_s = Box::new(self.stmt()?);
                let else_s = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_s,
                    else_s,
                })
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body })
            }
            Tok::Kw(Kw::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                if !self.eat_kw(Kw::While) {
                    return Err(self.err("expected `while` after do-body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if *self.peek() == Tok::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let cond = if *self.peek() == Tok::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if *self.peek() == Tok::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                let v = if *self.peek() == Tok::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return(v))
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break(span))
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue(span))
            }
            Tok::Kw(Kw::Goto) => {
                self.bump();
                let l = self.ident()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Goto(l, span))
            }
            Tok::Kw(Kw::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::LBrace)?;
                let mut body = Vec::new();
                while !self.eat_punct(Punct::RBrace) {
                    if *self.peek() == Tok::Eof {
                        return Err(self.err("unexpected end of file in switch"));
                    }
                    let at = self.span();
                    if self.eat_kw(Kw::Case) {
                        let v = self.const_int_expr()?;
                        self.expect_punct(Punct::Colon)?;
                        body.push(Stmt::Case(v, at));
                        continue;
                    }
                    if self.eat_kw(Kw::Default) {
                        self.expect_punct(Punct::Colon)?;
                        body.push(Stmt::Default(at));
                        continue;
                    }
                    body.push(self.stmt()?);
                }
                Ok(Stmt::Switch { cond, body })
            }
            Tok::Kw(Kw::Case | Kw::Default) => Err(self
                .err("`case`/`default` labels are only supported directly inside a switch body")),
            _ if self.starts_decl() => {
                let (storage, base) = self.decl_specifiers()?;
                let mut decls = Vec::new();
                loop {
                    let (name, ty, params) = self.declarator(base.clone())?;
                    if params.is_some() {
                        return Err(self.err("local function declarations are not supported"));
                    }
                    let init = if self.eat_punct(Punct::Assign) {
                        Some(self.assign()?)
                    } else {
                        None
                    };
                    decls.push(VarDecl {
                        name,
                        ty,
                        storage,
                        init,
                        span,
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Decl(decls))
            }
            _ => {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        let mut e = self.assign()?;
        while self.eat_punct(Punct::Comma) {
            let rhs = self.assign()?;
            e = Expr::new(ExprKind::Comma(Box::new(e), Box::new(rhs)), span);
        }
        Ok(e)
    }

    fn assign(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Tok::Punct(Punct::Assign) => None,
            Tok::Punct(Punct::PlusAssign) => Some(CBinOp::Add),
            Tok::Punct(Punct::MinusAssign) => Some(CBinOp::Sub),
            Tok::Punct(Punct::StarAssign) => Some(CBinOp::Mul),
            Tok::Punct(Punct::SlashAssign) => Some(CBinOp::Div),
            Tok::Punct(Punct::PercentAssign) => Some(CBinOp::Rem),
            Tok::Punct(Punct::AmpAssign) => Some(CBinOp::BitAnd),
            Tok::Punct(Punct::PipeAssign) => Some(CBinOp::BitOr),
            Tok::Punct(Punct::CaretAssign) => Some(CBinOp::BitXor),
            Tok::Punct(Punct::ShlAssign) => Some(CBinOp::Shl),
            Tok::Punct(Punct::ShrAssign) => Some(CBinOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assign()?; // right associative
        Ok(Expr::new(
            ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn conditional(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        let cond = self.binary(0)?;
        if self.eat_punct(Punct::Question) {
            let then_e = self.expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_e = self.conditional()?;
            Ok(Expr::new(
                ExprKind::Cond {
                    cond: Box::new(cond),
                    then_e: Box::new(then_e),
                    else_e: Box::new(else_e),
                },
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    /// The binary operator at the cursor with its precedence, from 0
    /// (`||`) to 9 (`*` `/` `%`).
    fn binop(&self) -> Option<(CBinOp, u8)> {
        let Tok::Punct(p) = self.peek() else {
            return None;
        };
        Some(match p {
            Punct::PipePipe => (CBinOp::LogOr, 0),
            Punct::AmpAmp => (CBinOp::LogAnd, 1),
            Punct::Pipe => (CBinOp::BitOr, 2),
            Punct::Caret => (CBinOp::BitXor, 3),
            Punct::Amp => (CBinOp::BitAnd, 4),
            Punct::EqEq => (CBinOp::Eq, 5),
            Punct::Ne => (CBinOp::Ne, 5),
            Punct::Lt => (CBinOp::Lt, 6),
            Punct::Gt => (CBinOp::Gt, 6),
            Punct::Le => (CBinOp::Le, 6),
            Punct::Ge => (CBinOp::Ge, 6),
            Punct::Shl => (CBinOp::Shl, 7),
            Punct::Shr => (CBinOp::Shr, 7),
            Punct::Plus => (CBinOp::Add, 8),
            Punct::Minus => (CBinOp::Sub, 8),
            Punct::Star => (CBinOp::Mul, 9),
            Punct::Slash => (CBinOp::Div, 9),
            Punct::Percent => (CBinOp::Rem, 9),
            _ => return None,
        })
    }

    /// Precedence climbing: one operand, then every binary operator of
    /// precedence `min` or tighter. A right operand takes only strictly
    /// tighter operators, so equal precedence folds left. Every node is
    /// spanned at its leftmost operand.
    fn binary(&mut self, min: u8) -> Result<Expr, Diagnostic> {
        let span = self.span();
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.binop().filter(|&(_, prec)| prec >= min) {
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        let op = match self.peek() {
            Tok::Punct(p @ (Punct::PlusPlus | Punct::MinusMinus)) => {
                let inc = *p == Punct::PlusPlus;
                self.bump();
                let arg = Box::new(self.unary()?);
                let prefix = true;
                return Ok(Expr::new(ExprKind::IncDec { inc, prefix, arg }, span));
            }
            Tok::Punct(Punct::Minus) => CUnOp::Neg,
            Tok::Punct(Punct::Plus) => CUnOp::Plus,
            Tok::Punct(Punct::Bang) => CUnOp::Not,
            Tok::Punct(Punct::Tilde) => CUnOp::BitNot,
            Tok::Punct(Punct::Star) => CUnOp::Deref,
            Tok::Punct(Punct::Amp) => CUnOp::AddrOf,
            Tok::Kw(Kw::Sizeof) => {
                self.bump();
                if *self.peek() == Tok::Punct(Punct::LParen) && self.type_follows_paren() {
                    self.bump();
                    let ty = self.type_name()?;
                    self.expect_punct(Punct::RParen)?;
                    return Ok(Expr::new(ExprKind::SizeofTy(ty), span));
                }
                let e = self.unary()?;
                return Ok(Expr::new(ExprKind::SizeofExpr(Box::new(e)), span));
            }
            Tok::Punct(Punct::LParen) if self.type_follows_paren() => {
                self.bump();
                let ty = self.type_name()?;
                self.expect_punct(Punct::RParen)?;
                let arg = Box::new(self.unary()?);
                return Ok(Expr::new(ExprKind::Cast(ty, arg), span));
            }
            _ => return self.postfix(),
        };
        self.bump();
        // C's operand of a prefix operator or a cast is any unary
        // expression: `-*p`, `!!x`, `&*p`, `(float)*p`, `(int)-x`
        let arg = Box::new(self.unary()?);
        Ok(Expr::new(ExprKind::Unary(op, arg), span))
    }

    fn type_follows_paren(&self) -> bool {
        matches!(
            self.peek2(),
            Tok::Kw(
                Kw::Void
                    | Kw::Char
                    | Kw::Int
                    | Kw::Float
                    | Kw::Double
                    | Kw::Struct
                    | Kw::Enum
                    | Kw::Unsigned
                    | Kw::Long
                    | Kw::Short
                    | Kw::Volatile
                    | Kw::Const
            )
        )
    }

    fn postfix(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Tok::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), span);
                }
                Tok::Punct(p @ (Punct::Dot | Punct::Arrow)) => {
                    let arrow = *p == Punct::Arrow;
                    self.bump();
                    let field = self.ident()?;
                    let base = Box::new(e);
                    e = Expr::new(ExprKind::Member { base, field, arrow }, span);
                }
                Tok::Punct(p @ (Punct::PlusPlus | Punct::MinusMinus)) => {
                    let inc = *p == Punct::PlusPlus;
                    self.bump();
                    let (arg, prefix) = (Box::new(e), false);
                    e = Expr::new(ExprKind::IncDec { inc, prefix, arg }, span);
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.span();
        match self.bump() {
            Tok::IntLit(v) => Ok(Expr::new(ExprKind::IntLit(v), span)),
            Tok::FloatLit(v, single) => Ok(Expr::new(ExprKind::FloatLit(v, single), span)),
            Tok::CharLit(v) => Ok(Expr::new(ExprKind::CharLit(v), span)),
            Tok::StrLit(s) => Ok(Expr::new(ExprKind::StrLit(s), span)),
            Tok::Ident(name) => {
                if let Some(v) = self.enum_consts.get(&name) {
                    return Ok(Expr::new(ExprKind::IntLit(*v), span));
                }
                if self.eat_punct(Punct::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.assign()?);
                            if self.eat_punct(Punct::RParen) {
                                break;
                            }
                            self.expect_punct(Punct::Comma)?;
                        }
                    }
                    Ok(Expr::new(ExprKind::Call { name, args }, span))
                } else {
                    Ok(Expr::new(ExprKind::Ident(name), span))
                }
            }
            Tok::Punct(Punct::LParen) => {
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(Diagnostic::new(
                format!("expected expression, found `{other}`"),
                span,
            )),
        }
    }
}

/// Evaluates a constant integer expression (array bounds). Supports
/// literals, `+ - * / %` `<< >>` and unary minus — everything the corpus
/// needs.
fn const_eval(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) | ExprKind::CharLit(v) => Some(*v),
        ExprKind::Unary(CUnOp::Neg, a) => Some(-const_eval(a)?),
        ExprKind::Binary(op, a, b) => {
            let (x, y) = (const_eval(a)?, const_eval(b)?);
            Some(match op {
                CBinOp::Add => x + y,
                CBinOp::Sub => x - y,
                CBinOp::Mul => x * y,
                CBinOp::Div => x.checked_div(y)?,
                CBinOp::Rem => x.checked_rem(y)?,
                CBinOp::Shl => x << (y & 31),
                CBinOp::Shr => x >> (y & 31),
                _ => return None,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_daxpy() {
        let src = r#"
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}
"#;
        let tu = parse(src).unwrap();
        assert_eq!(tu.items.len(), 1);
        match &tu.items[0] {
            Item::Func(f) => {
                assert_eq!(f.name, "daxpy");
                assert_eq!(f.params.len(), 5);
                assert_eq!(f.body.len(), 3);
            }
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn parses_volatile_poll_loop() {
        let src = "volatile int keyboard_status;\nvoid f(void) { keyboard_status = 0; while (!keyboard_status); }";
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Global(g) => {
                assert!(g.ty.volatile);
                assert_eq!(g.name, "keyboard_status");
            }
            _ => panic!("expected global"),
        }
    }

    #[test]
    fn parses_backsolve() {
        let src = r#"
void backsolve(float x[100], float y[100], float z[100], int n)
{
    float *p, *q;
    int i;
    p = &x[1];
    q = &x[0];
    for (i = 0; i < n - 2; i++)
        p[i] = z[i] * (y[i] - q[i]);
}
"#;
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => {
                // array params adjusted to pointers
                assert!(matches!(f.params[0].ty.ty, CType::Ptr(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn struct_with_embedded_array() {
        let src = r#"
struct matrix { float m[4][4]; int tag; };
struct matrix g;
"#;
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Struct(s) => {
                assert_eq!(s.name, "matrix");
                assert_eq!(s.fields.len(), 2);
                match &s.fields[0].1.ty {
                    CType::Array(inner, Some(4)) => {
                        assert!(matches!(inner.ty, CType::Array(_, Some(4))));
                    }
                    other => panic!("bad field type {other:?}"),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn precedence_and_associativity() {
        let e = parse_expr("a + b * c").unwrap();
        match e.kind {
            ExprKind::Binary(CBinOp::Add, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Binary(CBinOp::Mul, ..)));
            }
            _ => panic!(),
        }
        // assignment is right-associative
        let e2 = parse_expr("a = b = c").unwrap();
        match e2.kind {
            ExprKind::Assign { rhs, .. } => {
                assert!(matches!(rhs.kind, ExprKind::Assign { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn conditional_and_logical() {
        let e = parse_expr("a ? b : c ? d : e").unwrap();
        match e.kind {
            ExprKind::Cond { else_e, .. } => {
                assert!(matches!(else_e.kind, ExprKind::Cond { .. }));
            }
            _ => panic!(),
        }
        let e2 = parse_expr("a && b || c").unwrap();
        assert!(matches!(e2.kind, ExprKind::Binary(CBinOp::LogOr, ..)));
    }

    #[test]
    fn pointer_walk_expression() {
        let e = parse_expr("*a++ = *b++").unwrap();
        match e.kind {
            ExprKind::Assign { lhs, rhs, op: None } => {
                assert!(matches!(lhs.kind, ExprKind::Unary(CUnOp::Deref, _)));
                assert!(matches!(rhs.kind, ExprKind::Unary(CUnOp::Deref, _)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn casts_vs_parens() {
        let e = parse_expr("(float)n").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast(..)));
        let e2 = parse_expr("(n)").unwrap();
        assert!(matches!(e2.kind, ExprKind::Ident(_)));
        let e3 = parse_expr("(float *)p").unwrap();
        match e3.kind {
            ExprKind::Cast(ty, _) => assert!(matches!(ty.ty, CType::Ptr(_))),
            _ => panic!(),
        }
    }

    #[test]
    fn sizeof_forms() {
        assert!(matches!(
            parse_expr("sizeof(float)").unwrap().kind,
            ExprKind::SizeofTy(_)
        ));
        assert!(matches!(
            parse_expr("sizeof x").unwrap().kind,
            ExprKind::SizeofExpr(_)
        ));
        assert!(matches!(
            parse_expr("sizeof(x)").unwrap().kind,
            ExprKind::SizeofExpr(_)
        ));
    }

    #[test]
    fn compound_assignment_ops() {
        let e = parse_expr("x += 2").unwrap();
        match e.kind {
            ExprKind::Assign {
                op: Some(CBinOp::Add),
                ..
            } => {}
            _ => panic!(),
        }
    }

    #[test]
    fn comma_operator() {
        let e = parse_expr("a = 1, b = 2").unwrap();
        assert!(matches!(e.kind, ExprKind::Comma(..)));
    }

    #[test]
    fn member_access() {
        let e = parse_expr("m.v[2]").unwrap();
        assert!(matches!(e.kind, ExprKind::Index(..)));
        let e2 = parse_expr("p->next").unwrap();
        assert!(matches!(e2.kind, ExprKind::Member { arrow: true, .. }));
    }

    #[test]
    fn goto_and_labels() {
        let src = "void f(void) { int i; i = 0; loop: i++; if (i < 10) goto loop; }";
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => {
                assert!(f
                    .body
                    .iter()
                    .any(|s| matches!(s, Stmt::Label(name, ..) if name == "loop")));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn multi_declarator_lines() {
        let src = "void f(void) { float *p, *q, r; p = q; r = 0; }";
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => {
                // first statement declares three variables in one group
                match &f.body[0] {
                    Stmt::Decl(decls) => assert_eq!(decls.len(), 3),
                    other => panic!("expected decl group, got {other:?}"),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn pragma_safe_statement() {
        let src = "void f(float *a, int n) {\n#pragma safe\nwhile (n) { *a++ = 0; n--; } }";
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => {
                assert!(matches!(f.body[0], Stmt::PragmaSafe));
                assert!(matches!(f.body[1], Stmt::While { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn prototypes() {
        let src = "void daxpy(float *x, float *y, float *z, float alpha, int n);";
        let tu = parse(src).unwrap();
        assert!(matches!(&tu.items[0], Item::Proto(p) if p.params.len() == 5));
        let src2 = "int f(void);";
        let tu2 = parse(src2).unwrap();
        assert!(matches!(&tu2.items[0], Item::Proto(p) if p.params.is_empty()));
    }

    #[test]
    fn error_reports_position() {
        let err = parse("void f(void) { int x; x = ; }").unwrap_err();
        assert!(err.span.line >= 1);
        assert!(err.message.contains("expected expression"));
    }

    #[test]
    fn static_function_flag() {
        let tu = parse("static int helper(int a) { return a; }").unwrap();
        assert!(matches!(&tu.items[0], Item::Func(f) if f.is_static));
    }

    #[test]
    fn const_array_bounds() {
        let tu = parse("float a[4*25];").unwrap();
        match &tu.items[0] {
            Item::Global(g) => match &g.ty.ty {
                CType::Array(_, Some(100)) => {}
                other => panic!("{other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn switch_statement_parses() {
        let src = r#"
int f(int x)
{
    switch (x) {
    case 1:
        return 10;
    case 2 + 1:
        x = 0;
        break;
    default:
        return -1;
    }
    return x;
}
"#;
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => match &f.body[0] {
                Stmt::Switch { body, .. } => {
                    assert!(matches!(body[0], Stmt::Case(1, _)));
                    assert!(body.iter().any(|s| matches!(s, Stmt::Case(3, _))));
                    assert!(body.iter().any(|s| matches!(s, Stmt::Default(_))));
                }
                other => panic!("expected switch, got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn enums_resolve_to_constants() {
        let src = r#"
enum color { RED, GREEN = 5, BLUE };
int f(void)
{
    enum color c;
    c = BLUE;
    return c + RED + GREEN;
}
"#;
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => {
                // c = BLUE parsed as c = 6
                let text = format!("{:?}", f.body);
                assert!(text.contains("IntLit(6)"), "{text}");
                assert!(text.contains("IntLit(5)"), "{text}");
                assert!(text.contains("IntLit(0)"), "{text}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn enum_type_is_int() {
        let tu = parse("enum e { A }; enum e g;").unwrap();
        match &tu.items[0] {
            Item::Global(g) => assert_eq!(g.ty.ty, CType::Int),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stray_case_is_an_error() {
        let err = parse("void f(int x) { case 1: x = 0; }").unwrap_err();
        assert!(err.message.contains("case"), "{err}");
    }

    #[test]
    fn dangling_else_binds_inner() {
        let src = "void f(int a, int b) { if (a) if (b) return; else a = 1; }";
        let tu = parse(src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => match &f.body[0] {
                Stmt::If { else_s, then_s, .. } => {
                    assert!(else_s.is_none());
                    assert!(matches!(**then_s, Stmt::If { ref else_s, .. } if else_s.is_some()));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }
}

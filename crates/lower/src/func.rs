//! Lowering of one function body.
//!
//! The central convention (§4): lowering an expression *emits* the
//! statement list SL into the current block and *returns* the pure IL
//! expression E. Contexts that need C's value semantics (embedded
//! assignment, `++` as a value, calls as values) introduce temporaries
//! ([`FuncLowerer::assign_temp`]), trusting the Titan's global register
//! allocation to make them free.
//!
//! What an access names is decided once, by [`FuncLowerer::place`]: a
//! register variable, a scalar memory location, or an aggregate whose
//! value is its address. A value is the place's [`FuncLowerer::load`],
//! `&e` its [`FuncLowerer::addr`], and a store, `op=`, `++` and `--` go
//! through [`FuncLowerer::store`], so every operand is lowered once.
//!
//! Expression nodes are allocated directly into the procedure's
//! [`titanc_il::ExprPool`] as lowering proceeds — a [`TV`] carries an
//! `ExprId`, never an owned tree. Children are allocated before their
//! parents, so every procedure leaves lowering with its pool in
//! bottom-up (postorder) layout.

use crate::types::{common_kind, cvt_qualtype, type_size, Env};
use crate::LowerError;
use std::collections::HashMap;
use titanc_cfront::ast::{self, CBinOp, CType, CUnOp, ExprKind, QualType};
use titanc_cfront::Span;
use titanc_il::{
    BinOp, Block, Expr, ExprId, LValue, LabelId, Procedure, ScalarType, SrcSpan, StmtKind, Storage,
    Type, UnOp, VarId, VarInfo,
};

/// Maps a front-end span onto the IL's source-position type.
fn src_span(s: Span) -> SrcSpan {
    SrcSpan::new(s.line, s.col)
}

/// Lowers one function definition to an IL procedure.
pub fn lower_function(env: &Env, f: &ast::FuncDef) -> Result<Procedure, LowerError> {
    let (ret, _vol) = cvt_qualtype(env, &f.ret, f.span)?;
    let mut lw = FuncLowerer {
        env,
        proc: Procedure::new(&f.name, ret),
        scopes: vec![HashMap::new()],
        ctypes: HashMap::new(),
        global_imports: HashMap::new(),
        user_labels: HashMap::new(),
        loops: Vec::new(),
        pending_safe: false,
    };
    for (i, p) in f.params.iter().enumerate() {
        let name = p
            .name
            .clone()
            .ok_or_else(|| LowerError::new(format!("parameter {i} needs a name"), f.span))?;
        let (ty, _vol) = cvt_qualtype(env, &p.ty, f.span)?;
        if ty.scalar().is_none() {
            return Err(LowerError::new(
                format!("parameter `{name}` must be scalar (structs pass by pointer)"),
                f.span,
            ));
        }
        let id = lw.proc.add_var(VarInfo {
            name: name.clone(),
            ty,
            storage: Storage::Param,
            volatile: false,
            addressed: false,
            init: None,
        });
        lw.proc.params.push(id);
        lw.scopes.last_mut().unwrap().insert(name, id);
        lw.ctypes.insert(id, p.ty.clone());
    }
    let mut out = Vec::new();
    for s in &f.body {
        lw.stmt(s, &mut out)?;
    }
    // report the first `goto` (in source order) whose label never came
    let undefined = (lw.user_labels.iter().filter(|(_, l)| !l.defined))
        .min_by_key(|(_, l)| (l.first_use.line, l.first_use.col));
    if let Some((name, l)) = undefined {
        let msg = format!("label `{name}` used but not defined");
        return Err(LowerError::new(msg, l.first_use));
    }
    lw.proc.body = out;
    Ok(lw.proc)
}

/// A typed rvalue: the E of an (SL, E) pair plus its C type.
#[derive(Clone, Debug)]
struct TV {
    e: ExprId,
    ty: QualType,
}

/// What an access names.
#[derive(Clone, Copy, Debug)]
enum Place {
    /// A register variable: read and written by name.
    Var(VarId),
    /// A scalar in memory: read by a load, written by a store through
    /// `addr`.
    Mem {
        addr: ExprId,
        kind: ScalarType,
        volatile: bool,
    },
    /// An array or a struct: its value is its address.
    Agg(ExprId),
}

/// A `goto` target: its IL label, whether its `name:` has been lowered
/// yet, and where the function first mentions it.
struct UserLabel {
    id: LabelId,
    defined: bool,
    first_use: Span,
}

struct LoopCtx {
    break_l: LabelId,
    /// `None` inside a `switch`: `continue` binds to the enclosing loop.
    cont_l: Option<LabelId>,
    break_used: bool,
    cont_used: bool,
}

struct FuncLowerer<'e> {
    env: &'e Env,
    proc: Procedure,
    scopes: Vec<HashMap<String, VarId>>,
    ctypes: HashMap<VarId, QualType>,
    global_imports: HashMap<String, VarId>,
    user_labels: HashMap<String, UserLabel>,
    loops: Vec<LoopCtx>,
    pending_safe: bool,
}

/// The scalar register kind of a C type; arrays decay to pointers.
fn scalar_kind(q: &QualType) -> Option<ScalarType> {
    match &q.ty {
        CType::Char => Some(ScalarType::Char),
        CType::Int => Some(ScalarType::Int),
        CType::Float => Some(ScalarType::Float),
        CType::Double => Some(ScalarType::Double),
        CType::Ptr(_) | CType::Array(..) => Some(ScalarType::Ptr),
        CType::Void | CType::Struct(_) => None,
    }
}

fn pointee(q: &QualType) -> Option<&QualType> {
    match &q.ty {
        CType::Ptr(inner) | CType::Array(inner, _) => Some(inner),
        _ => None,
    }
}

fn is_aggregate(q: &QualType) -> bool {
    matches!(q.ty, CType::Array(..) | CType::Struct(_))
}

fn int_ty() -> QualType {
    QualType::plain(CType::Int)
}

/// The C type of an arithmetic result of kind `k`; a pointer result has
/// the type of its pointer operand, `ptr`.
fn kind_type(k: ScalarType, ptr: QualType) -> QualType {
    QualType::plain(match k {
        ScalarType::Char | ScalarType::Int => CType::Int,
        ScalarType::Float => CType::Float,
        ScalarType::Double => CType::Double,
        ScalarType::Ptr => return ptr,
    })
}

/// Why the access `e` names no scalar: its form's message.
fn not_scalar(e: &ExprKind) -> &'static str {
    match e {
        ExprKind::Unary(..) => "dereferencing to a non-scalar",
        ExprKind::Index(..) => "indexing to a non-scalar",
        ExprKind::Member { .. } => "assigning to an aggregate field",
        // an identifier: only a volatile `void` variable gets here
        _ => "volatile aggregate read",
    }
}

impl<'e> FuncLowerer<'e> {
    fn err(&self, msg: impl Into<String>, span: Span) -> LowerError {
        LowerError::new(msg, span)
    }

    fn emit(&mut self, out: &mut Block, kind: StmtKind) {
        let s = self.proc.stamp(kind);
        out.push(s);
    }

    /// Emits a statement anchored to its source position. Loops, calls
    /// and branches are anchored so the optimizer's per-loop decision
    /// events can be reported over the source.
    fn emit_at(&mut self, out: &mut Block, kind: StmtKind, span: Span) {
        let s = self.proc.stamp_at(kind, src_span(span));
        out.push(s);
    }

    /// §4's temporary: a fresh `t`, and `t = rhs` emitted into `out`.
    fn assign_temp(&mut self, kind: ScalarType, rhs: ExprId, out: &mut Block) -> VarId {
        let t = self.temp(kind);
        self.store(Place::Var(t), rhs, out);
        t
    }

    fn temp(&mut self, kind: ScalarType) -> VarId {
        self.proc.fresh_temp(Type::from(kind))
    }

    fn lookup(&mut self, name: &str, span: Span) -> Result<VarId, LowerError> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Ok(*v);
            }
        }
        if let Some(v) = self.global_imports.get(name) {
            return Ok(*v);
        }
        if let Some(q) = self.env.globals.get(name).cloned() {
            let (ty, volatile) = cvt_qualtype(self.env, &q, span)?;
            let id = self.proc.add_var(VarInfo {
                name: name.to_string(),
                ty,
                storage: Storage::Global,
                volatile,
                addressed: true,
                init: None,
            });
            self.global_imports.insert(name.to_string(), id);
            self.ctypes.insert(id, q);
            return Ok(id);
        }
        Err(self.err(format!("undeclared identifier `{name}`"), span))
    }

    fn ctype_of(&self, v: VarId) -> QualType {
        self.ctypes
            .get(&v)
            .cloned()
            .unwrap_or_else(|| QualType::plain(CType::Int))
    }

    fn size_of_ctype(&self, q: &QualType, span: Span) -> Result<i64, LowerError> {
        let (ty, _) = cvt_qualtype(self.env, q, span)?;
        type_size(self.env, &ty, span)
    }

    /// The IL label of user label `name`, mentioned at `span` by a `goto`
    /// or, when `define`, by `name:` itself — which a function may hold
    /// once.
    fn user_label(&mut self, name: &str, span: Span, define: bool) -> Result<LabelId, LowerError> {
        let proc = &mut self.proc;
        let l = (self.user_labels.entry(name.to_string())).or_insert_with(|| UserLabel {
            id: proc.fresh_label(),
            defined: false,
            first_use: span,
        });
        if define && std::mem::replace(&mut l.defined, true) {
            return Err(LowerError::new(format!("duplicate label `{name}`"), span));
        }
        Ok(l.id)
    }

    /// Converts an rvalue to a target scalar kind.
    fn convert(&mut self, tv: TV, to: ScalarType, span: Span) -> Result<ExprId, LowerError> {
        let from = scalar_kind(&tv.ty).ok_or_else(|| self.err("expected a scalar value", span))?;
        Ok(self.proc.exprs.cast(to, from, tv.e))
    }

    // ------------------------------------------------------------------
    // statements
    // ------------------------------------------------------------------

    fn stmt(&mut self, s: &ast::Stmt, out: &mut Block) -> Result<(), LowerError> {
        let was_safe = self.pending_safe;
        self.pending_safe = false;
        match s {
            ast::Stmt::PragmaSafe => {
                self.pending_safe = true;
            }
            ast::Stmt::Empty => {}
            ast::Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for inner in stmts {
                    self.stmt(inner, out)?;
                }
                self.scopes.pop();
            }
            ast::Stmt::Decl(ds) => {
                for d in ds {
                    self.decl(d, out)?;
                }
            }
            ast::Stmt::Expr(e) => self.expr_discard(e, out)?,
            ast::Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let c = self.rvalue(cond, out)?;
                let ce = self.truth(c, cond.span)?;
                let mut then_blk = Vec::new();
                self.stmt(then_s, &mut then_blk)?;
                let mut else_blk = Vec::new();
                if let Some(es) = else_s {
                    self.stmt(es, &mut else_blk)?;
                }
                self.emit_at(
                    out,
                    StmtKind::If {
                        cond: ce,
                        then_blk,
                        else_blk,
                    },
                    cond.span,
                );
            }
            ast::Stmt::While { cond, body } => {
                self.lower_while(cond, None, body, was_safe, out)?;
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.expr_discard(i, out)?;
                }
                // `for (;;)` has no condition to anchor the loop to; fall
                // back to the init or step expression's position
                let head_span = [cond, init, step]
                    .into_iter()
                    .flatten()
                    .next()
                    .map_or_else(Span::default, |e| e.span);
                let one = ast::Expr::new(ExprKind::IntLit(1), head_span);
                let cond_e = cond.as_ref().unwrap_or(&one);
                self.lower_while(cond_e, step.as_ref(), body, was_safe, out)?;
            }
            ast::Stmt::DoWhile { body, cond } => {
                let top = self.proc.fresh_label();
                let break_l = self.proc.fresh_label();
                let cont_l = self.proc.fresh_label();
                self.emit(out, StmtKind::Label(top));
                self.loops.push(LoopCtx {
                    break_l,
                    cont_l: Some(cont_l),
                    break_used: false,
                    cont_used: false,
                });
                let mut blk = Vec::new();
                self.stmt(body, &mut blk)?;
                let ctx = self.loops.pop().unwrap();
                out.extend(blk);
                if ctx.cont_used {
                    self.emit(out, StmtKind::Label(cont_l));
                }
                let c = self.rvalue(cond, out)?;
                let ce = self.truth(c, cond.span)?;
                self.emit(
                    out,
                    StmtKind::IfGoto {
                        cond: ce,
                        target: top,
                    },
                );
                if ctx.break_used {
                    self.emit(out, StmtKind::Label(break_l));
                }
            }
            ast::Stmt::Return(v) => {
                let value = match v {
                    None => None,
                    Some(e) => {
                        let tv = self.rvalue(e, out)?;
                        let to = self.proc.ret.scalar().ok_or_else(|| {
                            self.err("returning a value from void function", e.span)
                        })?;
                        Some(self.convert(tv, to, e.span)?)
                    }
                };
                self.emit(out, StmtKind::Return(value));
            }
            ast::Stmt::Break(span) => {
                let l = match self.loops.last_mut() {
                    Some(ctx) => {
                        ctx.break_used = true;
                        ctx.break_l
                    }
                    None => return Err(self.err("break outside a loop", *span)),
                };
                self.emit(out, StmtKind::Goto(l));
            }
            ast::Stmt::Continue(span) => {
                // `continue` binds to the nearest enclosing *loop*,
                // skipping switches
                let l = match self.loops.iter_mut().rev().find(|ctx| ctx.cont_l.is_some()) {
                    Some(ctx) => {
                        ctx.cont_used = true;
                        ctx.cont_l.unwrap()
                    }
                    None => return Err(self.err("continue outside a loop", *span)),
                };
                self.emit(out, StmtKind::Goto(l));
            }
            ast::Stmt::Goto(name, span) => {
                let l = self.user_label(name, *span, false)?;
                self.emit(out, StmtKind::Goto(l));
            }
            ast::Stmt::Switch { cond, body } => self.lower_switch(cond, body, out)?,
            ast::Stmt::Case(_, span) | ast::Stmt::Default(span) => {
                return Err(self.err("case/default outside the immediate switch body", *span));
            }
            ast::Stmt::Label(name, inner, span) => {
                let l = self.user_label(name, *span, true)?;
                self.emit(out, StmtKind::Label(l));
                self.stmt(inner, out)?;
            }
        }
        Ok(())
    }

    /// Lowers `while (cond) body` (and `for`, which passes its step).
    ///
    /// Per §4, the cond's statement list SL is emitted once before the loop
    /// and duplicated at the end of the body:
    /// `SL; while (E) { body; [cont:] step; SL' }`.
    fn lower_while(
        &mut self,
        cond: &ast::Expr,
        step: Option<&ast::Expr>,
        body: &ast::Stmt,
        safe: bool,
        out: &mut Block,
    ) -> Result<(), LowerError> {
        let mut sl = Vec::new();
        let c = self.rvalue(cond, &mut sl)?;
        let ce = self.truth(c, cond.span)?;
        // the pre-loop copy keeps the statements as lowered; the bottom
        // duplicate gets fresh stamps and fresh expression slots so the
        // two copies never alias
        out.extend(sl.iter().copied());

        let break_l = self.proc.fresh_label();
        let cont_l = self.proc.fresh_label();
        self.loops.push(LoopCtx {
            break_l,
            cont_l: Some(cont_l),
            break_used: false,
            cont_used: false,
        });
        let mut blk = Vec::new();
        self.stmt(body, &mut blk)?;
        let ctx = self.loops.pop().unwrap();
        if ctx.cont_used {
            self.emit(&mut blk, StmtKind::Label(cont_l));
        }
        if let Some(st) = step {
            self.expr_discard(st, &mut blk)?;
        }
        // duplicate SL at the bottom of the body
        for &s in &sl {
            let dup = self.proc.clone_stmt(s);
            blk.push(dup);
        }
        self.emit_at(
            out,
            StmtKind::While {
                cond: ce,
                body: blk,
                safe,
            },
            cond.span,
        );
        if ctx.break_used {
            self.emit(out, StmtKind::Label(break_l));
        }
        Ok(())
    }

    /// Lowers `switch` to a dispatch chain of conditional branches into a
    /// label-marked body — fallthrough comes for free, `break` jumps to the
    /// end label.
    fn lower_switch(
        &mut self,
        cond: &ast::Expr,
        body: &[ast::Stmt],
        out: &mut Block,
    ) -> Result<(), LowerError> {
        let tv = self.rvalue(cond, out)?;
        let scrut = self.convert(tv, ScalarType::Int, cond.span)?;
        let t = self.assign_temp(ScalarType::Int, scrut, out);
        // allocate labels for every case marker
        let mut case_labels: Vec<(i64, LabelId)> = Vec::new();
        let mut default_label: Option<LabelId> = None;
        for s in body {
            match s {
                ast::Stmt::Case(v, _) => case_labels.push((*v, self.proc.fresh_label())),
                ast::Stmt::Default(span) => {
                    if default_label.is_some() {
                        return Err(self.err("duplicate default label", *span));
                    }
                    default_label = Some(self.proc.fresh_label());
                }
                _ => {}
            }
        }
        let end_l = self.proc.fresh_label();
        self.loops.push(LoopCtx {
            break_l: end_l,
            cont_l: None,
            break_used: false,
            cont_used: false,
        });
        // dispatch chain
        for (v, l) in &case_labels {
            let tv = self.proc.exprs.var(t);
            let cv = self.proc.exprs.int(*v);
            let cond = self.proc.exprs.ibinary(BinOp::Eq, tv, cv);
            self.emit(out, StmtKind::IfGoto { cond, target: *l });
        }
        self.emit(out, StmtKind::Goto(default_label.unwrap_or(end_l)));
        // body with markers replaced by labels
        let mut next_case = 0usize;
        for s in body {
            match s {
                ast::Stmt::Case(..) => {
                    let (_, l) = case_labels[next_case];
                    next_case += 1;
                    self.emit(out, StmtKind::Label(l));
                }
                ast::Stmt::Default(_) => {
                    self.emit(out, StmtKind::Label(default_label.unwrap()));
                }
                other => self.stmt(other, out)?,
            }
        }
        self.loops.pop();
        self.emit(out, StmtKind::Label(end_l));
        Ok(())
    }

    fn decl(&mut self, d: &ast::VarDecl, out: &mut Block) -> Result<(), LowerError> {
        let (ty, volatile) = cvt_qualtype(self.env, &d.ty, d.span)?;
        type_size(self.env, &ty, d.span)?;
        let is_static = d.storage == ast::StorageClass::Static;
        let storage = if is_static {
            Storage::Static
        } else {
            Storage::Auto
        };
        let addressed = ty.scalar().is_none() || volatile;
        let init_const = if is_static {
            match &d.init {
                None => None,
                Some(e) => Some(crate::types::const_init(e)?),
            }
        } else {
            None
        };
        let id = self.proc.add_var(VarInfo {
            name: d.name.clone(),
            ty,
            storage,
            volatile,
            addressed,
            init: init_const,
        });
        self.scopes.last_mut().unwrap().insert(d.name.clone(), id);
        self.ctypes.insert(id, d.ty.clone());
        if let Some(e) = d.init.as_ref().filter(|_| !is_static) {
            let tv = self.rvalue(e, out)?;
            let kind = scalar_kind(&d.ty)
                .filter(|_| !is_aggregate(&d.ty))
                .ok_or_else(|| self.err("cannot initialize aggregates", d.span))?;
            let value = self.convert(tv, kind, d.span)?;
            let target = ast::Expr::new(ExprKind::Ident(d.name.clone()), d.span);
            let (place, _) = self.place(&target, out)?;
            self.store(place, value, out);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // places (lvalues)
    // ------------------------------------------------------------------

    /// What the access `e` names, with its C type. The one function that
    /// decides it: an identifier, `*p`, `a[i]`, `s.f` and `p->f` are
    /// lowered here and only here, so their operands' statements are
    /// emitted exactly once.
    fn place(&mut self, e: &ast::Expr, out: &mut Block) -> Result<(Place, QualType), LowerError> {
        let (addr, q) = match &e.kind {
            ExprKind::Ident(name) => {
                let v = self.lookup(name, e.span)?;
                let q = self.ctype_of(v);
                if !is_aggregate(&q) && !self.proc.var(v).volatile {
                    return Ok((Place::Var(v), q));
                }
                (self.addr(Place::Var(v)), q)
            }
            ExprKind::Unary(CUnOp::Deref, inner) => {
                let ptr = self.rvalue(inner, out)?;
                let pt = pointee(&ptr.ty)
                    .cloned()
                    .ok_or_else(|| self.err("dereferencing a non-pointer", e.span))?;
                (ptr.e, pt)
            }
            ExprKind::Index(base, idx) => self.element_addr(base, idx, out, e.span)?,
            ExprKind::Member { base, field, arrow } => {
                self.member_addr(base, field, *arrow, out, e.span)?
            }
            _ => return Err(self.err("expression is not assignable", e.span)),
        };
        if is_aggregate(&q) {
            return Ok((Place::Agg(addr), q));
        }
        let kind = scalar_kind(&q).ok_or_else(|| self.err(not_scalar(&e.kind), e.span))?;
        let volatile = q.volatile;
        Ok((
            Place::Mem {
                addr,
                kind,
                volatile,
            },
            q,
        ))
    }

    /// The kind a store through `target` (of type `q`) writes, or the
    /// error refusing it; `what` is `assignment to` or `++/-- on`.
    fn store_kind(
        &self,
        target: &ast::Expr,
        q: &QualType,
        what: &str,
        span: Span,
    ) -> Result<ScalarType, LowerError> {
        if matches!(q.ty, CType::Array(..)) {
            // an array name decays to a pointer as a value, but is no lvalue
            return Err(self.err(format!("{what} an array"), span));
        }
        scalar_kind(q).ok_or_else(|| match target.kind {
            ExprKind::Ident(_) => self.err(format!("{what} aggregate"), span),
            ref form => self.err(not_scalar(form), target.span),
        })
    }

    /// The address of `base[idx]` and the element's type.
    fn element_addr(
        &mut self,
        base: &ast::Expr,
        idx: &ast::Expr,
        out: &mut Block,
        span: Span,
    ) -> Result<(ExprId, QualType), LowerError> {
        let b = self.rvalue(base, out)?;
        let elem = pointee(&b.ty)
            .cloned()
            .ok_or_else(|| self.err("indexing a non-array", span))?;
        let i = self.rvalue(idx, out)?;
        let i_e = self.convert(i, ScalarType::Int, span)?;
        let size = self.size_of_ctype(&elem, span)?;
        let size_e = self.proc.exprs.int(size);
        let scaled = self.proc.exprs.ibinary(BinOp::Mul, i_e, size_e);
        let addr = self
            .proc
            .exprs
            .binary(BinOp::Add, ScalarType::Ptr, b.e, scaled);
        Ok((addr, elem))
    }

    /// The address of `base.field` / `base->field` and the field's type.
    fn member_addr(
        &mut self,
        base: &ast::Expr,
        field: &str,
        arrow: bool,
        out: &mut Block,
        span: Span,
    ) -> Result<(ExprId, QualType), LowerError> {
        let (base_addr, sq) = if arrow {
            let p = self.rvalue(base, out)?;
            let pt = pointee(&p.ty)
                .cloned()
                .ok_or_else(|| self.err("`->` on a non-pointer", span))?;
            (p.e, pt)
        } else {
            let (place, q) = self.place(base, out)?;
            (self.addr(place), q)
        };
        let CType::Struct(tag) = &sq.ty else {
            return Err(self.err("member access on a non-struct", span));
        };
        let sid = self
            .env
            .structs
            .get(tag)
            .ok_or_else(|| self.err(format!("unknown struct `{tag}`"), span))?;
        let fld = (self.env.struct_def(*sid).field(field))
            .ok_or_else(|| self.err(format!("struct `{tag}` has no field `{field}`"), span))?;
        // fields carry no qualifiers in this subset, so the IL type is all
        // there is to recover
        let fq = il_to_qualtype(self.env, &fld.ty);
        let off_e = self.proc.exprs.int(fld.offset);
        let addr = self
            .proc
            .exprs
            .binary(BinOp::Add, ScalarType::Ptr, base_addr, off_e);
        Ok((addr, fq))
    }

    /// The value of a place: the register, one load, or the aggregate's
    /// address.
    fn load(&mut self, place: Place) -> ExprId {
        match place {
            Place::Var(v) => self.proc.exprs.var(v),
            Place::Mem {
                addr,
                kind,
                volatile,
            } => self.proc.exprs.alloc(Expr::Load {
                addr,
                ty: kind,
                volatile,
            }),
            Place::Agg(addr) => addr,
        }
    }

    /// `&place`: a variable whose address is taken is no register
    /// candidate any more.
    fn addr(&mut self, place: Place) -> ExprId {
        match place {
            Place::Var(v) => {
                self.proc.var_mut(v).addressed = true;
                self.proc.exprs.addr_of(v)
            }
            Place::Mem { addr, .. } | Place::Agg(addr) => addr,
        }
    }

    /// Emits `place = value`. Only a scalar is stored: callers refuse an
    /// aggregate through [`FuncLowerer::store_kind`] first.
    fn store(&mut self, place: Place, rhs: ExprId, out: &mut Block) {
        let lhs = match place {
            Place::Var(v) => LValue::Var(v),
            Place::Mem {
                addr,
                kind,
                volatile,
            } => LValue::Deref {
                addr,
                ty: kind,
                volatile,
            },
            Place::Agg(_) => unreachable!("an aggregate is never a store target"),
        };
        self.emit(out, StmtKind::Assign { lhs, rhs });
    }

    /// The same place with its own copy of the address, so a load and a
    /// store through it never share expression slots.
    fn reuse(&mut self, place: Place) -> Place {
        match place {
            Place::Mem {
                addr,
                kind,
                volatile,
            } => Place::Mem {
                addr: self.proc.exprs.copy(addr),
                kind,
                volatile,
            },
            other => other,
        }
    }

    /// Pins a memory place's address in a temporary, so an access that
    /// loads and stores through it evaluates the address once.
    fn pin(&mut self, place: Place, out: &mut Block) -> Place {
        match place {
            Place::Mem {
                addr,
                kind,
                volatile,
            } => {
                let t = self.assign_temp(ScalarType::Ptr, addr, out);
                Place::Mem {
                    addr: self.proc.exprs.var(t),
                    kind,
                    volatile,
                }
            }
            other => other,
        }
    }

    // ------------------------------------------------------------------
    // expressions
    // ------------------------------------------------------------------

    /// Lowers an expression for its value.
    fn rvalue(&mut self, e: &ast::Expr, out: &mut Block) -> Result<TV, LowerError> {
        self.expr(e, out, true)
            .map(|tv| tv.expect("value requested"))
    }

    /// Lowers an expression purely for its side effects.
    fn expr_discard(&mut self, e: &ast::Expr, out: &mut Block) -> Result<(), LowerError> {
        self.expr(e, out, false).map(|_| ())
    }

    /// C truthiness of a scalar: pointers/floats compare against zero so
    /// the IL condition is always an `Int`.
    fn truth(&mut self, tv: TV, span: Span) -> Result<ExprId, LowerError> {
        let kind = scalar_kind(&tv.ty).ok_or_else(|| self.err("condition must be scalar", span))?;
        Ok(match kind {
            ScalarType::Int => tv.e,
            ScalarType::Char => self
                .proc
                .exprs
                .cast(ScalarType::Int, ScalarType::Char, tv.e),
            ScalarType::Ptr => {
                let z = self.proc.exprs.int(0);
                self.proc.exprs.binary(BinOp::Ne, ScalarType::Ptr, tv.e, z)
            }
            ScalarType::Float | ScalarType::Double => {
                let z = self.proc.exprs.alloc(Expr::FloatConst(0.0, kind));
                self.proc.exprs.binary(BinOp::Ne, kind, tv.e, z)
            }
        })
    }

    #[allow(clippy::too_many_lines)]
    fn expr(
        &mut self,
        e: &ast::Expr,
        out: &mut Block,
        value_needed: bool,
    ) -> Result<Option<TV>, LowerError> {
        let span = e.span;
        match &e.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Ok(Some(TV {
                e: self.proc.exprs.int(*v),
                ty: int_ty(),
            })),
            ExprKind::FloatLit(v, single) => Ok(Some(TV {
                e: if *single {
                    self.proc.exprs.float(*v)
                } else {
                    self.proc.exprs.double(*v)
                },
                ty: QualType::plain(if *single { CType::Float } else { CType::Double }),
            })),
            ExprKind::StrLit(_) => {
                Err(self.err("string literals are not supported by this subset", span))
            }
            ExprKind::Ident(_)
            | ExprKind::Index(..)
            | ExprKind::Member { .. }
            | ExprKind::Unary(CUnOp::Deref, _) => {
                let (place, ty) = self.place(e, out)?;
                Ok(Some(TV {
                    e: self.load(place),
                    ty,
                }))
            }
            ExprKind::Unary(CUnOp::AddrOf, arg) => {
                let (place, q) = self.place(arg, out)?;
                Ok(Some(TV {
                    e: self.addr(place),
                    ty: q.ptr(),
                }))
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.lower_assign(op, lhs, rhs, out, value_needed, span)
            }
            ExprKind::IncDec { inc, prefix, arg } => {
                self.lower_incdec(*inc, *prefix, arg, out, value_needed, span)
            }
            ExprKind::Unary(op, arg) => self.lower_unary(*op, arg, out, value_needed, span),
            ExprKind::Binary(op, l, r) => self.lower_binary(*op, l, r, out, value_needed, span),
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.rvalue(cond, out)?;
                let ce = self.truth(c, span)?;
                let mut then_blk = Vec::new();
                let t_tv = self.rvalue(then_e, &mut then_blk)?;
                let mut else_blk = Vec::new();
                let e_tv = self.rvalue(else_e, &mut else_blk)?;
                let tk =
                    scalar_kind(&t_tv.ty).ok_or_else(|| self.err("non-scalar ?: branch", span))?;
                let ek =
                    scalar_kind(&e_tv.ty).ok_or_else(|| self.err("non-scalar ?: branch", span))?;
                let k = common_kind(tk, ek);
                let ty = kind_type(k, t_tv.ty.clone());
                let tval = self.convert(t_tv, k, span)?;
                let tmp = self.assign_temp(k, tval, &mut then_blk);
                let eval = self.convert(e_tv, k, span)?;
                self.store(Place::Var(tmp), eval, &mut else_blk);
                self.emit(
                    out,
                    StmtKind::If {
                        cond: ce,
                        then_blk,
                        else_blk,
                    },
                );
                Ok(Some(TV {
                    e: self.proc.exprs.var(tmp),
                    ty,
                }))
            }
            ExprKind::Comma(l, r) => {
                self.expr_discard_keeping_volatile(l, out)?;
                self.expr(r, out, value_needed)
            }
            ExprKind::Call { name, args } => {
                let sig = self.env.signatures.get(name).cloned();
                let mut arg_exprs = Vec::new();
                for (i, a) in args.iter().enumerate() {
                    let tv = self.rvalue(a, out)?;
                    let converted = match sig.as_ref().and_then(|s| s.params.get(i)) {
                        Some(pq) => {
                            let to = scalar_kind(pq)
                                .ok_or_else(|| self.err("aggregate argument", a.span))?;
                            self.convert(tv, to, a.span)?
                        }
                        None => tv.e,
                    };
                    arg_exprs.push(converted);
                }
                let ret_q = sig.as_ref().map(|s| s.ret.clone()).unwrap_or_else(int_ty);
                let dst = if value_needed {
                    let kind = scalar_kind(&ret_q)
                        .ok_or_else(|| self.err("using a void return value", span))?;
                    Some(self.temp(kind))
                } else {
                    None
                };
                let call = StmtKind::Call {
                    dst: dst.map(LValue::Var),
                    callee: name.clone(),
                    args: arg_exprs,
                };
                self.emit_at(out, call, span);
                Ok(dst.map(|t| TV {
                    e: self.proc.exprs.var(t),
                    ty: ret_q,
                }))
            }
            ExprKind::Cast(q, arg) => {
                let tv = self.rvalue(arg, out)?;
                let to = scalar_kind(q).ok_or_else(|| self.err("cast to non-scalar type", span))?;
                let ex = self.convert(tv, to, span)?;
                Ok(Some(TV {
                    e: ex,
                    ty: q.clone(),
                }))
            }
            ExprKind::SizeofTy(q) => {
                let size = self.size_of_ctype(q, span)?;
                Ok(Some(TV {
                    e: self.proc.exprs.int(size),
                    ty: int_ty(),
                }))
            }
            ExprKind::SizeofExpr(inner) => {
                // C never evaluates the operand: lower it into a block that
                // is thrown away for its type, then put back everything
                // lowering touched
                let saved = (
                    self.proc.clone(),
                    self.ctypes.clone(),
                    self.global_imports.clone(),
                );
                let typed = self.rvalue(inner, &mut Vec::new());
                (self.proc, self.ctypes, self.global_imports) = saved;
                let size = self.size_of_ctype(&typed?.ty, span)?;
                Ok(Some(TV {
                    e: self.proc.exprs.int(size),
                    ty: int_ty(),
                }))
            }
        }
    }

    /// Discards an expression's value but keeps a volatile read alive by
    /// assigning it to a temporary (reading a volatile is an effect).
    fn expr_discard_keeping_volatile(
        &mut self,
        e: &ast::Expr,
        out: &mut Block,
    ) -> Result<(), LowerError> {
        let tv = self.expr(e, out, false)?;
        if let Some(tv) = tv {
            if self.proc.exprs.any(tv.e, Expr::is_volatile_load) {
                if let Some(kind) = scalar_kind(&tv.ty) {
                    self.assign_temp(kind, tv.e, out);
                }
            }
        }
        Ok(())
    }

    fn lower_assign(
        &mut self,
        op: &Option<CBinOp>,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
        out: &mut Block,
        value_needed: bool,
        span: Span,
    ) -> Result<Option<TV>, LowerError> {
        let (place, q) = self.place(lhs, out)?;
        let kind = self.store_kind(lhs, &q, "assignment to", span)?;
        // `op=` reads and writes the place: evaluate its address once
        let place = match place {
            Place::Mem { addr, .. } if op.is_some() && !self.proc.exprs.is_const(addr) => {
                self.pin(place, out)
            }
            _ => place,
        };
        let rhs_tv = self.rvalue(rhs, out)?;
        let new_value = match op {
            None => self.convert(rhs_tv, kind, span)?,
            Some(cop) => {
                let old = self.reuse(place);
                let old = TV {
                    e: self.load(old),
                    ty: q.clone(),
                };
                let tv = self.arith(*cop, old, rhs_tv, span)?;
                self.convert(tv, kind, span)?
            }
        };
        if !value_needed {
            self.store(place, new_value, out);
            return Ok(None);
        }
        // (SL1; SL2; t = E2; E1 = t, t) — §4's temporary scheme: the value
        // of the assignment is the temporary, so a volatile target is
        // written once and never read.
        let tmp = self.assign_temp(kind, new_value, out);
        let tv = self.proc.exprs.var(tmp);
        self.store(place, tv, out);
        Ok(Some(TV {
            e: self.proc.exprs.var(tmp),
            ty: q,
        }))
    }

    fn lower_incdec(
        &mut self,
        inc: bool,
        prefix: bool,
        arg: &ast::Expr,
        out: &mut Block,
        value_needed: bool,
        span: Span,
    ) -> Result<Option<TV>, LowerError> {
        let (place, q) = self.place(arg, out)?;
        let kind = self.store_kind(arg, &q, "++/-- on", span)?;
        let delta: ExprId = match (&q.ty, kind) {
            (CType::Ptr(inner), _) => {
                let sz = self.size_of_ctype(inner, span)?;
                self.proc.exprs.int(sz)
            }
            (_, ScalarType::Float) => self.proc.exprs.float(1.0),
            (_, ScalarType::Double) => self.proc.exprs.double(1.0),
            _ => self.proc.exprs.int(1),
        };
        let op = if inc { BinOp::Add } else { BinOp::Sub };
        let place = self.pin(place, out);
        let mut old = self.load(place);
        let value = if let Place::Var(_) = place {
            let mut value = place;
            if value_needed && !prefix {
                // §5.3 shape: temp_1 = a; a = temp_1 + 4
                let t = self.assign_temp(kind, old, out);
                old = self.proc.exprs.var(t);
                value = Place::Var(t);
            }
            let new = self.proc.exprs.binary(op, kind, old, delta);
            self.store(place, new, out);
            value
        } else {
            // told = *a; tnew = told + 1; *a = tnew
            let told = self.assign_temp(kind, old, out);
            old = self.proc.exprs.var(told);
            let new = self.proc.exprs.binary(op, kind, old, delta);
            let tnew = self.assign_temp(kind, new, out);
            let target = self.reuse(place);
            let new = self.proc.exprs.var(tnew);
            self.store(target, new, out);
            Place::Var(if prefix { tnew } else { told })
        };
        Ok(value_needed.then(|| TV {
            e: self.load(value),
            ty: q,
        }))
    }

    fn lower_unary(
        &mut self,
        op: CUnOp,
        arg: &ast::Expr,
        out: &mut Block,
        value_needed: bool,
        span: Span,
    ) -> Result<Option<TV>, LowerError> {
        match op {
            CUnOp::AddrOf | CUnOp::Deref => unreachable!("accesses are lowered through `place`"),
            CUnOp::Plus => self.expr(arg, out, value_needed),
            CUnOp::Neg => {
                let tv = self.rvalue(arg, out)?;
                let kind =
                    scalar_kind(&tv.ty).ok_or_else(|| self.err("negating a non-scalar", span))?;
                let kind = if kind == ScalarType::Char {
                    ScalarType::Int
                } else {
                    kind
                };
                let ex = self.convert(tv.clone(), kind, span)?;
                Ok(Some(TV {
                    e: self.proc.exprs.unary(UnOp::Neg, kind, ex),
                    ty: promote(tv.ty),
                }))
            }
            CUnOp::Not => {
                let tv = self.rvalue(arg, out)?;
                let truth = self.truth(tv, span)?;
                Ok(Some(TV {
                    e: self.proc.exprs.unary(UnOp::Not, ScalarType::Int, truth),
                    ty: int_ty(),
                }))
            }
            CUnOp::BitNot => {
                let tv = self.rvalue(arg, out)?;
                let ex = self.convert(tv, ScalarType::Int, span)?;
                Ok(Some(TV {
                    e: self.proc.exprs.unary(UnOp::BitNot, ScalarType::Int, ex),
                    ty: int_ty(),
                }))
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: CBinOp,
        l: &ast::Expr,
        r: &ast::Expr,
        out: &mut Block,
        value_needed: bool,
        span: Span,
    ) -> Result<Option<TV>, LowerError> {
        match op {
            CBinOp::LogAnd | CBinOp::LogOr => {
                let is_and = op == CBinOp::LogAnd;
                let ltv = self.rvalue(l, out)?;
                let lc = self.truth(ltv, span)?;
                // t = (E_l != 0); if (t ==/!= 0) { SL_r; t = (E_r != 0); }
                let lnot = self.proc.exprs.unary(UnOp::Not, ScalarType::Int, lc);
                let lnorm = self.proc.exprs.unary(UnOp::Not, ScalarType::Int, lnot);
                let tmp = self.assign_temp(ScalarType::Int, lnorm, out);
                let guard = if is_and {
                    self.proc.exprs.var(tmp)
                } else {
                    let tv = self.proc.exprs.var(tmp);
                    self.proc.exprs.unary(UnOp::Not, ScalarType::Int, tv)
                };
                let mut inner = Vec::new();
                let rtv = self.rvalue(r, &mut inner)?;
                let rc = self.truth(rtv, span)?;
                let rnot = self.proc.exprs.unary(UnOp::Not, ScalarType::Int, rc);
                let rnorm = self.proc.exprs.unary(UnOp::Not, ScalarType::Int, rnot);
                self.store(Place::Var(tmp), rnorm, &mut inner);
                self.emit(
                    out,
                    StmtKind::If {
                        cond: guard,
                        then_blk: inner,
                        else_blk: Vec::new(),
                    },
                );
                let _ = value_needed;
                Ok(Some(TV {
                    e: self.proc.exprs.var(tmp),
                    ty: int_ty(),
                }))
            }
            _ => {
                let ltv = self.rvalue(l, out)?;
                let rtv = self.rvalue(r, out)?;
                Ok(Some(self.arith(op, ltv, rtv, span)?))
            }
        }
    }

    /// Arithmetic with C's conversions, including pointer arithmetic.
    fn arith(&mut self, op: CBinOp, l: TV, r: TV, span: Span) -> Result<TV, LowerError> {
        let lk = scalar_kind(&l.ty).ok_or_else(|| self.err("non-scalar operand", span))?;
        let rk = scalar_kind(&r.ty).ok_or_else(|| self.err("non-scalar operand", span))?;
        let bop = match op {
            CBinOp::Add => BinOp::Add,
            CBinOp::Sub => BinOp::Sub,
            CBinOp::Mul => BinOp::Mul,
            CBinOp::Div => BinOp::Div,
            CBinOp::Rem => BinOp::Rem,
            CBinOp::Shl => BinOp::Shl,
            CBinOp::Shr => BinOp::Shr,
            CBinOp::Lt => BinOp::Lt,
            CBinOp::Gt => BinOp::Gt,
            CBinOp::Le => BinOp::Le,
            CBinOp::Ge => BinOp::Ge,
            CBinOp::Eq => BinOp::Eq,
            CBinOp::Ne => BinOp::Ne,
            CBinOp::BitAnd => BinOp::BitAnd,
            CBinOp::BitXor => BinOp::BitXor,
            CBinOp::BitOr => BinOp::BitOr,
            CBinOp::LogAnd | CBinOp::LogOr => unreachable!("handled by lower_binary"),
        };
        // pointer arithmetic
        let l_is_ptr = lk == ScalarType::Ptr;
        let r_is_ptr = rk == ScalarType::Ptr;
        if (op == CBinOp::Add || op == CBinOp::Sub) && (l_is_ptr ^ r_is_ptr) {
            let (ptv, itv, pfirst) = if l_is_ptr {
                (l, r, true)
            } else {
                (r, l, false)
            };
            if !pfirst && op == CBinOp::Sub {
                return Err(self.err("cannot subtract a pointer from an integer", span));
            }
            let elem = pointee(&ptv.ty)
                .cloned()
                .ok_or_else(|| self.err("pointer arithmetic on non-pointer", span))?;
            let size = self.size_of_ctype(&elem, span)?;
            let idx = self.convert(itv, ScalarType::Int, span)?;
            let size_e = self.proc.exprs.int(size);
            let scaled = self.proc.exprs.ibinary(BinOp::Mul, idx, size_e);
            let e = self.proc.exprs.binary(bop, ScalarType::Ptr, ptv.e, scaled);
            return Ok(TV { e, ty: ptv.ty });
        }
        if op == CBinOp::Sub && l_is_ptr && r_is_ptr {
            let elem = pointee(&l.ty)
                .cloned()
                .ok_or_else(|| self.err("pointer difference on non-pointer", span))?;
            let size = self.size_of_ctype(&elem, span)?;
            let diff = self
                .proc
                .exprs
                .binary(BinOp::Sub, ScalarType::Ptr, l.e, r.e);
            let cast = self.proc.exprs.cast(ScalarType::Int, ScalarType::Ptr, diff);
            let size_e = self.proc.exprs.int(size);
            return Ok(TV {
                e: self.proc.exprs.ibinary(BinOp::Div, cast, size_e),
                ty: int_ty(),
            });
        }
        let k = common_kind(lk, rk);
        let le = self.convert(l.clone(), k, span)?;
        let re = self.convert(r.clone(), k, span)?;
        let e = self.proc.exprs.binary(bop, k, le, re);
        let ty = if bop.is_comparison() {
            int_ty()
        } else {
            kind_type(k, if l_is_ptr { l.ty } else { r.ty })
        };
        Ok(TV { e, ty })
    }
}

/// Integer promotion at the AST type level.
fn promote(q: QualType) -> QualType {
    match q.ty {
        CType::Char => QualType::plain(CType::Int),
        _ => q,
    }
}

/// Reconstructs an AST type from an IL type (used for struct fields).
fn il_to_qualtype(env: &Env, t: &Type) -> QualType {
    QualType::plain(match t {
        Type::Void => CType::Void,
        Type::Char => CType::Char,
        Type::Int => CType::Int,
        Type::Float => CType::Float,
        Type::Double => CType::Double,
        Type::Ptr(inner) => CType::Ptr(Box::new(il_to_qualtype(env, inner))),
        Type::Array(inner, n) => CType::Array(Box::new(il_to_qualtype(env, inner)), Some(*n)),
        Type::Struct(sid) => CType::Struct(env.struct_def(*sid).name.clone()),
    })
}

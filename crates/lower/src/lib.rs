//! # titanc-lower — AST → IL normalization
//!
//! Implements §4 of Allen & Johnson (PLDI 1988): every C expression is
//! recast as a pair *(SL, E)* of an IL statement list and a pure IL
//! expression. Concretely:
//!
//! * Embedded assignments become explicit [`titanc_il::StmtKind::Assign`]
//!   statements; chained assignment `a = v = b` goes through a temporary
//!   (`t = b; v = t; a = t`) so a volatile `v` is written once and never
//!   read — the paper's reading of the (then-draft) ANSI semantics.
//! * `++`/`--` expand to load/increment statement pairs — the §5.3 shape
//!   `temp_1 = a; a = temp_1 + 4; … *temp_1 …` comes from here.
//! * `&&`, `||`, `?:` become `If` statements writing a temporary.
//! * `for` loops become `while` loops "straightforwardly, without
//!   sophisticated analysis" (§5.2); DO-loop recognition happens later in
//!   `titanc-opt`.
//! * `while ((SL,E))` duplicates SL at the end of the body, exactly as §4
//!   prescribes.
//! * Every access to a `volatile` object becomes an explicit volatile
//!   [`titanc_il::Expr::Load`] or volatile store, so all later phases can
//!   recognize pinned accesses purely structurally.
//!
//! ## Example
//!
//! ```
//! let tu = titanc_cfront::parse(
//!     "void copy(float *a, float *b, int n) { while (n) { *a++ = *b++; n--; } }",
//! ).unwrap();
//! let prog = titanc_lower::lower(&tu)?;
//! let copy = prog.proc_by_name("copy").unwrap();
//! // The pointer walk is now a sequence of explicit assignments.
//! assert!(copy.len() > 5);
//! # Ok::<(), titanc_lower::LowerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod func;
mod types;

use std::error::Error;
use std::fmt;

use titanc_cfront::ast;
use titanc_cfront::Span;
use titanc_il::{Program, VarInfo};

pub use types::Signature;

/// An error produced while lowering (semantic errors: unknown names, bad
/// types, unsupported constructs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LowerError {
    /// Human-readable message.
    pub message: String,
    /// Source position.
    pub span: Span,
}

impl LowerError {
    pub(crate) fn new(message: impl Into<String>, span: Span) -> LowerError {
        LowerError {
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.message)
    }
}

impl Error for LowerError {}

/// Lowers a parsed translation unit to an IL [`Program`].
///
/// # Errors
///
/// Returns a [`LowerError`] for semantic problems: undeclared identifiers,
/// unknown struct tags or fields, non-constant global initializers, and
/// constructs outside the supported subset.
pub fn lower(tu: &ast::TranslationUnit) -> Result<Program, LowerError> {
    let mut prog = Program::new();
    let mut env = types::Env::default();

    // Pass 1: struct layouts, global declarations, signatures.
    for item in &tu.items {
        match item {
            ast::Item::Struct(sd) => {
                // Register the tag before layout so self-referential
                // pointer fields (`struct node *next`) resolve.
                let id = titanc_il::StructId::from_index(prog.structs.len());
                env.structs.insert(sd.name.clone(), id);
                env.struct_defs.push(titanc_il::StructDef {
                    name: sd.name.clone(),
                    fields: Vec::new(),
                    size: 0,
                });
                let def = types::layout_struct(&mut env, sd)?;
                env.struct_defs[id.index()] = def.clone();
                prog.structs.push(def);
            }
            ast::Item::Global(g) => {
                let (ty, volatile) = types::cvt_qualtype(&env, &g.ty, g.span)?;
                types::type_size(&env, &ty, g.span)?;
                let init = match &g.init {
                    None => None,
                    Some(e) => Some(types::const_init(e)?),
                };
                prog.ensure_global(VarInfo {
                    name: g.name.clone(),
                    ty,
                    storage: titanc_il::Storage::Global,
                    volatile,
                    addressed: true,
                    init,
                });
                env.globals.insert(g.name.clone(), g.ty.clone());
            }
            ast::Item::Proto(p) => {
                env.add_signature(&p.name, &p.ret, &p.params);
            }
            ast::Item::Func(f) => {
                env.add_signature(&f.name, &f.ret, &f.params);
            }
        }
    }

    // Pass 2: lower function bodies.
    for item in &tu.items {
        if let ast::Item::Func(f) = item {
            let proc = func::lower_function(&env, f)?;
            prog.add_proc(proc);
        }
    }
    Ok(prog)
}

/// Parses and lowers in one step — the common entry point for tests and
/// tools.
///
/// # Errors
///
/// Returns the parse diagnostic or lowering error rendered as a string.
pub fn compile_to_il(src: &str) -> Result<Program, String> {
    let tu = titanc_cfront::parse(src).map_err(|e| e.to_string())?;
    lower(&tu).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests;

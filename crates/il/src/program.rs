//! Procedures, programs, symbol tables.
//!
//! A [`Procedure`] owns two flat arenas — an [`ExprPool`] and a
//! [`StmtPool`] — plus a [`Block`] of root statement ids. The pools are
//! public fields precisely so passes can split-borrow them
//! (`&proc.stmts[s]` while holding `&mut proc.exprs`), which is what makes
//! the id-rebinding rewrite idiom ergonomic without interior mutability.

use crate::expr::ExprPool;
use crate::ids::{LabelId, ProcId, StmtId, StructId, VarId};
use crate::stmt::{Block, StmtKind, StmtPool};
use crate::types::{ScalarType, Type};

/// Where a variable lives.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Storage {
    /// Stack local.
    Auto,
    /// Formal parameter.
    Param,
    /// Compiler-generated temporary. The paper's global register allocator
    /// makes temporaries nearly free (§4); the simulator charges them as
    /// registers.
    Temp,
    /// Function-scoped `static`. Inlining externalizes these (§7).
    Static,
    /// A reference to the program-level global of the same name.
    Global,
}

/// A symbol-table entry for one variable.
#[derive(Clone, PartialEq, Debug)]
pub struct VarInfo {
    /// Source-level (or generated) name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Storage class.
    pub storage: Storage,
    /// `volatile`-qualified (§1 item 6): reads/writes are pinned.
    pub volatile: bool,
    /// True when `&v` is taken somewhere or the variable is an
    /// array/struct; such variables are memory-resident and stores through
    /// pointers may alias them.
    pub addressed: bool,
    /// Constant initializer (globals/statics only; locals lower their
    /// initializers to assignments).
    pub init: Option<ConstInit>,
}

/// A constant initializer for a global or static variable.
#[derive(Clone, Copy, Debug)]
pub enum ConstInit {
    /// Integral initializer.
    Int(i64),
    /// Floating initializer.
    Float(f64),
}

/// Floats compare by bit pattern, as their wire bytes do: a NaN equals
/// itself, and `0.0` and `-0.0` differ. So a `Program` equals its clone.
impl PartialEq for ConstInit {
    fn eq(&self, other: &ConstInit) -> bool {
        match (self, other) {
            (ConstInit::Int(a), ConstInit::Int(b)) => a == b,
            (ConstInit::Float(a), ConstInit::Float(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl VarInfo {
    /// The scalar register kind, if the variable is scalar.
    pub fn scalar(&self) -> Option<ScalarType> {
        self.ty.scalar()
    }

    /// True when the variable is a *register candidate*: a scalar whose
    /// address is never taken, not volatile, and neither static nor
    /// global. Nothing but a direct assignment can change such a variable,
    /// so only these are tracked by the dataflow analyses and rewritten by
    /// the chain-driven passes; anything else may be modified through
    /// memory, which is the conservatism §1 item 7 ascribes to C's `&`. The
    /// same variables are the ones the Titan keeps in registers (§4), so
    /// the simulator gives every other variable a memory home.
    pub fn is_register_candidate(&self) -> bool {
        self.ty.scalar().is_some()
            && !self.addressed
            && !self.volatile
            && matches!(self.storage, Storage::Auto | Storage::Param | Storage::Temp)
    }
}

/// One field of a struct definition.
#[derive(Clone, PartialEq, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the struct base.
    pub offset: i64,
}

/// A struct layout, offsets already computed by the front end.
#[derive(Clone, PartialEq, Debug)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
    /// Total size in bytes (including trailing padding).
    pub size: i64,
}

impl StructDef {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// One procedure: signature, symbol table, label table, and the two flat
/// arenas holding its statement/expression storage.
#[derive(Clone, Debug)]
pub struct Procedure {
    /// Procedure name (global linkage).
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameter variables, in order (indexes into `vars`).
    pub params: Vec<VarId>,
    /// The variable table.
    pub vars: Vec<VarInfo>,
    /// Number of labels allocated.
    pub num_labels: u32,
    /// Root statement ids, in execution order.
    pub body: Block,
    /// The expression arena. Public so passes can split-borrow it against
    /// `stmts`.
    pub exprs: ExprPool,
    /// The statement arena (kind + span columns). `stmts.len()` is the
    /// procedure's statement-stamp watermark (the serialized `next_stmt`).
    pub stmts: StmtPool,
    pub(crate) next_temp: u32,
    /// IL generation counter: bumped whenever the procedure is mutated, so
    /// analyses memoized against an older generation are known stale. Not
    /// serialized and excluded from equality — it tracks identity over
    /// time, not content.
    pub(crate) generation: u64,
}

/// Two procedures are equal when they encode to the same
/// [`crate::wire::encode_proc`] bytes: the canonical wire form is the one
/// definition of IL identity. The generation and the arena layout are not
/// part of it, and constants compare by their bits, so a `NaN` constant
/// equals itself and `0.0` differs from `-0.0`.
impl PartialEq for Procedure {
    fn eq(&self, other: &Procedure) -> bool {
        crate::wire::encode_proc(self) == crate::wire::encode_proc(other)
    }
}

impl Procedure {
    /// Creates an empty procedure.
    pub fn new(name: impl Into<String>, ret: Type) -> Procedure {
        Procedure {
            name: name.into(),
            ret,
            params: Vec::new(),
            vars: Vec::new(),
            num_labels: 0,
            body: Vec::new(),
            exprs: ExprPool::new(),
            stmts: StmtPool::new(),
            next_temp: 0,
            generation: 0,
        }
    }

    /// The IL generation counter. Analyses keyed to an older generation
    /// are stale; analyses keyed to the current one are still valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Marks the procedure as mutated. Every transformation that changes
    /// the body, the symbol table, or the label table must call this (or
    /// [`Procedure::restamp`], which bumps implicitly) so generation-keyed
    /// analysis caches are never served stale.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// The statement-stamp watermark: one past the highest stamp ever
    /// issued (serialized so stamps survive catalog round-trips).
    pub fn next_stmt(&self) -> u32 {
        self.stmts.len() as u32
    }

    /// The symbol-table entry for `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a variable of this procedure.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Mutable access to the symbol-table entry for `v`.
    pub fn var_mut(&mut self, v: VarId) -> &mut VarInfo {
        &mut self.vars[v.index()]
    }

    /// The scalar kind of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not scalar (arrays and structs have no register
    /// kind).
    pub fn var_scalar(&self, v: VarId) -> ScalarType {
        self.var(v)
            .scalar()
            .unwrap_or_else(|| panic!("variable {} is not scalar", self.var(v).name))
    }

    /// Adds a variable and returns its id.
    pub fn add_var(&mut self, info: VarInfo) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars.push(info);
        id
    }

    /// Adds a fresh compiler temporary of scalar type `ty`.
    pub fn fresh_temp(&mut self, ty: Type) -> VarId {
        let n = self.next_temp;
        self.next_temp += 1;
        self.add_var(VarInfo {
            name: format!("temp_{n}"),
            ty,
            storage: Storage::Temp,
            volatile: false,
            addressed: false,
            init: None,
        })
    }

    /// Allocates a fresh label.
    pub fn fresh_label(&mut self) -> LabelId {
        let id = LabelId(self.num_labels);
        self.num_labels += 1;
        id
    }

    /// Allocates a statement with a fresh stamp and no source position,
    /// returning its id. The statement is *not* linked into any block —
    /// the caller places the id.
    pub fn stamp(&mut self, kind: StmtKind) -> StmtId {
        self.stmts.alloc(kind, crate::span::SrcSpan::NONE)
    }

    /// Allocates a statement anchored to a source position (passes
    /// replacing a statement carry its span over).
    pub fn stamp_at(&mut self, kind: StmtKind, span: crate::span::SrcSpan) -> StmtId {
        self.stmts.alloc(kind, span)
    }

    /// Finds a variable by name (first match).
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(VarId::from_index)
    }

    /// Total statement count of the body tree.
    pub fn len(&self) -> usize {
        crate::stmt::block_len(&self.stmts, &self.body)
    }

    /// True when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Iterates over every reachable statement in the tree (preorder).
    pub fn for_each_stmt(&self, f: &mut dyn FnMut(StmtId, &StmtKind)) {
        crate::visit::walk_block(&self.stmts, &self.body, f);
    }

    /// Compacts both arenas: rebuilds the statement pool with fresh
    /// consecutive preorder stamps and the expression pool with only the
    /// reachable nodes in canonical (postorder) layout. Used after an
    /// inlined body is spliced in (whose stamps would otherwise collide)
    /// and to garbage-collect slots orphaned by rewrites. Lifetime
    /// allocation counters carry over.
    pub fn restamp(&mut self) {
        let old_stmts = std::mem::take(&mut self.stmts);
        let old_exprs = std::mem::take(&mut self.exprs);
        let old_body = std::mem::take(&mut self.body);

        fn walk(
            block: &[StmtId],
            old_stmts: &StmtPool,
            old_exprs: &ExprPool,
            new_stmts: &mut StmtPool,
            new_exprs: &mut ExprPool,
        ) -> Block {
            let mut out = Block::with_capacity(block.len());
            for &s in block {
                let mut kind = old_stmts[s].clone();
                for slot in kind.expr_slots_mut() {
                    *slot = new_exprs.import(old_exprs, *slot);
                }
                // allocate before recursing so ids are preorder
                let new_id = new_stmts.alloc(StmtKind::Nop, old_stmts.span(s));
                for b in kind.blocks_mut() {
                    let old_block = std::mem::take(b);
                    *b = walk(&old_block, old_stmts, old_exprs, new_stmts, new_exprs);
                }
                new_stmts[new_id] = kind;
                out.push(new_id);
            }
            out
        }

        let mut new_stmts = StmtPool::new();
        let mut new_exprs = ExprPool::new();
        self.body = walk(
            &old_body,
            &old_stmts,
            &old_exprs,
            &mut new_stmts,
            &mut new_exprs,
        );
        new_stmts.set_total_allocated(old_stmts.total_allocated());
        new_exprs.set_total_allocated(old_exprs.total_allocated());
        self.stmts = new_stmts;
        self.exprs = new_exprs;
        // every StmtId/ExprId-keyed analysis is invalidated by a restamp
        self.bump_generation();
    }

    /// The procedure in *canonical* arena layout: every reachable statement
    /// at its own stamp with its span, every other statement slot a
    /// span-less `Nop`, and the expression arena holding only reachable
    /// nodes, operands before their node, in statement preorder. The
    /// result is a function of the IL's structure alone — arena garbage
    /// and allocation history are gone — which is what lets
    /// [`crate::wire::encode_proc`] write the same bytes, and `==` call
    /// equal, procedures that differ only in layout. Unlike
    /// [`Procedure::restamp`] the stamps are kept: reports and traces key
    /// on them.
    pub fn canonical(&self) -> Procedure {
        fn walk(block: &[StmtId], old: &Procedure, stmts: &mut StmtPool, exprs: &mut ExprPool) {
            for &s in block {
                let mut kind = old.stmts[s].clone();
                for slot in kind.expr_slots_mut() {
                    *slot = exprs.import(&old.exprs, *slot);
                }
                for b in kind.blocks() {
                    walk(b, old, stmts, exprs);
                }
                stmts[s] = kind;
                stmts.set_span(s, old.stmts.span(s));
            }
        }

        let mut stmts = StmtPool::new();
        stmts.grow_to(self.stmts.len());
        let mut exprs = ExprPool::new();
        walk(&self.body, self, &mut stmts, &mut exprs);
        Procedure {
            name: self.name.clone(),
            ret: self.ret.clone(),
            params: self.params.clone(),
            vars: self.vars.clone(),
            num_labels: self.num_labels,
            body: self.body.clone(),
            exprs,
            stmts,
            next_temp: self.next_temp,
            generation: 0,
        }
    }

    /// True if any reachable statement satisfies the predicate.
    pub fn any_stmt(&self, mut pred: impl FnMut(StmtId, &StmtKind) -> bool) -> bool {
        let mut found = false;
        self.for_each_stmt(&mut |s, k| {
            if pred(s, k) {
                found = true;
            }
        });
        found
    }

    /// Convenience: append a freshly stamped statement to the body.
    pub fn push(&mut self, kind: StmtKind) {
        let s = self.stamp(kind);
        self.body.push(s);
    }

    /// Deep-copies the statement subtree at `s` into fresh slots — fresh
    /// stamps for every nested statement and deep-copied expression trees,
    /// so the copy shares no slots with the original and either can be
    /// rewritten in place without aliasing the other. The copy keeps the
    /// original's spans.
    pub fn clone_stmt(&mut self, s: StmtId) -> StmtId {
        let span = self.stmts.span(s);
        let mut kind = self.stmts[s].clone();
        for b in kind.blocks_mut() {
            for id in b.iter_mut() {
                *id = self.clone_stmt(*id);
            }
        }
        for e in kind.expr_slots_mut() {
            *e = self.exprs.copy(*e);
        }
        self.stamp_at(kind, span)
    }

    /// Remaps the origin file tag of every known span through `map`
    /// (`map[old_tag] = new_tag`). Used when a procedure crosses from a
    /// catalog or another session TU into a program whose file table
    /// numbers origins differently. Tags beyond `map` are left alone.
    pub fn retag_spans(&mut self, map: &[u32]) {
        for span in self.stmts.spans_mut() {
            if span.is_known() {
                if let Some(&new) = map.get(span.file as usize) {
                    span.file = new;
                }
            }
        }
    }
}

/// A whole program: procedures, globals, struct layouts.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// All procedures.
    pub procs: Vec<Procedure>,
    /// Program-level globals (referenced from procedures by name via
    /// [`Storage::Global`] entries).
    pub globals: Vec<VarInfo>,
    /// Struct layouts.
    pub structs: Vec<StructDef>,
    /// Origin file table for span file tags: a span with `file == f > 0`
    /// originated in `files[f - 1]`; `file == 0` is the current TU.
    pub files: Vec<String>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Adds a procedure, returning its id.
    pub fn add_proc(&mut self, p: Procedure) -> ProcId {
        let id = ProcId::from_index(self.procs.len());
        self.procs.push(p);
        id
    }

    /// Looks up a procedure by name.
    pub fn proc_by_name(&self, name: &str) -> Option<&Procedure> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// Mutable lookup by name.
    pub fn proc_by_name_mut(&mut self, name: &str) -> Option<&mut Procedure> {
        self.procs.iter_mut().find(|p| p.name == name)
    }

    /// Adds (or finds) a global by name.
    pub fn ensure_global(&mut self, info: VarInfo) -> usize {
        if let Some(i) = self.globals.iter().position(|g| g.name == info.name) {
            i
        } else {
            self.globals.push(info);
            self.globals.len() - 1
        }
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<&VarInfo> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Interns an origin file name, returning its span file tag (`> 0`).
    pub fn intern_file(&mut self, name: &str) -> u32 {
        if let Some(i) = self.files.iter().position(|f| f == name) {
            (i + 1) as u32
        } else {
            self.files.push(name.to_string());
            self.files.len() as u32
        }
    }

    /// Resolves a span file tag to its origin file name (`None` for the
    /// current TU or an out-of-range tag).
    pub fn file_name(&self, tag: u32) -> Option<&str> {
        if tag == 0 {
            None
        } else {
            self.files.get(tag as usize - 1).map(String::as_str)
        }
    }

    /// The size of struct `sid` in bytes.
    pub fn struct_size(&self, sid: StructId) -> i64 {
        self.structs[sid.index()].size
    }

    /// The byte size of a type in this program.
    pub fn type_size(&self, ty: &Type) -> i64 {
        ty.size_with(&|sid| self.struct_size(sid))
    }

    /// Total statement count across all procedures.
    pub fn len(&self) -> usize {
        self.procs.iter().map(Procedure::len).sum()
    }

    /// True when there are no procedures.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LValue;

    #[test]
    fn a_program_with_a_nan_global_equals_its_clone() {
        let global = |name: &str, init: f64| VarInfo {
            name: name.to_string(),
            ty: Type::Double,
            storage: Storage::Global,
            volatile: false,
            addressed: false,
            init: Some(ConstInit::Float(init)),
        };
        let mut p = Program::new();
        p.globals.push(global("nan", f64::NAN));
        p.globals.push(global("z", 0.0));
        assert_eq!(p, p.clone());
        let mut q = p.clone();
        q.globals[1] = global("z", -0.0);
        assert_ne!(p, q, "0.0 and -0.0 are different initializers");
        assert_ne!(ConstInit::Int(0), ConstInit::Float(0.0));
    }

    #[test]
    fn fresh_temps_are_distinct() {
        let mut p = Procedure::new("f", Type::Void);
        let a = p.fresh_temp(Type::Int);
        let b = p.fresh_temp(Type::Float);
        assert_ne!(a, b);
        assert_eq!(p.var(a).name, "temp_0");
        assert_eq!(p.var(b).name, "temp_1");
        assert_eq!(p.var(b).storage, Storage::Temp);
    }

    #[test]
    fn stamps_are_unique_and_restamp_renumbers() {
        let mut p = Procedure::new("f", Type::Void);
        p.push(StmtKind::Nop);
        p.push(StmtKind::Nop);
        assert_ne!(p.body[0], p.body[1]);
        p.restamp();
        assert_eq!(p.body[0], StmtId(0));
        assert_eq!(p.body[1], StmtId(1));
    }

    #[test]
    fn restamp_compacts_both_arenas() {
        let mut p = Procedure::new("f", Type::Void);
        let t = p.fresh_temp(Type::Int);
        // orphaned garbage: an expr and a stmt never linked into the body
        let _orphan = p.exprs.int(99);
        let _dead = p.stamp(StmtKind::Nop);
        let one = p.exprs.int(1);
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs: one,
        });
        let allocated_exprs = p.exprs.total_allocated();
        let allocated_stmts = p.stmts.total_allocated();
        p.restamp();
        assert_eq!(p.stmts.len(), 1, "dead stmt slot collected");
        assert_eq!(p.exprs.len(), 1, "orphan expr collected");
        assert_eq!(p.body, vec![StmtId(0)]);
        assert_eq!(
            p.exprs.total_allocated(),
            allocated_exprs,
            "lifetime counter survives compaction"
        );
        assert_eq!(p.stmts.total_allocated(), allocated_stmts);
        match &p.stmts[StmtId(0)] {
            StmtKind::Assign { rhs, .. } => assert_eq!(p.exprs.as_int(*rhs), Some(1)),
            k => panic!("unexpected kind {k:?}"),
        }
    }

    #[test]
    fn generation_tracks_mutation_and_is_excluded_from_eq() {
        let mut p = Procedure::new("f", Type::Void);
        assert_eq!(p.generation(), 0);
        p.bump_generation();
        assert_eq!(p.generation(), 1);
        let before = p.generation();
        p.restamp();
        assert!(p.generation() > before, "restamp bumps the generation");
        let mut q = p.clone();
        q.bump_generation();
        assert_eq!(p, q, "equality ignores the generation counter");
    }

    #[test]
    fn equality_ignores_arena_layout() {
        let mut p = Procedure::new("f", Type::Void);
        let t = p.fresh_temp(Type::Int);
        let one = p.exprs.int(1);
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs: one,
        });
        let mut q = p.clone();
        // same structure, different expr layout: orphan then rebuilt rhs
        let _pad = q.exprs.int(7);
        let one2 = q.exprs.int(1);
        match &mut q.stmts[StmtId(0)] {
            StmtKind::Assign { rhs, .. } => *rhs = one2,
            _ => unreachable!(),
        }
        assert_eq!(p, q, "equality is layout-independent");
    }

    /// `f = <value>;` over a float temporary.
    fn storing(value: f64) -> Procedure {
        let mut p = Procedure::new("f", Type::Void);
        let f = p.fresh_temp(Type::Float);
        let rhs = p.exprs.float(value);
        p.push(StmtKind::Assign {
            lhs: LValue::Var(f),
            rhs,
        });
        p
    }

    #[test]
    fn a_nan_constant_equals_itself() {
        let mut p = storing(f64::NAN);
        p.add_var(VarInfo {
            name: "k".into(),
            ty: Type::Double,
            storage: Storage::Static,
            volatile: false,
            addressed: true,
            init: Some(ConstInit::Float(f64::NAN)),
        });
        assert_eq!(p, p.clone());
        let decoded = crate::wire::decode_proc(&crate::wire::encode_proc(&p)).unwrap();
        assert_eq!(p, decoded);
    }

    #[test]
    fn constants_compare_by_their_bits() {
        assert_ne!(
            storing(0.0),
            storing(-0.0),
            "0.0f and -0.0f are different IL"
        );
        assert_eq!(storing(-0.0), storing(-0.0));
    }

    #[test]
    fn register_candidates_are_unaddressed_non_volatile_scalar_locals() {
        let var = |ty: Type, storage: Storage, volatile: bool, addressed: bool| VarInfo {
            name: "v".into(),
            ty,
            storage,
            volatile,
            addressed,
            init: None,
        };
        for storage in [Storage::Auto, Storage::Param, Storage::Temp] {
            assert!(var(Type::Int, storage.clone(), false, false).is_register_candidate());
            assert!(!var(Type::Int, storage.clone(), false, true).is_register_candidate());
            assert!(!var(Type::Int, storage.clone(), true, false).is_register_candidate());
            let array = Type::array_of(Type::Int, 4);
            assert!(!var(array, storage, false, false).is_register_candidate());
        }
        for storage in [Storage::Static, Storage::Global] {
            assert!(!var(Type::Float, storage, false, false).is_register_candidate());
        }
    }

    #[test]
    fn program_lookup() {
        let mut prog = Program::new();
        prog.add_proc(Procedure::new("main", Type::Int));
        prog.add_proc(Procedure::new("daxpy", Type::Void));
        assert!(prog.proc_by_name("daxpy").is_some());
        assert!(prog.proc_by_name("missing").is_none());
        assert_eq!(prog.procs.len(), 2);
    }

    #[test]
    fn ensure_global_dedups_by_name() {
        let mut prog = Program::new();
        let g = VarInfo {
            name: "keyboard_status".into(),
            ty: Type::Int,
            storage: Storage::Global,
            volatile: true,
            addressed: true,
            init: None,
        };
        let i1 = prog.ensure_global(g.clone());
        let i2 = prog.ensure_global(g);
        assert_eq!(i1, i2);
        assert_eq!(prog.globals.len(), 1);
        assert!(prog.global_by_name("keyboard_status").unwrap().volatile);
    }

    #[test]
    fn var_by_name_finds_params() {
        let mut p = Procedure::new("f", Type::Void);
        let x = p.add_var(VarInfo {
            name: "x".into(),
            ty: Type::ptr_to(Type::Float),
            storage: Storage::Param,
            volatile: false,
            addressed: false,
            init: None,
        });
        p.params.push(x);
        assert_eq!(p.var_by_name("x"), Some(x));
        assert_eq!(p.var_by_name("y"), None);
    }

    #[test]
    fn defined_var_via_assign() {
        let mut p = Procedure::new("f", Type::Void);
        let t = p.fresh_temp(Type::Int);
        let zero = p.exprs.int(0);
        p.push(StmtKind::Assign {
            lhs: LValue::Var(t),
            rhs: zero,
        });
        assert_eq!(p.stmts[p.body[0]].defined_var(), Some(t));
    }

    #[test]
    fn intern_file_dedups_and_resolves() {
        let mut prog = Program::new();
        let a = prog.intern_file("a.c");
        let b = prog.intern_file("b.c");
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(prog.intern_file("a.c"), a);
        assert_eq!(prog.file_name(a), Some("a.c"));
        assert_eq!(prog.file_name(0), None);
        assert_eq!(prog.file_name(99), None);
    }

    #[test]
    fn retag_spans_remaps_known_spans_only() {
        let mut p = Procedure::new("f", Type::Void);
        let s = p.stamp_at(StmtKind::Nop, crate::span::SrcSpan::new(3, 1));
        p.body.push(s);
        p.push(StmtKind::Nop); // synthesized, span unknown
        p.retag_spans(&[2]);
        assert_eq!(p.stmts.span(p.body[0]).file, 2);
        assert_eq!(p.stmts.span(p.body[1]).file, 0, "unknown spans keep tag 0");
    }

    #[test]
    fn struct_field_lookup() {
        let s = StructDef {
            name: "pt".into(),
            fields: vec![
                Field {
                    name: "x".into(),
                    ty: Type::Float,
                    offset: 0,
                },
                Field {
                    name: "y".into(),
                    ty: Type::Float,
                    offset: 4,
                },
            ],
            size: 8,
        };
        assert_eq!(s.field("y").unwrap().offset, 4);
        assert!(s.field("z").is_none());
    }
}

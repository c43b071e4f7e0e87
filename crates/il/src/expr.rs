//! Side-effect-free IL expressions, stored flat in per-procedure arenas.
//!
//! Per §4 of the paper, the front end forces *every* operation that changes
//! memory to be an explicit statement, so expressions here are pure: there
//! is no assignment operator, no `++`/`--`, no `?:`/`&&`/`||`, and no
//! function calls (calls are [`crate::StmtKind::Call`] statements). The only
//! observable effect an expression can have is a *volatile read*, which is
//! marked explicitly so every phase can treat it as pinned (§1, §3).
//!
//! Expressions are not boxed trees: every node is a small `Copy` value
//! whose operands are [`ExprId`] indices into the owning procedure's
//! [`ExprPool`]. The pool is a flat `Vec<Expr>`, so cloning a procedure
//! copies one contiguous allocation instead of chasing per-node boxes, and
//! content hashing can walk the arena without pointer indirection. Passes
//! rewrite by *rebinding ids* (writing a new node into an existing slot, or
//! pointing a statement's operand slot at a freshly allocated subtree);
//! slots orphaned by a rewrite are harmless garbage reclaimed by
//! [`crate::Procedure::restamp`].

use crate::ids::{ExprId, VarId};
use crate::types::ScalarType;
use std::ops::{Index, IndexMut};

/// Binary operators. Comparisons yield an `Int` 0/1; `Min`/`Max` are IL
/// intrinsics used by strip mining (§9's `vr = min(99, vi+31)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder (integers only).
    Rem,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Minimum (strip-mining intrinsic).
    Min,
    /// Maximum (strip-mining intrinsic).
    Max,
}

impl BinOp {
    /// True for `==`, `!=`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The C spelling used by the pretty-printer.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (yields 0/1).
    Not,
    /// Bitwise complement (integers only).
    BitNot,
}

impl UnOp {
    /// The C spelling used by the pretty-printer.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

/// A pure IL expression node. Operands are [`ExprId`]s into the owning
/// [`ExprPool`], so the node itself is `Copy`.
///
/// The derived `PartialEq` is *shallow* — it compares operand ids, which is
/// only meaningful for nodes of the same pool that share subtrees. Use
/// [`ExprPool::expr_eq`] for structural comparison.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Expr {
    /// An integer constant (also used for char and pointer constants).
    IntConst(i64),
    /// A floating constant of the given kind.
    FloatConst(f64, ScalarType),
    /// The value of a scalar variable.
    Var(VarId),
    /// The address of a variable (`&v`; also an array base address).
    AddrOf(VarId),
    /// A memory load `*(ty *)addr`. `volatile` reads are pinned: they may
    /// never be removed, duplicated, reordered across other volatile
    /// accesses, or vectorized (§1 item 6).
    Load {
        /// Byte address of the cell.
        addr: ExprId,
        /// Scalar kind loaded.
        ty: ScalarType,
        /// True when the access is to a volatile object.
        volatile: bool,
    },
    /// A unary operation on operands of kind `ty`.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand kind.
        ty: ScalarType,
        /// Operand.
        arg: ExprId,
    },
    /// A binary operation whose operands have kind `ty`. Comparisons produce
    /// an `Int` regardless of `ty`.
    Binary {
        /// The operator.
        op: BinOp,
        /// Operand kind.
        ty: ScalarType,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// A conversion to `to` from an operand of kind `from`.
    Cast {
        /// Result kind.
        to: ScalarType,
        /// Operand kind.
        from: ScalarType,
        /// Operand.
        arg: ExprId,
    },
    /// A vector triplet section: `len` elements of kind `ty` starting at
    /// byte address `base`, consecutive elements `stride` *bytes* apart.
    /// This is the IL form of the paper's `a[lo:hi:stride]` notation (§9).
    Section {
        /// Byte address of element 0.
        base: ExprId,
        /// Element count (evaluated at entry to the vector statement).
        len: ExprId,
        /// Byte distance between consecutive elements.
        stride: ExprId,
        /// Element kind.
        ty: ScalarType,
    },
}

/// The (up to three) operand ids of one [`Expr`] node, without heap
/// allocation. Dereferences to a `[ExprId]` slice.
#[derive(Clone, Copy, Debug)]
pub struct ExprChildren {
    buf: [ExprId; 3],
    len: u8,
}

impl Default for ExprChildren {
    fn default() -> ExprChildren {
        ExprChildren::NONE
    }
}

impl ExprChildren {
    const NONE: ExprChildren = ExprChildren {
        buf: [ExprId(0); 3],
        len: 0,
    };

    fn one(a: ExprId) -> ExprChildren {
        ExprChildren {
            buf: [a, ExprId(0), ExprId(0)],
            len: 1,
        }
    }

    fn two(a: ExprId, b: ExprId) -> ExprChildren {
        ExprChildren {
            buf: [a, b, ExprId(0)],
            len: 2,
        }
    }

    fn three(a: ExprId, b: ExprId, c: ExprId) -> ExprChildren {
        ExprChildren {
            buf: [a, b, c],
            len: 3,
        }
    }
}

impl std::ops::Deref for ExprChildren {
    type Target = [ExprId];

    fn deref(&self) -> &[ExprId] {
        &self.buf[..self.len as usize]
    }
}

impl IntoIterator for ExprChildren {
    type Item = ExprId;
    type IntoIter = std::iter::Take<std::array::IntoIter<ExprId, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

/// Up to `N` mutable slots (nested blocks, operand ids) of one statement
/// or lvalue, without heap allocation. Consumed by iteration.
#[derive(Debug)]
pub struct SlotsMut<'a, T, const N: usize> {
    buf: [Option<&'a mut T>; N],
}

impl<'a, T, const N: usize> SlotsMut<'a, T, N> {
    pub(crate) fn new(buf: [Option<&'a mut T>; N]) -> SlotsMut<'a, T, N> {
        SlotsMut { buf }
    }

    /// The raw slots, for splicing into a longer list.
    pub(crate) fn into_slots(self) -> [Option<&'a mut T>; N] {
        self.buf
    }
}

impl<'a, T, const N: usize> IntoIterator for SlotsMut<'a, T, N> {
    type Item = &'a mut T;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<&'a mut T>, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().flatten()
    }
}

impl Expr {
    /// The operand ids of this node, in evaluation order.
    pub fn child_ids(&self) -> ExprChildren {
        match *self {
            Expr::IntConst(_) | Expr::FloatConst(..) | Expr::Var(_) | Expr::AddrOf(_) => {
                ExprChildren::NONE
            }
            Expr::Load { addr, .. } => ExprChildren::one(addr),
            Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => ExprChildren::one(arg),
            Expr::Binary { lhs, rhs, .. } => ExprChildren::two(lhs, rhs),
            Expr::Section {
                base, len, stride, ..
            } => ExprChildren::three(base, len, stride),
        }
    }

    /// Returns the constant integer value if this node is `IntConst`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::IntConst(v) => Some(*v),
            _ => None,
        }
    }

    /// True if the node is a literal constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Expr::IntConst(_) | Expr::FloatConst(..))
    }

    /// True if the node is a volatile load (§1 item 6: it must not be
    /// deleted, duplicated or moved).
    pub fn is_volatile_load(&self) -> bool {
        matches!(self, Expr::Load { volatile: true, .. })
    }
}

/// The flat expression arena of one procedure: a `Vec<Expr>` indexed by
/// [`ExprId`].
///
/// All expression construction and traversal goes through the pool. Nodes
/// are never freed individually — rewrites orphan slots, and
/// [`crate::Procedure::restamp`] compacts the arena by rebuilding it from
/// the reachable statement tree.
#[derive(Clone, Debug, Default)]
pub struct ExprPool {
    nodes: Vec<Expr>,
    total_allocated: u64,
}

impl Index<ExprId> for ExprPool {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        &self.nodes[id.index()]
    }
}

impl IndexMut<ExprId> for ExprPool {
    fn index_mut(&mut self, id: ExprId) -> &mut Expr {
        &mut self.nodes[id.index()]
    }
}

impl ExprPool {
    /// An empty pool.
    pub fn new() -> ExprPool {
        ExprPool::default()
    }

    /// Number of arena slots (live and orphaned).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been allocated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The raw arena slice (contiguous node storage).
    pub fn nodes(&self) -> &[Expr] {
        &self.nodes
    }

    /// Arena size in bytes.
    pub fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Expr>()
    }

    /// Cumulative node allocations over the pool's lifetime (survives
    /// compaction).
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Checked slot lookup (the verifier uses this to reject dangling ids
    /// without panicking).
    pub fn get_checked(&self, id: ExprId) -> Option<&Expr> {
        self.nodes.get(id.index())
    }

    /// A pool over already-built nodes (the wire decoder's bulk path).
    pub(crate) fn from_nodes(nodes: Vec<Expr>) -> ExprPool {
        ExprPool {
            total_allocated: nodes.len() as u64,
            nodes,
        }
    }

    /// Carries the lifetime allocation count across a compaction rebuild.
    pub(crate) fn set_total_allocated(&mut self, n: u64) {
        self.total_allocated = n;
    }

    /// Pre-sizes the arena for a batch of allocations.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Allocates a node, returning its id.
    pub fn alloc(&mut self, e: Expr) -> ExprId {
        let id = ExprId::from_index(self.nodes.len());
        self.nodes.push(e);
        self.total_allocated += 1;
        id
    }

    /// An `Int` constant.
    pub fn int(&mut self, v: i64) -> ExprId {
        self.alloc(Expr::IntConst(v))
    }

    /// A `Float` constant.
    pub fn float(&mut self, v: f64) -> ExprId {
        self.alloc(Expr::FloatConst(v, ScalarType::Float))
    }

    /// A `Double` constant.
    pub fn double(&mut self, v: f64) -> ExprId {
        self.alloc(Expr::FloatConst(v, ScalarType::Double))
    }

    /// The value of variable `v`.
    pub fn var(&mut self, v: VarId) -> ExprId {
        self.alloc(Expr::Var(v))
    }

    /// The address of variable `v`.
    pub fn addr_of(&mut self, v: VarId) -> ExprId {
        self.alloc(Expr::AddrOf(v))
    }

    /// A non-volatile load of kind `ty` from `addr`.
    pub fn load(&mut self, addr: ExprId, ty: ScalarType) -> ExprId {
        self.alloc(Expr::Load {
            addr,
            ty,
            volatile: false,
        })
    }

    /// A binary operation on `Int` operands.
    pub fn ibinary(&mut self, op: BinOp, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.binary(op, ScalarType::Int, lhs, rhs)
    }

    /// A binary operation on operands of kind `ty`.
    pub fn binary(&mut self, op: BinOp, ty: ScalarType, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.alloc(Expr::Binary { op, ty, lhs, rhs })
    }

    /// A unary operation on an operand of kind `ty`.
    pub fn unary(&mut self, op: UnOp, ty: ScalarType, arg: ExprId) -> ExprId {
        self.alloc(Expr::Unary { op, ty, arg })
    }

    /// A cast of `arg` from kind `from` to kind `to` (identity casts
    /// collapse to the operand).
    pub fn cast(&mut self, to: ScalarType, from: ScalarType, arg: ExprId) -> ExprId {
        if to == from {
            arg
        } else {
            self.alloc(Expr::Cast { to, from, arg })
        }
    }

    /// A vector triplet section.
    pub fn section(&mut self, base: ExprId, len: ExprId, stride: ExprId, ty: ScalarType) -> ExprId {
        self.alloc(Expr::Section {
            base,
            len,
            stride,
            ty,
        })
    }

    /// The scalar kind of expression `id`'s value.
    pub fn result_type(&self, id: ExprId, var_type: &dyn Fn(VarId) -> ScalarType) -> ScalarType {
        match self[id] {
            Expr::IntConst(_) => ScalarType::Int,
            Expr::FloatConst(_, ty) => ty,
            Expr::Var(v) => var_type(v),
            Expr::AddrOf(_) => ScalarType::Ptr,
            Expr::Load { ty, .. } => ty,
            Expr::Unary { op: UnOp::Not, .. } => ScalarType::Int,
            Expr::Unary { ty, .. } => ty,
            Expr::Binary { op, ty, .. } => {
                if op.is_comparison() {
                    ScalarType::Int
                } else {
                    ty
                }
            }
            Expr::Cast { to, .. } => to,
            Expr::Section { ty, .. } => ty,
        }
    }

    /// Returns the constant integer value if `id` is an `IntConst` node.
    pub fn as_int(&self, id: ExprId) -> Option<i64> {
        self[id].as_int()
    }

    /// True if `id` is a literal constant node.
    pub fn is_const(&self, id: ExprId) -> bool {
        self[id].is_const()
    }

    /// Collects every variable whose *value* is read (not `AddrOf`) in the
    /// subtree rooted at `id`.
    pub fn vars_read(&self, id: ExprId) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars_read(id, &mut out);
        out
    }

    /// Appends the subtree's value-read variables to `out` (preorder).
    pub fn collect_vars_read(&self, id: ExprId, out: &mut Vec<VarId>) {
        if let Expr::Var(v) = self[id] {
            out.push(v);
        }
        for c in self[id].child_ids() {
            self.collect_vars_read(c, out);
        }
    }

    /// True if some node of the subtree at `id` satisfies `pred` (an
    /// `AddrOf` node is a leaf: `&v` does not read `v`).
    pub fn any(&self, id: ExprId, pred: impl Fn(&Expr) -> bool + Copy) -> bool {
        pred(&self[id]) || (self[id].child_ids().into_iter()).any(|c| self.any(c, pred))
    }

    /// Node count of the subtree at `id`, used as a substitution-size
    /// heuristic.
    pub fn size(&self, id: ExprId) -> usize {
        1 + self[id]
            .child_ids()
            .into_iter()
            .map(|c| self.size(c))
            .sum::<usize>()
    }

    /// Deep-copies the subtree at `id` into fresh slots, returning the new
    /// root.
    pub fn copy(&mut self, id: ExprId) -> ExprId {
        let mut node = self[id];
        match &mut node {
            Expr::IntConst(_) | Expr::FloatConst(..) | Expr::Var(_) | Expr::AddrOf(_) => {}
            Expr::Load { addr, .. } => *addr = self.copy(*addr),
            Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => *arg = self.copy(*arg),
            Expr::Binary { lhs, rhs, .. } => {
                *lhs = self.copy(*lhs);
                *rhs = self.copy(*rhs);
            }
            Expr::Section {
                base, len, stride, ..
            } => {
                *base = self.copy(*base);
                *len = self.copy(*len);
                *stride = self.copy(*stride);
            }
        }
        self.alloc(node)
    }

    /// Deep-copies a subtree from another pool into this one (inlining
    /// imports callee expressions this way), returning the new root.
    pub fn import(&mut self, other: &ExprPool, id: ExprId) -> ExprId {
        let mut node = other[id];
        match &mut node {
            Expr::IntConst(_) | Expr::FloatConst(..) | Expr::Var(_) | Expr::AddrOf(_) => {}
            Expr::Load { addr, .. } => *addr = self.import(other, *addr),
            Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => *arg = self.import(other, *arg),
            Expr::Binary { lhs, rhs, .. } => {
                *lhs = self.import(other, *lhs);
                *rhs = self.import(other, *rhs);
            }
            Expr::Section {
                base, len, stride, ..
            } => {
                *base = self.import(other, *base);
                *len = self.import(other, *len);
                *stride = self.import(other, *stride);
            }
        }
        self.alloc(node)
    }

    /// Replaces every read of `v` in the subtree at `root` with a deep copy
    /// of the subtree at `replacement`, in place (slot ids of the subtree
    /// stay valid). Returns the number of replacements made.
    pub fn substitute_var(&mut self, root: ExprId, v: VarId, replacement: ExprId) -> usize {
        self.substitute_vars(root, &|w| (w == v).then_some(replacement))
    }

    /// Simultaneous substitution: replaces every read of a variable `v`
    /// for which `replacement_of(v)` is `Some(r)` with a deep copy of the
    /// subtree at `r`, in place, in one walk of the subtree at `root`. The
    /// inserted copies are not themselves rewritten. Returns the number of
    /// replacements made.
    pub fn substitute_vars(
        &mut self,
        root: ExprId,
        replacement_of: &impl Fn(VarId) -> Option<ExprId>,
    ) -> usize {
        if let Expr::Var(w) = self[root] {
            return match replacement_of(w) {
                Some(replacement) => {
                    let copied = self.copy(replacement);
                    self[root] = self[copied];
                    1
                }
                None => 0,
            };
        }
        let mut n = 0;
        for c in self[root].child_ids() {
            n += self.substitute_vars(c, replacement_of);
        }
        n
    }

    /// Structural equality of the subtree at `a` (in this pool) and the
    /// subtree at `b` (in `other`), independent of arena layout.
    pub fn expr_eq(&self, a: ExprId, other: &ExprPool, b: ExprId) -> bool {
        match (self[a], other[b]) {
            (Expr::IntConst(x), Expr::IntConst(y)) => x == y,
            (Expr::FloatConst(x, tx), Expr::FloatConst(y, ty)) => x == y && tx == ty,
            (Expr::Var(x), Expr::Var(y)) => x == y,
            (Expr::AddrOf(x), Expr::AddrOf(y)) => x == y,
            (
                Expr::Load {
                    addr: aa,
                    ty: ta,
                    volatile: va,
                },
                Expr::Load {
                    addr: ab,
                    ty: tb,
                    volatile: vb,
                },
            ) => ta == tb && va == vb && self.expr_eq(aa, other, ab),
            (
                Expr::Unary {
                    op: oa,
                    ty: ta,
                    arg: aa,
                },
                Expr::Unary {
                    op: ob,
                    ty: tb,
                    arg: ab,
                },
            ) => oa == ob && ta == tb && self.expr_eq(aa, other, ab),
            (
                Expr::Binary {
                    op: oa,
                    ty: ta,
                    lhs: la,
                    rhs: ra,
                },
                Expr::Binary {
                    op: ob,
                    ty: tb,
                    lhs: lb,
                    rhs: rb,
                },
            ) => oa == ob && ta == tb && self.expr_eq(la, other, lb) && self.expr_eq(ra, other, rb),
            (
                Expr::Cast {
                    to: ta,
                    from: fa,
                    arg: aa,
                },
                Expr::Cast {
                    to: tb,
                    from: fb,
                    arg: ab,
                },
            ) => ta == tb && fa == fb && self.expr_eq(aa, other, ab),
            (
                Expr::Section {
                    base: ba,
                    len: la,
                    stride: sa,
                    ty: ta,
                },
                Expr::Section {
                    base: bb,
                    len: lb,
                    stride: sb,
                    ty: tb,
                },
            ) => {
                ta == tb
                    && self.expr_eq(ba, other, bb)
                    && self.expr_eq(la, other, lb)
                    && self.expr_eq(sa, other, sb)
            }
            _ => false,
        }
    }
}

/// The target of an assignment statement. Address operands are [`ExprId`]s
/// into the owning procedure's pool, so the value is `Copy`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LValue {
    /// A scalar variable.
    Var(VarId),
    /// A memory cell `*(ty *)addr`.
    Deref {
        /// Byte address of the cell.
        addr: ExprId,
        /// Scalar kind stored.
        ty: ScalarType,
        /// True when the access is to a volatile object.
        volatile: bool,
    },
    /// A vector section store (see [`Expr::Section`]).
    Section {
        /// Byte address of element 0.
        base: ExprId,
        /// Element count.
        len: ExprId,
        /// Byte distance between consecutive elements.
        stride: ExprId,
        /// Element kind.
        ty: ScalarType,
    },
}

impl LValue {
    /// A non-volatile store target `*(ty *)addr`.
    pub fn deref(addr: ExprId, ty: ScalarType) -> LValue {
        LValue::Deref {
            addr,
            ty,
            volatile: false,
        }
    }

    /// The variable assigned, if the target is a scalar variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            LValue::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Ids of the expressions evaluated to compute the target address
    /// (empty for variables).
    pub fn address_exprs(&self) -> ExprChildren {
        match *self {
            LValue::Var(_) => ExprChildren::NONE,
            LValue::Deref { addr, .. } => ExprChildren::one(addr),
            LValue::Section {
                base, len, stride, ..
            } => ExprChildren::three(base, len, stride),
        }
    }

    /// Mutable slots of the address operand ids, for id rebinding.
    pub fn address_exprs_mut(&mut self) -> SlotsMut<'_, ExprId, 3> {
        SlotsMut::new(match self {
            LValue::Var(_) => [None, None, None],
            LValue::Deref { addr, .. } => [Some(addr), None, None],
            LValue::Section {
                base, len, stride, ..
            } => [Some(base), Some(len), Some(stride)],
        })
    }

    /// True when assigning through this target touches memory (not a plain
    /// variable).
    pub fn is_memory(&self) -> bool {
        !matches!(self, LValue::Var(_))
    }

    /// True when the store is volatile-qualified.
    pub fn is_volatile(&self) -> bool {
        matches!(self, LValue::Deref { volatile: true, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn constructors_and_queries() {
        let mut p = ExprPool::new();
        let a = p.var(v(0));
        let b = p.int(1);
        let e = p.ibinary(BinOp::Add, a, b);
        assert_eq!(p.size(e), 3);
        assert!(p.any(e, |n| *n == Expr::Var(v(0))));
        assert!(!p.any(e, |n| *n == Expr::Var(v(1))));
        assert!(!p.is_const(e));
        let three = p.int(3);
        assert!(p.is_const(three));
        assert_eq!(p.as_int(three), Some(3));
        assert_eq!(p.as_int(e), None);
    }

    #[test]
    fn addr_of_is_not_a_value_read() {
        let mut p = ExprPool::new();
        let e = p.addr_of(v(4));
        assert!(p.vars_read(e).is_empty());
        assert!(!p.any(e, |n| *n == Expr::Var(v(4))));
    }

    #[test]
    fn cast_identity_collapses() {
        let mut p = ExprPool::new();
        let five = p.int(5);
        let e = p.cast(ScalarType::Int, ScalarType::Int, five);
        assert_eq!(e, five);
        let e2 = p.cast(ScalarType::Float, ScalarType::Int, five);
        assert!(matches!(p[e2], Expr::Cast { .. }));
    }

    #[test]
    fn substitution_replaces_all_reads() {
        let mut p = ExprPool::new();
        let x1 = p.var(v(1));
        let x2 = p.var(v(1));
        let two = p.int(2);
        let add = p.ibinary(BinOp::Add, x2, two);
        let e = p.ibinary(BinOp::Mul, x1, add);
        let seven = p.int(7);
        let n = p.substitute_var(e, v(1), seven);
        assert_eq!(n, 2);
        assert!(!p.any(e, |n| *n == Expr::Var(v(1))));
    }

    #[test]
    fn substitution_is_in_place_and_structural() {
        let mut p = ExprPool::new();
        let x = p.var(v(0));
        let one = p.int(1);
        let root = p.ibinary(BinOp::Add, x, one);
        let y = p.var(v(9));
        let two = p.int(2);
        let repl = p.ibinary(BinOp::Mul, y, two);
        p.substitute_var(root, v(0), repl);
        // the root id is unchanged and now reads v9 through the copy
        assert!(p.any(root, |n| *n == Expr::Var(v(9))));
        // the replacement subtree itself is untouched and independent
        assert!(p.any(repl, |n| *n == Expr::Var(v(9))));
        let mut q = ExprPool::new();
        let qy = q.var(v(9));
        let q2 = q.int(2);
        let qmul = q.ibinary(BinOp::Mul, qy, q2);
        let q1 = q.int(1);
        let qroot = q.ibinary(BinOp::Add, qmul, q1);
        assert!(p.expr_eq(root, &q, qroot));
    }

    #[test]
    fn volatile_load_detection() {
        let mut p = ExprPool::new();
        let a = p.addr_of(v(0));
        let vl = p.alloc(Expr::Load {
            addr: a,
            ty: ScalarType::Int,
            volatile: true,
        });
        let one = p.int(1);
        let e = p.ibinary(BinOp::Add, vl, one);
        assert!(p.any(e, Expr::is_volatile_load));
        assert!(p.any(e, |n| matches!(n, Expr::Load { .. })));
        let a2 = p.addr_of(v(0));
        let pure = p.load(a2, ScalarType::Int);
        assert!(!p.any(pure, Expr::is_volatile_load));
        assert!(p.any(pure, |n| matches!(n, Expr::Load { .. })));
    }

    #[test]
    fn result_types() {
        let vt = |_: VarId| ScalarType::Float;
        let mut p = ExprPool::new();
        let x = p.var(v(0));
        let one = p.float(1.0);
        let cmp = p.binary(BinOp::Lt, ScalarType::Float, x, one);
        assert_eq!(p.result_type(cmp, &vt), ScalarType::Int);
        let add = p.binary(BinOp::Add, ScalarType::Float, x, one);
        assert_eq!(p.result_type(add, &vt), ScalarType::Float);
        let addr = p.addr_of(v(0));
        assert_eq!(p.result_type(addr, &vt), ScalarType::Ptr);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn lvalue_queries() {
        let mut p = ExprPool::new();
        let a = p.var(v(2));
        let lv = LValue::deref(a, ScalarType::Float);
        assert!(lv.is_memory());
        assert!(!lv.is_volatile());
        assert_eq!(lv.as_var(), None);
        assert_eq!(LValue::Var(v(3)).as_var(), Some(v(3)));
        assert_eq!(lv.address_exprs().len(), 1);
    }

    #[test]
    fn section_children() {
        let mut p = ExprPool::new();
        let base = p.addr_of(v(0));
        let len = p.int(32);
        let stride = p.int(4);
        let s = p.section(base, len, stride, ScalarType::Float);
        assert_eq!(p[s].child_ids().len(), 3);
        assert!(p.any(s, |n| matches!(n, Expr::Section { .. })));
    }

    #[test]
    fn import_copies_across_pools() {
        let mut p = ExprPool::new();
        let x = p.var(v(1));
        let k = p.int(3);
        let e = p.ibinary(BinOp::Mul, x, k);
        let mut q = ExprPool::new();
        let imported = q.import(&p, e);
        assert!(q.expr_eq(imported, &p, e));
        assert_eq!(q.size(imported), 3);
    }

    #[test]
    fn pool_counts_allocations_across_clone() {
        let mut p = ExprPool::new();
        let a = p.int(1);
        let _ = p.copy(a);
        assert_eq!(p.total_allocated(), 2);
        assert_eq!(p.len(), 2);
        assert!(p.bytes() > 0);
        let q = p.clone();
        assert_eq!(q.total_allocated(), 2);
    }
}

//! IL statements, stored flat in a per-procedure arena.
//!
//! Every memory mutation in the IL is an explicit statement (§4). Control
//! flow is mostly structured ([`StmtKind::If`], [`StmtKind::While`],
//! [`StmtKind::DoLoop`]) but `goto`/labels are first-class because C
//! permits branches into loops (§1 item 3) — the while→DO conversion uses
//! the control-flow graph to reject exactly those loops (§5.2).
//!
//! A statement *is* its [`StmtId`]: the id is both the stable per-procedure
//! stamp the analyses key on (use–def chains, dependence edges) and the
//! statement's slot in the procedure's [`StmtPool`]. Blocks are plain
//! `Vec<StmtId>` ([`Block`]), and a statement's kind and source span live in
//! parallel arena columns, so procedure clones copy three flat vectors
//! instead of walking a pointer tree.

use crate::expr::{Expr, ExprPool, LValue, SlotsMut};
use crate::ids::{ExprId, LabelId, StmtId, VarId};
use crate::span::SrcSpan;
use std::ops::{Index, IndexMut};

/// An ordered sequence of statements: ids into the owning [`StmtPool`].
pub type Block = Vec<StmtId>;

/// What one statement does. Child statements are [`Block`]s of ids and
/// operand expressions are [`ExprId`]s, both resolved through the owning
/// procedure's pools.
#[derive(Clone, PartialEq, Debug)]
pub enum StmtKind {
    /// `lhs = rhs` — the IL's only scalar mutation. When both sides are
    /// vector sections this is a vector statement in the paper's triplet
    /// notation.
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Assigned value.
        rhs: ExprId,
    },
    /// Structured two-way branch.
    If {
        /// Condition (nonzero = taken).
        cond: ExprId,
        /// Statements executed when the condition is nonzero.
        then_blk: Block,
        /// Statements executed when the condition is zero.
        else_blk: Block,
    },
    /// Pre-tested loop. `safe` is the §9 vectorization pragma: the user
    /// asserts iterations are independent.
    While {
        /// Loop condition (nonzero = continue).
        cond: ExprId,
        /// Loop body.
        body: Block,
        /// User-asserted independence pragma.
        safe: bool,
    },
    /// Fortran-style counted loop: `var` runs `lo, lo+step, …` while
    /// `var <= hi` (for `step > 0`) or `var >= hi` (for `step < 0`). This is
    /// the §5.2 target form, written `do fortran` in the paper's examples.
    DoLoop {
        /// Induction variable.
        var: VarId,
        /// Initial value.
        lo: ExprId,
        /// Inclusive bound.
        hi: ExprId,
        /// Increment (must be nonzero; sign fixed at entry).
        step: ExprId,
        /// Loop body.
        body: Block,
        /// User-asserted independence pragma.
        safe: bool,
    },
    /// A counted loop whose iterations the compiler has proven independent;
    /// the Titan spreads them across processors (§9's `do parallel`).
    DoParallel {
        /// Induction variable.
        var: VarId,
        /// Initial value.
        lo: ExprId,
        /// Inclusive bound.
        hi: ExprId,
        /// Increment.
        step: ExprId,
        /// Loop body.
        body: Block,
    },
    /// A *true* while loop whose iterations are spread across processors
    /// while the pointer chase stays serialized — the §10 future-work
    /// extension ("pulling the code for moving to the next element into
    /// the serialized portion of the parallel loop"). Per iteration the
    /// `parallel` work runs on some processor; the `serial` advance runs
    /// in order. Emitted only under the explicit independent-storage
    /// assumption the paper states.
    WhileSpread {
        /// Loop condition (nonzero = continue), evaluated serially.
        cond: ExprId,
        /// The distributable work of one iteration.
        parallel: Block,
        /// The serialized advance (pointer chase).
        serial: Block,
    },
    /// A branch target.
    Label(LabelId),
    /// An unconditional branch.
    Goto(LabelId),
    /// A conditional branch `if (cond) goto target` (used for inlined early
    /// returns and for `break`/`continue` lowering).
    IfGoto {
        /// Branch condition (nonzero = taken).
        cond: ExprId,
        /// Branch target.
        target: LabelId,
    },
    /// A procedure call `dst = callee(args…)`. Calls are statements, never
    /// expressions, so argument evaluation order and side effects are
    /// explicit.
    Call {
        /// Where the return value goes, if used.
        dst: Option<LValue>,
        /// Callee name (resolved by name so catalogs can be linked in).
        callee: String,
        /// Actual arguments (pure expressions).
        args: Vec<ExprId>,
    },
    /// Return from the procedure.
    Return(Option<ExprId>),
    /// A no-op left behind by deleting passes; swept by cleanup. Also fills
    /// arena slots whose ids are no longer referenced by any block.
    Nop,
}

/// The (up to two) nested blocks of one statement, without heap
/// allocation. Dereferences to a `[&Block]` slice.
#[derive(Clone, Copy, Debug)]
pub struct Blocks<'a> {
    buf: [&'a Block; 2],
    len: u8,
}

/// Fills the unused slots of a [`Blocks`].
static NO_BLOCK: Block = Vec::new();

impl<'a> Blocks<'a> {
    const NONE: Blocks<'static> = Blocks {
        buf: [&NO_BLOCK, &NO_BLOCK],
        len: 0,
    };

    fn one(a: &'a Block) -> Blocks<'a> {
        Blocks {
            buf: [a, &NO_BLOCK],
            len: 1,
        }
    }

    fn two(a: &'a Block, b: &'a Block) -> Blocks<'a> {
        Blocks {
            buf: [a, b],
            len: 2,
        }
    }
}

impl<'a> std::ops::Deref for Blocks<'a> {
    type Target = [&'a Block];

    fn deref(&self) -> &[&'a Block] {
        &self.buf[..self.len as usize]
    }
}

impl<'a> IntoIterator for Blocks<'a> {
    type Item = &'a Block;
    type IntoIter = std::iter::Take<std::array::IntoIter<&'a Block, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

/// Mutable access to the (up to two) nested blocks of one statement.
pub type BlocksMut<'a> = SlotsMut<'a, Block, 2>;

/// The operand expression ids of one statement, without heap allocation:
/// up to four inline (an assignment's target address operands and its
/// right-hand side) followed by a borrowed run (a call's arguments).
#[derive(Clone, Copy, Debug)]
pub struct StmtExprs<'a> {
    head: [ExprId; 4],
    head_len: u8,
    tail: &'a [ExprId],
}

impl<'a> StmtExprs<'a> {
    fn new(head: &[ExprId], tail: &'a [ExprId]) -> StmtExprs<'a> {
        let mut buf = [ExprId(0); 4];
        buf[..head.len()].copy_from_slice(head);
        StmtExprs {
            head: buf,
            head_len: head.len() as u8,
            tail,
        }
    }

    /// Number of operand expressions.
    pub fn len(&self) -> usize {
        self.head_len as usize + self.tail.len()
    }

    /// True when the statement evaluates no expression.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids, in evaluation order.
    pub fn iter(&self) -> StmtExprsIter<'a> {
        self.into_iter()
    }
}

/// Iterator over a [`StmtExprs`].
pub type StmtExprsIter<'a> = std::iter::Chain<
    std::iter::Take<std::array::IntoIter<ExprId, 4>>,
    std::iter::Copied<std::slice::Iter<'a, ExprId>>,
>;

impl<'a> IntoIterator for StmtExprs<'a> {
    type Item = ExprId;
    type IntoIter = StmtExprsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.head
            .into_iter()
            .take(self.head_len as usize)
            .chain(self.tail.iter().copied())
    }
}

/// Mutable slots of one statement's operand expression ids, without heap
/// allocation (the mutable counterpart of [`StmtExprs`]). Consumed by
/// iteration.
#[derive(Debug)]
pub struct ExprSlotsMut<'a> {
    head: SlotsMut<'a, ExprId, 4>,
    tail: &'a mut [ExprId],
}

impl<'a> IntoIterator for ExprSlotsMut<'a> {
    type Item = &'a mut ExprId;
    type IntoIter = std::iter::Chain<
        <SlotsMut<'a, ExprId, 4> as IntoIterator>::IntoIter,
        std::slice::IterMut<'a, ExprId>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.head.into_iter().chain(self.tail.iter_mut())
    }
}

impl StmtKind {
    /// The nested statement blocks, in source order.
    pub fn blocks(&self) -> Blocks<'_> {
        match self {
            StmtKind::If {
                then_blk, else_blk, ..
            } => Blocks::two(then_blk, else_blk),
            StmtKind::While { body, .. }
            | StmtKind::DoLoop { body, .. }
            | StmtKind::DoParallel { body, .. } => Blocks::one(body),
            StmtKind::WhileSpread {
                parallel, serial, ..
            } => Blocks::two(parallel, serial),
            _ => Blocks::NONE,
        }
    }

    /// Mutable access to the nested statement blocks.
    pub fn blocks_mut(&mut self) -> BlocksMut<'_> {
        SlotsMut::new(match self {
            StmtKind::If {
                then_blk, else_blk, ..
            } => [Some(then_blk), Some(else_blk)],
            StmtKind::While { body, .. }
            | StmtKind::DoLoop { body, .. }
            | StmtKind::DoParallel { body, .. } => [Some(body), None],
            StmtKind::WhileSpread {
                parallel, serial, ..
            } => [Some(parallel), Some(serial)],
            _ => [None, None],
        })
    }

    /// Ids of the expressions this statement evaluates directly (not those
    /// in nested blocks). For an `Assign` this includes the target's
    /// address expressions.
    pub fn exprs(&self) -> StmtExprs<'_> {
        match self {
            StmtKind::Assign { lhs, rhs } => {
                let mut exprs = StmtExprs::new(&lhs.address_exprs(), &[]);
                exprs.head[exprs.head_len as usize] = *rhs;
                exprs.head_len += 1;
                exprs
            }
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::WhileSpread { cond, .. }
            | StmtKind::IfGoto { cond, .. } => StmtExprs::new(&[*cond], &[]),
            StmtKind::DoLoop { lo, hi, step, .. } | StmtKind::DoParallel { lo, hi, step, .. } => {
                StmtExprs::new(&[*lo, *hi, *step], &[])
            }
            StmtKind::Call { dst, args, .. } => match dst {
                Some(d) => StmtExprs::new(&d.address_exprs(), args),
                None => StmtExprs::new(&[], args),
            },
            StmtKind::Return(Some(e)) => StmtExprs::new(&[*e], &[]),
            StmtKind::Label(_) | StmtKind::Goto(_) | StmtKind::Return(None) | StmtKind::Nop => {
                StmtExprs::new(&[], &[])
            }
        }
    }

    /// Mutable slots holding this statement's operand expression ids, for
    /// id rebinding (point an operand at a freshly built subtree).
    pub fn expr_slots_mut(&mut self) -> ExprSlotsMut<'_> {
        let (head, tail): ([Option<&mut ExprId>; 4], &mut [ExprId]) = match self {
            StmtKind::Assign { lhs, rhs } => {
                let [a, b, c] = lhs.address_exprs_mut().into_slots();
                ([a, b, c, Some(rhs)], &mut [])
            }
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::WhileSpread { cond, .. }
            | StmtKind::IfGoto { cond, .. } => ([Some(cond), None, None, None], &mut []),
            StmtKind::DoLoop { lo, hi, step, .. } | StmtKind::DoParallel { lo, hi, step, .. } => {
                ([Some(lo), Some(hi), Some(step), None], &mut [])
            }
            StmtKind::Call { dst, args, .. } => {
                let [a, b, c] = match dst {
                    Some(d) => d.address_exprs_mut().into_slots(),
                    None => [None, None, None],
                };
                ([a, b, c, None], args.as_mut_slice())
            }
            StmtKind::Return(Some(e)) => ([Some(e), None, None, None], &mut []),
            StmtKind::Label(_) | StmtKind::Goto(_) | StmtKind::Return(None) | StmtKind::Nop => {
                ([None, None, None, None], &mut [])
            }
        };
        ExprSlotsMut {
            head: SlotsMut::new(head),
            tail,
        }
    }

    /// The scalar variable this statement defines, if any. `DoLoop` and
    /// `DoParallel` define their induction variable.
    pub fn defined_var(&self) -> Option<VarId> {
        match self {
            StmtKind::Assign {
                lhs: LValue::Var(v),
                ..
            } => Some(*v),
            StmtKind::Call {
                dst: Some(LValue::Var(v)),
                ..
            } => Some(*v),
            StmtKind::DoLoop { var, .. } | StmtKind::DoParallel { var, .. } => Some(*var),
            _ => None,
        }
    }

    /// True when the statement (directly) stores through memory.
    pub fn writes_memory(&self) -> bool {
        match self {
            StmtKind::Assign { lhs, .. } => lhs.is_memory(),
            StmtKind::Call { .. } => true, // worst case: callee may write anything
            _ => false,
        }
    }

    /// True when this statement performs a volatile access (directly).
    pub fn has_volatile_access(&self, exprs: &ExprPool) -> bool {
        let lhs_volatile = match self {
            StmtKind::Assign { lhs, .. } => lhs.is_volatile(),
            _ => false,
        };
        lhs_volatile
            || self
                .exprs()
                .into_iter()
                .any(|e| exprs.any(e, Expr::is_volatile_load))
    }

    /// True when the statement is a structured or counted loop head.
    pub fn is_loop(&self) -> bool {
        matches!(
            self,
            StmtKind::While { .. }
                | StmtKind::DoLoop { .. }
                | StmtKind::DoParallel { .. }
                | StmtKind::WhileSpread { .. }
        )
    }
}

/// The flat statement arena of one procedure: parallel columns of
/// [`StmtKind`] and [`SrcSpan`] indexed by [`StmtId`].
///
/// Slot `s` exists for every stamp ever issued (`len()` ≡ the procedure's
/// `next_stmt`); slots no longer referenced by any block hold harmless
/// garbage and are reclaimed by [`crate::Procedure::restamp`]. Decoding a
/// serialized procedure may leave gap slots, which are filled with
/// [`StmtKind::Nop`].
#[derive(Clone, Debug, Default)]
pub struct StmtPool {
    kinds: Vec<StmtKind>,
    spans: Vec<SrcSpan>,
    total_allocated: u64,
}

impl Index<StmtId> for StmtPool {
    type Output = StmtKind;

    fn index(&self, id: StmtId) -> &StmtKind {
        &self.kinds[id.index()]
    }
}

impl IndexMut<StmtId> for StmtPool {
    fn index_mut(&mut self, id: StmtId) -> &mut StmtKind {
        &mut self.kinds[id.index()]
    }
}

impl StmtPool {
    /// An empty pool.
    pub fn new() -> StmtPool {
        StmtPool::default()
    }

    /// Number of stamps issued (arena slots, live and orphaned).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no statement has been allocated.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The raw kind column.
    pub fn kinds(&self) -> &[StmtKind] {
        &self.kinds
    }

    /// The raw span column (parallel to [`StmtPool::kinds`]).
    pub fn spans(&self) -> &[SrcSpan] {
        &self.spans
    }

    /// Mutable access to the span column (bulk retagging).
    pub fn spans_mut(&mut self) -> &mut [SrcSpan] {
        &mut self.spans
    }

    /// A pool over already-built parallel columns (the wire decoder's
    /// bulk path).
    pub(crate) fn from_columns(kinds: Vec<StmtKind>, spans: Vec<SrcSpan>) -> StmtPool {
        debug_assert_eq!(kinds.len(), spans.len());
        StmtPool {
            total_allocated: kinds.len() as u64,
            kinds,
            spans,
        }
    }

    /// Carries the lifetime allocation count across a compaction rebuild.
    pub(crate) fn set_total_allocated(&mut self, n: u64) {
        self.total_allocated = n;
    }

    /// Arena size in bytes (kind and span columns).
    pub fn bytes(&self) -> usize {
        self.kinds.len() * std::mem::size_of::<StmtKind>()
            + self.spans.len() * std::mem::size_of::<SrcSpan>()
    }

    /// Cumulative statement allocations over the pool's lifetime (survives
    /// compaction).
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Checked slot lookup (used by the verifier to reject dangling ids).
    pub fn get_checked(&self, id: StmtId) -> Option<&StmtKind> {
        self.kinds.get(id.index())
    }

    /// Allocates a statement with a fresh stamp.
    pub fn alloc(&mut self, kind: StmtKind, span: SrcSpan) -> StmtId {
        let id = StmtId::from_index(self.kinds.len());
        self.kinds.push(kind);
        self.spans.push(span);
        self.total_allocated += 1;
        id
    }

    /// Withdraws every stamp issued after the first `len`, so a pass that
    /// built statements it then drops (the vectorizer's trial unrolling)
    /// leaves the stamp watermark, and the encoded procedure, as it found
    /// them. No block may hold a withdrawn id.
    pub fn truncate(&mut self, len: usize) {
        self.kinds.truncate(len);
        self.spans.truncate(len);
    }

    /// Grows the arena with `Nop` slots until `len() == n` (decode uses
    /// this to respect serialized stamps and their gaps).
    pub fn grow_to(&mut self, n: usize) {
        while self.kinds.len() < n {
            self.alloc(StmtKind::Nop, SrcSpan::NONE);
        }
    }

    /// The source span of statement `id`.
    pub fn span(&self, id: StmtId) -> SrcSpan {
        self.spans[id.index()]
    }

    /// Re-anchors statement `id` to `span`.
    pub fn set_span(&mut self, id: StmtId, span: SrcSpan) {
        self.spans[id.index()] = span;
    }

    /// Total number of statements in the tree rooted at `id` (including
    /// nested blocks).
    pub fn tree_len(&self, id: StmtId) -> usize {
        1 + self[id]
            .blocks()
            .iter()
            .flat_map(|b| b.iter())
            .map(|&s| self.tree_len(s))
            .sum::<usize>()
    }
}

/// Total number of statements in a block tree.
pub fn block_len(stmts: &StmtPool, block: &[StmtId]) -> usize {
    block.iter().map(|&s| stmts.tree_len(s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::expr::Expr;
    use crate::types::ScalarType;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn assign_exprs_include_lhs_address() {
        let mut e = ExprPool::new();
        let addr = e.var(v(0));
        let one = e.float(1.0);
        let s = StmtKind::Assign {
            lhs: LValue::deref(addr, ScalarType::Float),
            rhs: one,
        };
        assert_eq!(s.exprs().len(), 2);
        assert!(s.writes_memory());
        assert_eq!(s.defined_var(), None);
    }

    #[test]
    fn var_assign_defines() {
        let mut e = ExprPool::new();
        let one = e.int(1);
        let s = StmtKind::Assign {
            lhs: LValue::Var(v(3)),
            rhs: one,
        };
        assert_eq!(s.defined_var(), Some(v(3)));
        assert!(!s.writes_memory());
    }

    #[test]
    fn do_loop_defines_induction_var() {
        let mut e = ExprPool::new();
        let lo = e.int(0);
        let hi = e.int(9);
        let step = e.int(1);
        let s = StmtKind::DoLoop {
            var: v(7),
            lo,
            hi,
            step,
            body: vec![],
            safe: false,
        };
        assert_eq!(s.defined_var(), Some(v(7)));
        assert!(s.is_loop());
        assert_eq!(s.exprs().len(), 3);
    }

    #[test]
    fn tree_len_counts_nested() {
        let mut e = ExprPool::new();
        let mut p = StmtPool::new();
        let cond = e.int(1);
        let n1 = p.alloc(StmtKind::Nop, SrcSpan::NONE);
        let n2 = p.alloc(StmtKind::Nop, SrcSpan::NONE);
        let w = p.alloc(
            StmtKind::While {
                cond,
                body: vec![n1, n2],
                safe: false,
            },
            SrcSpan::NONE,
        );
        assert_eq!(p.tree_len(w), 3);
        let n3 = p.alloc(StmtKind::Nop, SrcSpan::NONE);
        assert_eq!(block_len(&p, &[w, n3]), 4);
        assert_eq!(p.total_allocated(), 4);
    }

    #[test]
    fn call_is_worst_case_memory_writer() {
        let mut e = ExprPool::new();
        let one = e.int(1);
        let s = StmtKind::Call {
            dst: None,
            callee: "f".into(),
            args: vec![one],
        };
        assert!(s.writes_memory());
        assert_eq!(s.exprs().len(), 1);
    }

    #[test]
    fn volatile_access_detection() {
        let mut e = ExprPool::new();
        let a = e.addr_of(v(1));
        let vl = e.alloc(Expr::Load {
            addr: a,
            ty: ScalarType::Int,
            volatile: true,
        });
        let s = StmtKind::Assign {
            lhs: LValue::Var(v(0)),
            rhs: vl,
        };
        assert!(s.has_volatile_access(&e));
        let x = e.var(v(1));
        let one = e.int(1);
        let add = e.ibinary(BinOp::Add, x, one);
        let pure = StmtKind::Assign {
            lhs: LValue::Var(v(0)),
            rhs: add,
        };
        assert!(!pure.has_volatile_access(&e));
    }

    #[test]
    fn while_spread_blocks_and_exprs() {
        let mut e = ExprPool::new();
        let mut p = StmtPool::new();
        let cond = e.var(v(0));
        let a = p.alloc(StmtKind::Nop, SrcSpan::NONE);
        let b = p.alloc(StmtKind::Nop, SrcSpan::NONE);
        let c = p.alloc(StmtKind::Nop, SrcSpan::NONE);
        let s = StmtKind::WhileSpread {
            cond,
            parallel: vec![a],
            serial: vec![b, c],
        };
        assert_eq!(s.blocks().len(), 2);
        assert_eq!(s.blocks()[0].len(), 1);
        assert_eq!(s.blocks()[1].len(), 2);
        assert_eq!(s.exprs().len(), 1);
        assert!(s.is_loop());
        let ws = p.alloc(s, SrcSpan::NONE);
        assert_eq!(p.tree_len(ws), 4);
    }

    #[test]
    fn if_blocks() {
        let mut e = ExprPool::new();
        let mut p = StmtPool::new();
        let cond = e.int(1);
        let n = p.alloc(StmtKind::Nop, SrcSpan::NONE);
        let s = StmtKind::If {
            cond,
            then_blk: vec![n],
            else_blk: vec![],
        };
        assert_eq!(s.blocks().len(), 2);
        assert_eq!(s.blocks()[0].len(), 1);
    }

    #[test]
    fn grow_to_fills_with_nops() {
        let mut p = StmtPool::new();
        p.grow_to(3);
        assert_eq!(p.len(), 3);
        assert!(matches!(p[StmtId(2)], StmtKind::Nop));
        assert_eq!(p.span(StmtId(1)), SrcSpan::NONE);
    }
}

//! The C abstract syntax tree.
//!
//! The AST is deliberately faithful to C's surface: `++`, embedded
//! assignment, `?:`, `&&`, `||` and the comma operator all appear here and
//! are only recast into the side-effect-free IL by `titanc-lower` (§4).

use crate::error::Span;

/// A possibly-volatile-qualified type. (`const` is accepted and dropped;
/// `volatile` is the qualifier the paper cares about.)
#[derive(Clone, PartialEq, Debug)]
pub struct QualType {
    /// The unqualified type.
    pub ty: CType,
    /// `volatile`-qualified.
    pub volatile: bool,
}

impl QualType {
    /// An unqualified type.
    pub fn plain(ty: CType) -> QualType {
        QualType {
            ty,
            volatile: false,
        }
    }

    /// A pointer to this type.
    pub fn ptr(self) -> QualType {
        QualType::plain(CType::Ptr(Box::new(self)))
    }
}

/// A C type as written.
#[derive(Clone, PartialEq, Debug)]
pub enum CType {
    /// `void`.
    Void,
    /// `char` (signed, 1 byte).
    Char,
    /// `int` (and, in this front end, `short`/`long`/`unsigned`, all
    /// treated as the Titan's 32-bit word).
    Int,
    /// `float` (4 bytes).
    Float,
    /// `double` (8 bytes).
    Double,
    /// Pointer.
    Ptr(Box<QualType>),
    /// Array; `None` length means `[]` (adjusted to a pointer in
    /// parameters).
    Array(Box<QualType>, Option<usize>),
    /// `struct tag`.
    Struct(String),
}

/// Storage-class specifier.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StorageClass {
    /// No explicit storage class.
    #[default]
    None,
    /// `static`.
    Static,
    /// `extern`.
    Extern,
    /// `register` (accepted; a hint the Titan compiler ignores because it
    /// allocates registers globally, §4).
    Register,
}

/// A whole translation unit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TranslationUnit {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Clone, PartialEq, Debug)]
pub enum Item {
    /// Function definition.
    Func(FuncDef),
    /// Function prototype.
    Proto(FuncProto),
    /// Global variable definition/declaration.
    Global(VarDecl),
    /// Struct definition.
    Struct(StructDecl),
}

/// A struct definition `struct tag { … };`.
#[derive(Clone, PartialEq, Debug)]
pub struct StructDecl {
    /// The tag.
    pub name: String,
    /// Fields in order: name, type and the position of the declarator.
    pub fields: Vec<(String, QualType, Span)>,
    /// Source position.
    pub span: Span,
}

/// A function prototype.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncProto {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: QualType,
    /// Parameters.
    pub params: Vec<Param>,
    /// Source position.
    pub span: Span,
}

/// One parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct Param {
    /// Name (absent in prototypes like `void f(int);`).
    pub name: Option<String>,
    /// Declared type (arrays already adjusted to pointers).
    pub ty: QualType,
}

/// A function definition.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: QualType,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Declared `static`.
    pub is_static: bool,
    /// Source position.
    pub span: Span,
}

/// A variable declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: QualType,
    /// Storage class.
    pub storage: StorageClass,
    /// Scalar initializer, if any.
    pub init: Option<Expr>,
    /// Source position.
    pub span: Span,
}

/// A statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// Local declaration(s) — one statement may declare several variables
    /// (`float *p, *q, r;`), all in the *enclosing* scope.
    Decl(Vec<VarDecl>),
    /// Expression statement.
    Expr(Expr),
    /// `;`
    Empty,
    /// `{ … }`
    Block(Vec<Stmt>),
    /// `if`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_s: Box<Stmt>,
        /// Else branch.
        else_s: Option<Box<Stmt>>,
    },
    /// `while`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `do … while`.
    DoWhile {
        /// Body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
    },
    /// `for`.
    For {
        /// Init expression (C89: no declarations here).
        init: Option<Expr>,
        /// Condition.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `return`.
    Return(Option<Expr>),
    /// `break`, at its keyword.
    Break(Span),
    /// `continue`, at its keyword.
    Continue(Span),
    /// `goto label`, at its keyword.
    Goto(String, Span),
    /// `label: stmt`, at the label.
    Label(String, Box<Stmt>, Span),
    /// `#pragma safe` — asserts the next loop's iterations are independent
    /// (the §9 vectorization pragma).
    PragmaSafe,
    /// `switch` with its body flattened to one statement list in which
    /// [`Stmt::Case`]/[`Stmt::Default`] markers appear (C's fallthrough
    /// semantics preserved).
    Switch {
        /// Scrutinee.
        cond: Expr,
        /// Body with interleaved case markers.
        body: Vec<Stmt>,
    },
    /// `case N:` marker (only valid directly inside a switch body), at
    /// its keyword.
    Case(i64, Span),
    /// `default:` marker (only valid directly inside a switch body), at
    /// its keyword.
    Default(Span),
}

/// Binary operators as written in C (`&&`/`||` included; they are recast by
/// lowering, not here).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum CBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LogAnd,
    LogOr,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum CUnOp {
    Neg,
    Plus,
    Not,
    BitNot,
    Deref,
    AddrOf,
}

/// An expression with its source position.
#[derive(Clone, PartialEq, Debug)]
pub struct Expr {
    /// The node.
    pub kind: ExprKind,
    /// Source position.
    pub span: Span,
}

impl Expr {
    /// Builds an expression node.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }
}

/// Expression node kinds.
#[derive(Clone, PartialEq, Debug)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal; `true` = `f`-suffixed (single precision).
    FloatLit(f64, bool),
    /// Character literal.
    CharLit(i64),
    /// String literal.
    StrLit(String),
    /// Identifier.
    Ident(String),
    /// Unary operation.
    Unary(CUnOp, Box<Expr>),
    /// Binary operation (including `&&`/`||`).
    Binary(CBinOp, Box<Expr>, Box<Expr>),
    /// Assignment; `op` is `Some` for compound assignment (`+=` etc.).
    Assign {
        /// Compound operator, if any.
        op: Option<CBinOp>,
        /// Target.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// `++`/`--`, prefix or postfix.
    IncDec {
        /// +1 or -1.
        inc: bool,
        /// Prefix form.
        prefix: bool,
        /// Operand.
        arg: Box<Expr>,
    },
    /// `?:`.
    Cond {
        /// Condition.
        cond: Box<Expr>,
        /// Taken when nonzero.
        then_e: Box<Expr>,
        /// Taken when zero.
        else_e: Box<Expr>,
    },
    /// Comma operator.
    Comma(Box<Expr>, Box<Expr>),
    /// Direct call `name(args…)`.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// `base.field` / `base->field`.
    Member {
        /// Object (or pointer for `->`).
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// `->` form.
        arrow: bool,
    },
    /// `(type)expr`.
    Cast(QualType, Box<Expr>),
    /// `sizeof(type)`.
    SizeofTy(QualType),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualtype_ptr_builder() {
        let q = QualType::plain(CType::Float).ptr();
        match q.ty {
            CType::Ptr(inner) => assert_eq!(inner.ty, CType::Float),
            _ => panic!("expected pointer"),
        }
    }

    #[test]
    fn default_storage_class() {
        assert_eq!(StorageClass::default(), StorageClass::None);
    }
}

//! JSON conversions for the IL type tree.
//!
//! Only the types a [`crate::Catalog`] contains are encoded: procedures,
//! statements, expressions, types, symbol-table entries and struct
//! layouts. The encoding is externally tagged (unit variants as strings,
//! data variants as single-key objects) so catalogs stay diffable.
//!
//! The *wire format is the structural tree*, not the arena: expressions
//! serialize as nested objects and statements as `{"id", "kind", "span"?}`
//! objects with their blocks inline, exactly as when the IL was boxed.
//! Arena layout is a memory detail that never leaks into catalogs, so
//! pre-refactor catalogs decode unchanged and encoded output is
//! byte-identical. Types that need pool context to resolve ids
//! ([`crate::Expr`], [`crate::LValue`], statements) convert through the
//! free functions here; self-contained types keep [`ToJson`]/[`FromJson`]
//! impls.

use crate::expr::{BinOp, Expr, ExprPool, LValue, UnOp};
use crate::ids::{ExprId, LabelId, ProcId, StmtId, StructId, VarId};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::program::{ConstInit, Field, Procedure, Storage, StructDef, VarInfo};
use crate::span::SrcSpan;
use crate::stmt::{Block, StmtKind};
use crate::types::{ScalarType, Type};

fn bad(what: &str, got: &str) -> JsonError {
    JsonError {
        message: format!("unknown {what} `{got}`"),
        offset: 0,
    }
}

macro_rules! id_json {
    ($ty:ident) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(i64::from(self.0))
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                Ok($ty(u32::from_json(v)?))
            }
        }
    };
}

id_json!(VarId);
id_json!(ProcId);
id_json!(LabelId);
id_json!(StmtId);
id_json!(StructId);

macro_rules! unit_enum_json {
    ($ty:ident, $what:expr, [$($variant:ident),+ $(,)?]) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let name = match self {
                    $($ty::$variant => stringify!($variant),)+
                };
                Json::Str(name.to_string())
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v.as_str()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    other => Err(bad($what, other)),
                }
            }
        }
    };
}

unit_enum_json!(ScalarType, "scalar type", [Char, Int, Float, Double, Ptr]);
unit_enum_json!(
    Storage,
    "storage class",
    [Auto, Param, Temp, Static, Global]
);
unit_enum_json!(
    BinOp,
    "binary operator",
    [Add, Sub, Mul, Div, Rem, Eq, Ne, Lt, Le, Gt, Ge, BitAnd, BitOr, BitXor, Shl, Shr, Min, Max,]
);
unit_enum_json!(UnOp, "unary operator", [Neg, Not, BitNot]);

impl ToJson for Type {
    fn to_json(&self) -> Json {
        match self {
            Type::Void => Json::Str("Void".into()),
            Type::Char => Json::Str("Char".into()),
            Type::Int => Json::Str("Int".into()),
            Type::Float => Json::Str("Float".into()),
            Type::Double => Json::Str("Double".into()),
            Type::Ptr(inner) => Json::tagged("Ptr", inner.to_json()),
            Type::Array(elem, n) => {
                Json::tagged("Array", Json::Arr(vec![elem.to_json(), n.to_json()]))
            }
            Type::Struct(sid) => Json::tagged("Struct", sid.to_json()),
        }
    }
}

impl FromJson for Type {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, payload) = v.variant()?;
        match (tag, payload) {
            ("Void", None) => Ok(Type::Void),
            ("Char", None) => Ok(Type::Char),
            ("Int", None) => Ok(Type::Int),
            ("Float", None) => Ok(Type::Float),
            ("Double", None) => Ok(Type::Double),
            ("Ptr", Some(p)) => Ok(Type::Ptr(Box::from_json(p)?)),
            ("Array", Some(p)) => {
                let [elem, n] = two(p)?;
                Ok(Type::Array(Box::from_json(elem)?, usize::from_json(n)?))
            }
            ("Struct", Some(p)) => Ok(Type::Struct(StructId::from_json(p)?)),
            _ => Err(bad("type", tag)),
        }
    }
}

fn two(v: &Json) -> Result<[&Json; 2], JsonError> {
    match v.as_arr()? {
        [a, b] => Ok([a, b]),
        _ => Err(JsonError {
            message: "expected a 2-element array".into(),
            offset: 0,
        }),
    }
}

/// Encodes the expression subtree at `id` as a nested tagged tree.
pub fn expr_to_json(pool: &ExprPool, id: ExprId) -> Json {
    match pool[id] {
        Expr::IntConst(v) => Json::tagged("IntConst", v.to_json()),
        Expr::FloatConst(v, ty) => {
            Json::tagged("FloatConst", Json::Arr(vec![v.to_json(), ty.to_json()]))
        }
        Expr::Var(v) => Json::tagged("Var", v.to_json()),
        Expr::AddrOf(v) => Json::tagged("AddrOf", v.to_json()),
        Expr::Load { addr, ty, volatile } => Json::tagged(
            "Load",
            Json::obj(vec![
                ("addr", expr_to_json(pool, addr)),
                ("ty", ty.to_json()),
                ("volatile", volatile.to_json()),
            ]),
        ),
        Expr::Unary { op, ty, arg } => Json::tagged(
            "Unary",
            Json::obj(vec![
                ("op", op.to_json()),
                ("ty", ty.to_json()),
                ("arg", expr_to_json(pool, arg)),
            ]),
        ),
        Expr::Binary { op, ty, lhs, rhs } => Json::tagged(
            "Binary",
            Json::obj(vec![
                ("op", op.to_json()),
                ("ty", ty.to_json()),
                ("lhs", expr_to_json(pool, lhs)),
                ("rhs", expr_to_json(pool, rhs)),
            ]),
        ),
        Expr::Cast { to, from, arg } => Json::tagged(
            "Cast",
            Json::obj(vec![
                ("to", to.to_json()),
                ("from", from.to_json()),
                ("arg", expr_to_json(pool, arg)),
            ]),
        ),
        Expr::Section {
            base,
            len,
            stride,
            ty,
        } => Json::tagged(
            "Section",
            Json::obj(vec![
                ("base", expr_to_json(pool, base)),
                ("len", expr_to_json(pool, len)),
                ("stride", expr_to_json(pool, stride)),
                ("ty", ty.to_json()),
            ]),
        ),
    }
}

/// Decodes a nested expression tree into the pool, returning the root id
/// (children are allocated before parents, giving canonical postorder
/// layout).
pub fn expr_from_json(pool: &mut ExprPool, v: &Json) -> Result<ExprId, JsonError> {
    let (tag, payload) = v.variant()?;
    let p = payload.ok_or_else(|| bad("expression", tag))?;
    let node = match tag {
        "IntConst" => Expr::IntConst(i64::from_json(p)?),
        "FloatConst" => {
            let [f, ty] = two(p)?;
            Expr::FloatConst(f64::from_json(f)?, ScalarType::from_json(ty)?)
        }
        "Var" => Expr::Var(VarId::from_json(p)?),
        "AddrOf" => Expr::AddrOf(VarId::from_json(p)?),
        "Load" => Expr::Load {
            addr: expr_from_json(pool, p.field("addr")?)?,
            ty: ScalarType::from_json(p.field("ty")?)?,
            volatile: bool::from_json(p.field("volatile")?)?,
        },
        "Unary" => Expr::Unary {
            op: UnOp::from_json(p.field("op")?)?,
            ty: ScalarType::from_json(p.field("ty")?)?,
            arg: expr_from_json(pool, p.field("arg")?)?,
        },
        "Binary" => Expr::Binary {
            op: BinOp::from_json(p.field("op")?)?,
            ty: ScalarType::from_json(p.field("ty")?)?,
            lhs: expr_from_json(pool, p.field("lhs")?)?,
            rhs: expr_from_json(pool, p.field("rhs")?)?,
        },
        "Cast" => Expr::Cast {
            to: ScalarType::from_json(p.field("to")?)?,
            from: ScalarType::from_json(p.field("from")?)?,
            arg: expr_from_json(pool, p.field("arg")?)?,
        },
        "Section" => Expr::Section {
            base: expr_from_json(pool, p.field("base")?)?,
            len: expr_from_json(pool, p.field("len")?)?,
            stride: expr_from_json(pool, p.field("stride")?)?,
            ty: ScalarType::from_json(p.field("ty")?)?,
        },
        other => return Err(bad("expression", other)),
    };
    Ok(pool.alloc(node))
}

/// Encodes an lvalue (address expressions inline as nested trees).
pub fn lvalue_to_json(pool: &ExprPool, lv: &LValue) -> Json {
    match *lv {
        LValue::Var(v) => Json::tagged("Var", v.to_json()),
        LValue::Deref { addr, ty, volatile } => Json::tagged(
            "Deref",
            Json::obj(vec![
                ("addr", expr_to_json(pool, addr)),
                ("ty", ty.to_json()),
                ("volatile", volatile.to_json()),
            ]),
        ),
        LValue::Section {
            base,
            len,
            stride,
            ty,
        } => Json::tagged(
            "Section",
            Json::obj(vec![
                ("base", expr_to_json(pool, base)),
                ("len", expr_to_json(pool, len)),
                ("stride", expr_to_json(pool, stride)),
                ("ty", ty.to_json()),
            ]),
        ),
    }
}

/// Decodes an lvalue, allocating its address expressions in the pool.
pub fn lvalue_from_json(pool: &mut ExprPool, v: &Json) -> Result<LValue, JsonError> {
    let (tag, payload) = v.variant()?;
    let p = payload.ok_or_else(|| bad("lvalue", tag))?;
    match tag {
        "Var" => Ok(LValue::Var(VarId::from_json(p)?)),
        "Deref" => Ok(LValue::Deref {
            addr: expr_from_json(pool, p.field("addr")?)?,
            ty: ScalarType::from_json(p.field("ty")?)?,
            volatile: bool::from_json(p.field("volatile")?)?,
        }),
        "Section" => Ok(LValue::Section {
            base: expr_from_json(pool, p.field("base")?)?,
            len: expr_from_json(pool, p.field("len")?)?,
            stride: expr_from_json(pool, p.field("stride")?)?,
            ty: ScalarType::from_json(p.field("ty")?)?,
        }),
        other => Err(bad("lvalue", other)),
    }
}

/// A statement span: `[line, col]` for current-TU spans, `[line, col,
/// file]` once an origin tag is attached — legacy two-element spans stay
/// valid.
fn span_to_json(span: SrcSpan) -> Json {
    let mut arr = vec![
        Json::Int(i64::from(span.line)),
        Json::Int(i64::from(span.col)),
    ];
    if span.file != 0 {
        arr.push(Json::Int(i64::from(span.file)));
    }
    Json::Arr(arr)
}

fn span_from_json(v: &Json) -> Result<SrcSpan, JsonError> {
    match v.as_arr()? {
        [line, col] => Ok(SrcSpan::new(u32::from_json(line)?, u32::from_json(col)?)),
        [line, col, file] => Ok(SrcSpan::new(u32::from_json(line)?, u32::from_json(col)?)
            .in_file(u32::from_json(file)?)),
        _ => Err(bad("span", "expected [line, col] or [line, col, file]")),
    }
}

/// Encodes one statement as `{"id": …, "kind": …, "span"?: …}` with nested
/// blocks inline.
pub fn stmt_to_json(proc: &Procedure, s: StmtId) -> Json {
    let span = proc.stmts.span(s);
    let mut pairs = vec![
        ("id", s.to_json()),
        ("kind", stmt_kind_to_json(proc, &proc.stmts[s])),
    ];
    if span.is_known() {
        // spans are emitted only when present so catalogs of
        // synthesized procedures stay compact (and older catalogs,
        // which predate spans, decode unchanged)
        pairs.push(("span", span_to_json(span)));
    }
    Json::obj(pairs)
}

/// Encodes a block as an array of statement objects.
pub fn block_to_json(proc: &Procedure, block: &[StmtId]) -> Json {
    Json::Arr(block.iter().map(|&s| stmt_to_json(proc, s)).collect())
}

fn stmt_kind_to_json(proc: &Procedure, kind: &StmtKind) -> Json {
    let pool = &proc.exprs;
    match kind {
        StmtKind::Assign { lhs, rhs } => Json::tagged(
            "Assign",
            Json::obj(vec![
                ("lhs", lvalue_to_json(pool, lhs)),
                ("rhs", expr_to_json(pool, *rhs)),
            ]),
        ),
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => Json::tagged(
            "If",
            Json::obj(vec![
                ("cond", expr_to_json(pool, *cond)),
                ("then_blk", block_to_json(proc, then_blk)),
                ("else_blk", block_to_json(proc, else_blk)),
            ]),
        ),
        StmtKind::While { cond, body, safe } => Json::tagged(
            "While",
            Json::obj(vec![
                ("cond", expr_to_json(pool, *cond)),
                ("body", block_to_json(proc, body)),
                ("safe", safe.to_json()),
            ]),
        ),
        StmtKind::DoLoop {
            var,
            lo,
            hi,
            step,
            body,
            safe,
        } => Json::tagged(
            "DoLoop",
            Json::obj(vec![
                ("var", var.to_json()),
                ("lo", expr_to_json(pool, *lo)),
                ("hi", expr_to_json(pool, *hi)),
                ("step", expr_to_json(pool, *step)),
                ("body", block_to_json(proc, body)),
                ("safe", safe.to_json()),
            ]),
        ),
        StmtKind::DoParallel {
            var,
            lo,
            hi,
            step,
            body,
        } => Json::tagged(
            "DoParallel",
            Json::obj(vec![
                ("var", var.to_json()),
                ("lo", expr_to_json(pool, *lo)),
                ("hi", expr_to_json(pool, *hi)),
                ("step", expr_to_json(pool, *step)),
                ("body", block_to_json(proc, body)),
            ]),
        ),
        StmtKind::WhileSpread {
            cond,
            parallel,
            serial,
        } => Json::tagged(
            "WhileSpread",
            Json::obj(vec![
                ("cond", expr_to_json(pool, *cond)),
                ("parallel", block_to_json(proc, parallel)),
                ("serial", block_to_json(proc, serial)),
            ]),
        ),
        StmtKind::Label(l) => Json::tagged("Label", l.to_json()),
        StmtKind::Goto(l) => Json::tagged("Goto", l.to_json()),
        StmtKind::IfGoto { cond, target } => Json::tagged(
            "IfGoto",
            Json::obj(vec![
                ("cond", expr_to_json(pool, *cond)),
                ("target", target.to_json()),
            ]),
        ),
        StmtKind::Call { dst, callee, args } => Json::tagged(
            "Call",
            Json::obj(vec![
                (
                    "dst",
                    match dst {
                        Some(d) => lvalue_to_json(pool, d),
                        None => Json::Null,
                    },
                ),
                ("callee", callee.to_json()),
                (
                    "args",
                    Json::Arr(args.iter().map(|&a| expr_to_json(pool, a)).collect()),
                ),
            ]),
        ),
        StmtKind::Return(e) => Json::tagged(
            "Return",
            match e {
                Some(e) => expr_to_json(pool, *e),
                None => Json::Null,
            },
        ),
        StmtKind::Nop => Json::Str("Nop".into()),
    }
}

/// Decodes one statement object into the procedure's arenas, placing it at
/// its recorded stamp (the pool grows with `Nop` gap slots as needed) and
/// returning that id.
pub fn stmt_from_json(proc: &mut Procedure, v: &Json) -> Result<StmtId, JsonError> {
    let id = StmtId::from_json(v.field("id")?)?;
    check_stmt_gap(&proc.stmts, id.index() + 1)?;
    let span = match v.get("span") {
        Some(s) => span_from_json(s)?,
        None => SrcSpan::NONE,
    };
    let kind = stmt_kind_from_json(proc, v.field("kind")?)?;
    proc.stmts.grow_to(id.index() + 1);
    proc.stmts[id] = kind;
    proc.stmts.set_span(id, span);
    Ok(id)
}

/// Real catalogs only have stamp gaps left by swept statements, so a
/// recorded id far beyond the decoded arena is corruption — reject it
/// instead of materializing gigabytes of gap slots.
const MAX_STMT_GAP: usize = 1 << 20;

fn check_stmt_gap(stmts: &crate::stmt::StmtPool, wanted: usize) -> Result<(), JsonError> {
    if wanted > stmts.len().saturating_add(MAX_STMT_GAP) {
        return Err(JsonError {
            message: format!(
                "statement id {} implausibly far beyond the {}-slot arena",
                wanted - 1,
                stmts.len()
            ),
            offset: 0,
        });
    }
    Ok(())
}

/// Decodes an array of statement objects into a block of ids.
pub fn block_from_json(proc: &mut Procedure, v: &Json) -> Result<Block, JsonError> {
    v.as_arr()?
        .iter()
        .map(|s| stmt_from_json(proc, s))
        .collect()
}

fn stmt_kind_from_json(proc: &mut Procedure, v: &Json) -> Result<StmtKind, JsonError> {
    let (tag, payload) = v.variant()?;
    if tag == "Nop" {
        return Ok(StmtKind::Nop);
    }
    let p = payload.ok_or_else(|| bad("statement", tag))?;
    match tag {
        "Assign" => Ok(StmtKind::Assign {
            lhs: lvalue_from_json(&mut proc.exprs, p.field("lhs")?)?,
            rhs: expr_from_json(&mut proc.exprs, p.field("rhs")?)?,
        }),
        "If" => Ok(StmtKind::If {
            cond: expr_from_json(&mut proc.exprs, p.field("cond")?)?,
            then_blk: block_from_json(proc, p.field("then_blk")?)?,
            else_blk: block_from_json(proc, p.field("else_blk")?)?,
        }),
        "While" => Ok(StmtKind::While {
            cond: expr_from_json(&mut proc.exprs, p.field("cond")?)?,
            body: block_from_json(proc, p.field("body")?)?,
            safe: bool::from_json(p.field("safe")?)?,
        }),
        "DoLoop" => Ok(StmtKind::DoLoop {
            var: VarId::from_json(p.field("var")?)?,
            lo: expr_from_json(&mut proc.exprs, p.field("lo")?)?,
            hi: expr_from_json(&mut proc.exprs, p.field("hi")?)?,
            step: expr_from_json(&mut proc.exprs, p.field("step")?)?,
            body: block_from_json(proc, p.field("body")?)?,
            safe: bool::from_json(p.field("safe")?)?,
        }),
        "DoParallel" => Ok(StmtKind::DoParallel {
            var: VarId::from_json(p.field("var")?)?,
            lo: expr_from_json(&mut proc.exprs, p.field("lo")?)?,
            hi: expr_from_json(&mut proc.exprs, p.field("hi")?)?,
            step: expr_from_json(&mut proc.exprs, p.field("step")?)?,
            body: block_from_json(proc, p.field("body")?)?,
        }),
        "WhileSpread" => Ok(StmtKind::WhileSpread {
            cond: expr_from_json(&mut proc.exprs, p.field("cond")?)?,
            parallel: block_from_json(proc, p.field("parallel")?)?,
            serial: block_from_json(proc, p.field("serial")?)?,
        }),
        "Label" => Ok(StmtKind::Label(LabelId::from_json(p)?)),
        "Goto" => Ok(StmtKind::Goto(LabelId::from_json(p)?)),
        "IfGoto" => Ok(StmtKind::IfGoto {
            cond: expr_from_json(&mut proc.exprs, p.field("cond")?)?,
            target: LabelId::from_json(p.field("target")?)?,
        }),
        "Call" => {
            let dst = match p.field("dst")? {
                Json::Null => None,
                d => Some(lvalue_from_json(&mut proc.exprs, d)?),
            };
            let args = p
                .field("args")?
                .as_arr()?
                .iter()
                .map(|a| expr_from_json(&mut proc.exprs, a))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(StmtKind::Call {
                dst,
                callee: String::from_json(p.field("callee")?)?,
                args,
            })
        }
        "Return" => Ok(StmtKind::Return(match p {
            Json::Null => None,
            e => Some(expr_from_json(&mut proc.exprs, e)?),
        })),
        other => Err(bad("statement", other)),
    }
}

impl ToJson for ConstInit {
    fn to_json(&self) -> Json {
        match self {
            ConstInit::Int(v) => Json::tagged("Int", v.to_json()),
            ConstInit::Float(v) => Json::tagged("Float", v.to_json()),
        }
    }
}

impl FromJson for ConstInit {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, payload) = v.variant()?;
        let p = payload.ok_or_else(|| bad("initializer", tag))?;
        match tag {
            "Int" => Ok(ConstInit::Int(i64::from_json(p)?)),
            "Float" => Ok(ConstInit::Float(f64::from_json(p)?)),
            other => Err(bad("initializer", other)),
        }
    }
}

impl ToJson for VarInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("ty", self.ty.to_json()),
            ("storage", self.storage.to_json()),
            ("volatile", self.volatile.to_json()),
            ("addressed", self.addressed.to_json()),
            ("init", self.init.to_json()),
        ])
    }
}

impl FromJson for VarInfo {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(VarInfo {
            name: String::from_json(v.field("name")?)?,
            ty: Type::from_json(v.field("ty")?)?,
            storage: Storage::from_json(v.field("storage")?)?,
            volatile: bool::from_json(v.field("volatile")?)?,
            addressed: bool::from_json(v.field("addressed")?)?,
            init: Option::from_json(v.field("init")?)?,
        })
    }
}

impl ToJson for Field {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("ty", self.ty.to_json()),
            ("offset", self.offset.to_json()),
        ])
    }
}

impl FromJson for Field {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Field {
            name: String::from_json(v.field("name")?)?,
            ty: Type::from_json(v.field("ty")?)?,
            offset: i64::from_json(v.field("offset")?)?,
        })
    }
}

impl ToJson for StructDef {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("fields", self.fields.to_json()),
            ("size", self.size.to_json()),
        ])
    }
}

impl FromJson for StructDef {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(StructDef {
            name: String::from_json(v.field("name")?)?,
            fields: Vec::from_json(v.field("fields")?)?,
            size: i64::from_json(v.field("size")?)?,
        })
    }
}

impl ToJson for Procedure {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("ret", self.ret.to_json()),
            ("params", self.params.to_json()),
            ("vars", self.vars.to_json()),
            ("num_labels", self.num_labels.to_json()),
            ("body", block_to_json(self, &self.body)),
            ("next_stmt", self.next_stmt().to_json()),
            ("next_temp", self.next_temp.to_json()),
        ])
    }
}

impl FromJson for Procedure {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut p = Procedure::new(
            String::from_json(v.field("name")?)?,
            Type::from_json(v.field("ret")?)?,
        );
        p.params = Vec::from_json(v.field("params")?)?;
        p.vars = Vec::from_json(v.field("vars")?)?;
        p.num_labels = u32::from_json(v.field("num_labels")?)?;
        let body = block_from_json(&mut p, v.field("body")?)?;
        p.body = body;
        // honor the serialized stamp watermark: gap slots stay Nop
        let next_stmt = u32::from_json(v.field("next_stmt")?)?;
        check_stmt_gap(&p.stmts, next_stmt as usize)?;
        p.stmts.grow_to(next_stmt as usize);
        p.next_temp = u32::from_json(v.field("next_temp")?)?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;

    #[test]
    fn expr_roundtrip() {
        let mut pool = ExprPool::new();
        let addr = pool.addr_of(VarId(9));
        let ld = pool.load(addr, ScalarType::Double);
        let k = pool.double(2.5);
        let e = pool.binary(BinOp::Mul, ScalarType::Double, k, ld);
        let text = expr_to_json(&pool, e).to_string_compact();
        let mut pool2 = ExprPool::new();
        let back = expr_from_json(&mut pool2, &crate::json::parse(&text).unwrap()).unwrap();
        assert!(pool.expr_eq(e, &pool2, back));
    }

    #[test]
    fn procedure_roundtrip_preserves_counters() {
        let mut b = ProcBuilder::new("f", Type::Int);
        let n = b.param("n", Type::Int);
        let s = b.local("s", Type::Int);
        let i = b.local("i", Type::Int);
        let zero = b.int(0);
        b.assign_var(s, zero);
        let body = {
            let mut lb = b.block();
            let sv = lb.var(s);
            let iv = lb.var(i);
            let add = lb.ibinary(BinOp::Add, sv, iv);
            lb.assign_var(s, add);
            lb.stmts()
        };
        let lo = b.int(1);
        let hi = b.var(n);
        let step = b.int(1);
        b.do_loop(i, lo, hi, step, body);
        let sv = b.var(s);
        b.ret(Some(sv));
        let mut p = b.finish();
        // exercise the private counters so the roundtrip must carry them
        p.fresh_temp(Type::Float);
        let text = p.to_json().to_string_compact();
        let back = Procedure::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(p, back);
        assert_eq!(p.next_stmt(), back.next_stmt());
        assert_eq!(p.next_temp, back.next_temp);
    }

    #[test]
    fn all_statement_kinds_roundtrip() {
        let mut p = Procedure::new("k", Type::Void);
        let one = p.exprs.int(1);
        let two = p.exprs.float(2.0);
        let c0 = p.exprs.int(1);
        let cv = p.exprs.var(VarId(0));
        let lo = p.exprs.int(0);
        let hi = p.exprs.int(9);
        let step = p.exprs.int(1);
        let r1 = p.exprs.int(1);
        let inner = p.stamp(StmtKind::Nop);
        for kind in [
            StmtKind::Nop,
            StmtKind::Label(LabelId(2)),
            StmtKind::Goto(LabelId(2)),
            StmtKind::Return(None),
            StmtKind::Return(Some(r1)),
            StmtKind::IfGoto {
                cond: c0,
                target: LabelId(0),
            },
            StmtKind::Call {
                dst: Some(LValue::Var(VarId(0))),
                callee: "f".into(),
                args: vec![one, two],
            },
            StmtKind::WhileSpread {
                cond: cv,
                parallel: vec![inner],
                serial: vec![],
            },
            StmtKind::DoParallel {
                var: VarId(1),
                lo,
                hi,
                step,
                body: vec![],
            },
        ] {
            let s = p.stamp(kind);
            p.body = vec![s];
            let text = stmt_to_json(&p, s).to_string_compact();
            let mut q = Procedure::new("k", Type::Void);
            let back = stmt_from_json(&mut q, &crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, s, "stamp preserved");
            assert!(p.block_eq(&[s], &q, &[back]), "kind mismatch for {text}");
        }
    }

    #[test]
    fn span_file_tag_roundtrips_and_legacy_spans_decode() {
        // tagged span: three-element form
        let mut p = Procedure::new("f", Type::Void);
        let s = p.stamp_at(StmtKind::Nop, SrcSpan::new(4, 9).in_file(2));
        let text = stmt_to_json(&p, s).to_string_compact();
        assert!(text.contains("[4,9,2]"), "{text}");
        let mut q = Procedure::new("f", Type::Void);
        let back = stmt_from_json(&mut q, &crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(q.stmts.span(back), SrcSpan::new(4, 9).in_file(2));
        // current-TU span: unchanged two-element form
        let s = p.stamp_at(StmtKind::Nop, SrcSpan::new(4, 9));
        let text = stmt_to_json(&p, s).to_string_compact();
        assert!(text.contains("[4,9]"), "{text}");
        // legacy span-free statements still decode
        let doc = crate::json::parse("{\"id\":3,\"kind\":\"Nop\"}").unwrap();
        let mut q = Procedure::new("f", Type::Void);
        let back = stmt_from_json(&mut q, &doc).unwrap();
        assert_eq!(back, StmtId(3));
        assert_eq!(q.stmts.span(back), SrcSpan::NONE);
        assert_eq!(q.stmts.len(), 4, "gap slots grown to cover the stamp");
    }

    #[test]
    fn decode_rejects_unknown_variant() {
        let doc = crate::json::parse("{\"Bogus\":1}").unwrap();
        let mut pool = ExprPool::new();
        assert!(expr_from_json(&mut pool, &doc).is_err());
        assert!(Type::from_json(&doc).is_err());
    }
}

//! C-type ↔ IL-type conversion, struct layout, usual arithmetic
//! conversions, and the translation-unit environment.

use crate::LowerError;
use std::collections::HashMap;
use titanc_cfront::ast::{self, CType, QualType};
use titanc_cfront::Span;
use titanc_il::{ConstInit, ScalarType, StructDef, StructId, Type};

/// A callable signature known to the translation unit.
#[derive(Clone, PartialEq, Debug)]
pub struct Signature {
    /// Return type.
    pub ret: QualType,
    /// Parameter types (arrays already adjusted to pointers).
    pub params: Vec<QualType>,
}

/// Translation-unit environment: struct tags, globals, signatures.
#[derive(Default, Debug)]
pub struct Env {
    /// Struct tag → id.
    pub structs: HashMap<String, StructId>,
    /// Layouts, indexed by [`StructId`].
    pub struct_defs: Vec<StructDef>,
    /// Global name → declared type.
    pub globals: HashMap<String, QualType>,
    /// Function name → signature.
    pub signatures: HashMap<String, Signature>,
}

impl Env {
    /// Records a function signature.
    pub fn add_signature(&mut self, name: &str, ret: &QualType, params: &[ast::Param]) {
        self.signatures.insert(
            name.to_string(),
            Signature {
                ret: ret.clone(),
                params: params.iter().map(|p| p.ty.clone()).collect(),
            },
        );
    }

    /// Looks up a struct layout by id.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.struct_defs[id.index()]
    }
}

/// Converts an AST type to an IL type plus the top-level volatile flag.
pub fn cvt_qualtype(env: &Env, q: &QualType, span: Span) -> Result<(Type, bool), LowerError> {
    Ok((cvt_ctype(env, &q.ty, span)?, q.volatile))
}

fn cvt_ctype(env: &Env, t: &CType, span: Span) -> Result<Type, LowerError> {
    Ok(match t {
        CType::Void => Type::Void,
        CType::Char => Type::Char,
        CType::Int => Type::Int,
        CType::Float => Type::Float,
        CType::Double => Type::Double,
        CType::Ptr(inner) => Type::ptr_to(cvt_ctype(env, &inner.ty, span)?),
        CType::Array(inner, n) => {
            let len =
                n.ok_or_else(|| LowerError::new("array declaration requires a length here", span))?;
            Type::array_of(cvt_ctype(env, &inner.ty, span)?, len)
        }
        CType::Struct(name) => {
            let id = env
                .structs
                .get(name)
                .ok_or_else(|| LowerError::new(format!("unknown struct `{name}`"), span))?;
            Type::Struct(*id)
        }
    })
}

/// Size of an IL type in bytes given the environment's struct layouts:
/// the one check that an object, a `sizeof`, a struct field or a pointer
/// step has a sized type. `void`, and an array of it, have none — a source
/// error at `span`.
pub fn type_size(env: &Env, ty: &Type, span: Span) -> Result<i64, LowerError> {
    let mut elem = ty;
    while let Type::Array(inner, _) = elem {
        elem = inner;
    }
    if *elem == Type::Void {
        return Err(LowerError::new(format!("`{ty}` has no size"), span));
    }
    Ok(ty.size_with(&|sid| env.struct_def(sid).size))
}

/// Alignment of an IL type (the Titan aligns to the largest scalar member;
/// doubles to 8, everything else to its own size).
pub fn type_align(env: &Env, ty: &Type) -> i64 {
    match ty {
        Type::Void => 1,
        Type::Char => 1,
        Type::Int | Type::Float | Type::Ptr(_) => 4,
        Type::Double => 8,
        Type::Array(t, _) => type_align(env, t),
        Type::Struct(sid) => env
            .struct_def(*sid)
            .fields
            .iter()
            .map(|f| type_align(env, &f.ty))
            .max()
            .unwrap_or(1),
    }
}

/// Computes the layout of a struct declaration.
pub fn layout_struct(env: &mut Env, sd: &ast::StructDecl) -> Result<StructDef, LowerError> {
    let mut offset: i64 = 0;
    let mut max_align: i64 = 1;
    let mut fields = Vec::new();
    for (name, q) in &sd.fields {
        let (ty, _vol) = cvt_qualtype(env, q, sd.span)?;
        let align = type_align(env, &ty);
        let size = type_size(env, &ty, sd.span)?;
        offset = (offset + align - 1) / align * align;
        fields.push(titanc_il::Field {
            name: name.clone(),
            ty,
            offset,
        });
        offset += size;
        max_align = max_align.max(align);
    }
    let size = (offset + max_align - 1) / max_align * max_align;
    Ok(StructDef {
        name: sd.name.clone(),
        fields,
        size,
    })
}

/// Evaluates a constant global initializer.
pub fn const_init(e: &ast::Expr) -> Result<ConstInit, LowerError> {
    match &e.kind {
        ast::ExprKind::IntLit(v) | ast::ExprKind::CharLit(v) => Ok(ConstInit::Int(*v)),
        ast::ExprKind::FloatLit(v, _) => Ok(ConstInit::Float(*v)),
        ast::ExprKind::Unary(ast::CUnOp::Neg, inner) => match const_init(inner)? {
            ConstInit::Int(v) => Ok(ConstInit::Int(-v)),
            ConstInit::Float(v) => Ok(ConstInit::Float(-v)),
        },
        _ => Err(LowerError::new(
            "global initializers must be constants",
            e.span,
        )),
    }
}

/// The usual arithmetic conversions: the common kind for a binary
/// operation over two scalar kinds.
pub fn common_kind(a: ScalarType, b: ScalarType) -> ScalarType {
    use ScalarType::*;
    if a == Double || b == Double {
        Double
    } else if a == Float || b == Float {
        Float
    } else if a == Ptr || b == Ptr {
        Ptr
    } else {
        Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_kind_promotions() {
        use ScalarType::*;
        assert_eq!(common_kind(Int, Double), Double);
        assert_eq!(common_kind(Float, Int), Float);
        assert_eq!(common_kind(Char, Char), Int);
        assert_eq!(common_kind(Ptr, Int), Ptr);
        assert_eq!(common_kind(Float, Double), Double);
    }

    #[test]
    fn struct_layout_aligns_doubles() {
        let mut env = Env::default();
        let sd = ast::StructDecl {
            name: "s".into(),
            fields: vec![
                ("c".into(), QualType::plain(CType::Char)),
                ("d".into(), QualType::plain(CType::Double)),
                ("i".into(), QualType::plain(CType::Int)),
            ],
            span: Span::default(),
        };
        let def = layout_struct(&mut env, &sd).unwrap();
        assert_eq!(def.fields[0].offset, 0);
        assert_eq!(def.fields[1].offset, 8);
        assert_eq!(def.fields[2].offset, 16);
        assert_eq!(def.size, 24); // rounded to 8
    }

    #[test]
    fn struct_layout_embedded_array() {
        let mut env = Env::default();
        let sd = ast::StructDecl {
            name: "matrix".into(),
            fields: vec![
                (
                    "m".into(),
                    QualType::plain(CType::Array(
                        Box::new(QualType::plain(CType::Array(
                            Box::new(QualType::plain(CType::Float)),
                            Some(4),
                        ))),
                        Some(4),
                    )),
                ),
                ("tag".into(), QualType::plain(CType::Int)),
            ],
            span: Span::default(),
        };
        let def = layout_struct(&mut env, &sd).unwrap();
        assert_eq!(def.fields[1].offset, 64);
        assert_eq!(def.size, 68);
    }

    #[test]
    fn const_init_eval() {
        let e = titanc_cfront::parse_expr("-3").unwrap();
        assert_eq!(const_init(&e).unwrap(), ConstInit::Int(-3));
        let f = titanc_cfront::parse_expr("2.5").unwrap();
        assert_eq!(const_init(&f).unwrap(), ConstInit::Float(2.5));
        let bad = titanc_cfront::parse_expr("x + 1").unwrap();
        assert!(const_init(&bad).is_err());
    }
}

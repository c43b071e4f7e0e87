//! The IL type system.
//!
//! The Titan is a 32-bit machine: `int` and pointers are 4 bytes, `float`
//! is 4 bytes, `double` is 8. The paper's examples rely on this — the front
//! end turns `*a++` on a `float *` into an explicit `a = a + 4`.

use crate::ids::StructId;
use std::fmt;

/// A machine scalar kind, the unit of loads, stores and arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScalarType {
    /// 1-byte signed character.
    Char,
    /// 4-byte signed integer.
    Int,
    /// 4-byte IEEE single float.
    Float,
    /// 8-byte IEEE double float.
    Double,
    /// 4-byte data pointer.
    Ptr,
}

impl ScalarType {
    /// Size in bytes on the Titan.
    pub fn size(self) -> i64 {
        match self {
            ScalarType::Char => 1,
            ScalarType::Int | ScalarType::Float | ScalarType::Ptr => 4,
            ScalarType::Double => 8,
        }
    }

    /// True for `Float`/`Double` — operations on these count as FLOPs in the
    /// Titan simulator.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::Float | ScalarType::Double)
    }

    /// True for integer-register kinds (`Char`, `Int`, `Ptr`).
    pub fn is_integral(self) -> bool {
        !self.is_float()
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::Char => "char",
            ScalarType::Int => "int",
            ScalarType::Float => "float",
            ScalarType::Double => "double",
            ScalarType::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

/// The type of a compiler temporary of a scalar kind (a pointer is a
/// `void *`).
impl From<ScalarType> for Type {
    fn from(ty: ScalarType) -> Type {
        match ty {
            ScalarType::Char => Type::Char,
            ScalarType::Int => Type::Int,
            ScalarType::Float => Type::Float,
            ScalarType::Double => Type::Double,
            ScalarType::Ptr => Type::ptr_to(Type::Void),
        }
    }
}

/// A C-level type: scalars, pointers, arrays, structs, or `void`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// The absence of a value (function returns only).
    Void,
    /// 1-byte signed character.
    Char,
    /// 4-byte signed integer.
    Int,
    /// 4-byte IEEE single float.
    Float,
    /// 8-byte IEEE double float.
    Double,
    /// Pointer to `T`.
    Ptr(Box<Type>),
    /// `T[n]` with a compile-time length.
    Array(Box<Type>, usize),
    /// A named structure; the definition lives in
    /// [`crate::Program::structs`].
    Struct(StructId),
}

impl Type {
    /// Convenience constructor for `Ptr`.
    pub fn ptr_to(inner: Type) -> Type {
        Type::Ptr(Box::new(inner))
    }

    /// Convenience constructor for `Array`.
    pub fn array_of(elem: Type, len: usize) -> Type {
        Type::Array(Box::new(elem), len)
    }

    /// The scalar kind this type occupies in a register, if it is scalar.
    pub fn scalar(&self) -> Option<ScalarType> {
        match self {
            Type::Char => Some(ScalarType::Char),
            Type::Int => Some(ScalarType::Int),
            Type::Float => Some(ScalarType::Float),
            Type::Double => Some(ScalarType::Double),
            Type::Ptr(_) => Some(ScalarType::Ptr),
            Type::Void | Type::Array(..) | Type::Struct(_) => None,
        }
    }

    /// Size in bytes; arrays and structs need the program's struct table, so
    /// struct sizes are resolved via `struct_size`.
    ///
    /// # Panics
    ///
    /// Panics on `Void`.
    pub fn size_with(&self, struct_size: &dyn Fn(StructId) -> i64) -> i64 {
        match self {
            Type::Void => panic!("void has no size"),
            Type::Char => 1,
            Type::Int | Type::Float | Type::Ptr(_) => 4,
            Type::Double => 8,
            Type::Array(elem, n) => elem.size_with(struct_size) * *n as i64,
            Type::Struct(sid) => struct_size(*sid),
        }
    }

    /// The element type after one level of pointer or array indirection.
    pub fn deref(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) | Type::Array(t, _) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::Char => f.write_str("char"),
            Type::Int => f.write_str("int"),
            Type::Float => f.write_str("float"),
            Type::Double => f.write_str("double"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(sid) => write!(f, "struct#{}", sid.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_titan() {
        assert_eq!(ScalarType::Char.size(), 1);
        assert_eq!(ScalarType::Int.size(), 4);
        assert_eq!(ScalarType::Float.size(), 4);
        assert_eq!(ScalarType::Double.size(), 8);
        assert_eq!(ScalarType::Ptr.size(), 4);
    }

    #[test]
    fn float_classification() {
        assert!(ScalarType::Float.is_float());
        assert!(ScalarType::Double.is_float());
        assert!(ScalarType::Int.is_integral());
        assert!(ScalarType::Ptr.is_integral());
    }

    #[test]
    fn type_scalar_mapping() {
        assert_eq!(Type::Int.scalar(), Some(ScalarType::Int));
        assert_eq!(Type::ptr_to(Type::Float).scalar(), Some(ScalarType::Ptr));
        assert_eq!(Type::array_of(Type::Float, 8).scalar(), None);
        assert_eq!(Type::Void.scalar(), None);
    }

    #[test]
    fn array_size() {
        let t = Type::array_of(Type::Float, 100);
        assert_eq!(t.size_with(&|_| unreachable!()), 400);
        let t2 = Type::array_of(Type::array_of(Type::Double, 4), 4);
        assert_eq!(t2.size_with(&|_| unreachable!()), 128);
    }

    #[test]
    fn deref_walks_one_level() {
        let t = Type::ptr_to(Type::array_of(Type::Int, 3));
        assert_eq!(t.deref(), Some(&Type::array_of(Type::Int, 3)));
        assert_eq!(t.deref().unwrap().deref(), Some(&Type::Int));
        assert_eq!(Type::Int.deref(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::ptr_to(Type::Float).to_string(), "float*");
        assert_eq!(Type::array_of(Type::Int, 5).to_string(), "int[5]");
    }
}

//! Index-based identifiers.
//!
//! The paper (§7) eliminates all hard pointers from the IL so procedures can
//! be saved in catalogs and paged. We reproduce that property with small
//! `u32` index newtypes: a [`VarId`] indexes a [`crate::Procedure`]'s
//! variable table (or the program's global table), a [`LabelId`] its label
//! table, a [`StmtId`] is a per-procedure unique statement stamp used by the
//! analyses, and a [`ProcId`] indexes the [`crate::Program`] procedure list.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a raw index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflow"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a variable within a procedure (locals, params, temps) or,
    /// for ids flagged global, within the program's global table.
    /// See [`crate::Procedure::var`].
    VarId,
    "v"
);
id_type!(
    /// Identifies a procedure within a [`crate::Program`].
    ProcId,
    "p"
);
id_type!(
    /// Identifies a label within a procedure.
    LabelId,
    "L"
);
id_type!(
    /// A per-procedure unique statement stamp. A `StmtId` is simultaneously
    /// the statement's *arena slot* in [`crate::StmtPool`]: stamps survive
    /// tree rewrites so analyses (use-def chains, dependence edges) can
    /// refer to statements stably, and resolve in O(1).
    StmtId,
    "s"
);
id_type!(
    /// Identifies an expression node within a procedure's flat
    /// [`crate::ExprPool`] arena. Operands of [`crate::Expr`] nodes are
    /// `ExprId`s instead of boxed subtrees, so expression storage is
    /// contiguous and procedure clones are `memcpy`-cheap.
    ExprId,
    "e"
);
id_type!(
    /// Identifies a struct definition within a [`crate::Program`].
    StructId,
    "S"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let v = VarId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(format!("{v}"), "v42");
        assert_eq!(format!("{v:?}"), "v42");
    }

    #[test]
    fn id_ordering_follows_index() {
        assert!(StmtId(1) < StmtId(2));
        assert!(LabelId(0) < LabelId(10));
    }

    #[test]
    #[should_panic(expected = "id index overflow")]
    fn id_overflow_panics() {
        let _ = VarId::from_index(usize::MAX);
    }
}

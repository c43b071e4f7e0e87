//! Estimates of what IL keeps allocated, for the compile server's memos
//! (`titand` holds typed procedures resident under a byte budget and has
//! to weigh them on the way in). Cheap by design: arena lengths times node
//! sizes, not a walk of every allocation. What is left out — call
//! argument lists, boxed pointer types — is tens of bytes a site.

use crate::program::{Field, Procedure, Program, StructDef, VarInfo};
use crate::stmt::StmtKind;
use crate::{Expr, SrcSpan, StmtId};

/// What a short identifier costs on the heap, charged per table entry in
/// place of walking every name.
const NAME_BYTES: usize = 16;

fn var_table_bytes(vars: &[VarInfo]) -> usize {
    vars.len() * (size_of::<VarInfo>() + NAME_BYTES)
}

impl Procedure {
    /// An estimate of the bytes this procedure keeps allocated: the two
    /// arenas (orphaned slots included — they are resident too), the
    /// statement lists of every block and the variable table.
    pub fn resident_bytes(&self) -> usize {
        let nested = |k: &StmtKind| k.blocks().iter().map(|b| b.len()).sum::<usize>();
        let listed = self.stmts.kinds().iter().map(nested).sum::<usize>() + self.body.len();
        size_of::<Procedure>()
            + self.exprs.len() * size_of::<Expr>()
            + self.stmts.len() * (size_of::<StmtKind>() + size_of::<SrcSpan>())
            + listed * size_of::<StmtId>()
            + var_table_bytes(&self.vars)
    }
}

impl Program {
    /// [`Procedure::resident_bytes`] over the whole program, plus its
    /// global, struct and file tables.
    pub fn resident_bytes(&self) -> usize {
        let procs: usize = self.procs.iter().map(Procedure::resident_bytes).sum();
        let fields: usize = self.structs.iter().map(|s| s.fields.len()).sum();
        let files: usize = self
            .files
            .iter()
            .map(|f| size_of::<String>() + f.len())
            .sum();
        procs
            + var_table_bytes(&self.globals)
            + self.structs.len() * size_of::<StructDef>()
            + fields * (size_of::<Field>() + NAME_BYTES)
            + files
    }
}

#[cfg(test)]
mod tests {
    use crate::{ProcBuilder, Program, Type};

    #[test]
    fn the_estimate_grows_with_the_arenas_and_covers_the_wire_form() {
        let build = |stmts: usize| {
            let mut b = ProcBuilder::new("p", Type::Int);
            let x = b.local("x", Type::Int);
            for k in 0..stmts {
                let v = b.int(k as i64);
                b.assign_var(x, v);
            }
            b.finish()
        };
        let (small, large) = (build(4), build(400));
        assert!(small.resident_bytes() >= size_of_val(&small));
        assert!(large.resident_bytes() > small.resident_bytes() + 396 * 16);
        // typed IL is never lighter than its canonical bytes
        assert!(large.resident_bytes() > crate::encode_proc(&large).len());
        let mut program = Program::new();
        program.add_proc(small);
        program.add_proc(large);
        let procs: usize = program.procs.iter().map(|p| p.resident_bytes()).sum();
        assert_eq!(program.resident_bytes(), procs);
    }
}

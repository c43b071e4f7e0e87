//! Procedure catalogs — the §7 inlining databases.
//!
//! Because the IL contains no hard pointers, parsed procedures can be
//! serialized into a *catalog* ("math libraries can be 'compiled' into
//! databases and used as a base for inlining, much as include directories
//! are used as a source for header files"). A catalog carries the
//! procedures plus the struct layouts and globals they reference, so a
//! compilation can link any subset in by name.
//!
//! A catalog file is the cache's wire bytes: the
//! [`Wire`](crate::wire::Wire) encoding of a [`Catalog`], sealed under
//! [`CATALOG_FORMAT`] ([`crate::wire::seal`]). `titanc -O0 --print-il
//! --catalog lib.cat empty.c` prints one readably.

use crate::link::{link, LinkReport};
use crate::program::{Procedure, Program, StructDef, VarInfo};
use crate::verify::verify_proc;
use crate::wire;
use std::io;
use std::path::Path;

/// The envelope format name of a catalog file. v2 moved the envelope's
/// checksum to the block hash of [`crate::hash`].
pub const CATALOG_FORMAT: &str = "titanc-catalog-v2";

/// A serializable library of parsed procedures (§7).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Catalog {
    /// Catalog name (e.g. `"blas"`).
    pub name: String,
    /// The stored procedures.
    pub procs: Vec<Procedure>,
    /// Struct layouts the procedures reference.
    pub structs: Vec<StructDef>,
    /// Globals the procedures reference — including statics that were
    /// externalized when the procedure was cataloged (§7).
    pub globals: Vec<VarInfo>,
    /// Origin file table for span file tags carried by the stored
    /// procedures (mirrors [`Program::files`]).
    pub files: Vec<String>,
}

crate::struct_wire!(Catalog, [name, procs, structs, globals, files]);

impl Catalog {
    /// An empty catalog with the given name.
    pub fn new(name: impl Into<String>) -> Catalog {
        Catalog {
            name: name.into(),
            ..Catalog::default()
        }
    }

    /// Builds a catalog from an entire compiled program.
    pub fn from_program(name: impl Into<String>, prog: &Program) -> Catalog {
        Catalog {
            name: name.into(),
            procs: prog.procs.clone(),
            structs: prog.structs.clone(),
            globals: prog.globals.clone(),
            files: prog.files.clone(),
        }
    }

    /// Adds a procedure.
    pub fn add(&mut self, proc: Procedure) {
        self.procs.push(proc);
    }

    /// Looks up a procedure by name.
    pub fn proc_by_name(&self, name: &str) -> Option<&Procedure> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// The catalog file's bytes: its wire encoding, sealed.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::seal(CATALOG_FORMAT, &wire::to_bytes(self))
    }

    /// Reads what [`Catalog::to_bytes`] wrote. A catalog comes from
    /// outside the program, so every procedure must pass [`verify_proc`]
    /// before any pass or the simulator trusts its IL.
    ///
    /// # Errors
    ///
    /// An `InvalidData` error when `bytes` are not a sealed
    /// [`CATALOG_FORMAT`] envelope (a JSON catalog included), when the
    /// payload does not decode, or when a procedure is not valid IL.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Catalog> {
        let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
        let payload = wire::unseal(CATALOG_FORMAT, bytes).ok_or_else(|| {
            invalid(format!(
                "not a {CATALOG_FORMAT} file; re-emit it with --emit-catalog"
            ))
        })?;
        let catalog: Catalog =
            wire::from_bytes(payload).map_err(|e| invalid(format!("malformed catalog: {e}")))?;
        for proc in &catalog.procs {
            if let Err(errors) = verify_proc(proc) {
                let rendered: Vec<String> = errors.iter().map(ToString::to_string).collect();
                return Err(invalid(format!("invalid IL: {}", rendered.join("; "))));
            }
        }
        Ok(catalog)
    }

    /// Saves the catalog to a file. Nothing is verified on the way out.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Loads a catalog from a file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error, or what [`Catalog::from_bytes`] refuses.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Catalog> {
        Catalog::from_bytes(&std::fs::read(path)?)
    }

    /// Links every procedure, struct and global of the catalog into `prog`
    /// through the shared linker ([`crate::link::link`]): struct ids are
    /// remapped into `prog`'s table, procedures already present by name
    /// are left untouched (earlier definitions win), and the returned
    /// [`LinkReport`] names what was added, shadowed and conflicting so
    /// the driver can diagnose overlapping `--catalog` flags.
    ///
    /// Spans from the catalog's "current TU" are attributed to the
    /// catalog itself and its own origin files carry over.
    pub fn link_into(&self, prog: &mut Program) -> LinkReport {
        let unit = Program {
            procs: self.procs.clone(),
            globals: self.globals.clone(),
            structs: self.structs.clone(),
            files: self.files.clone(),
        };
        link(prog, unit, Some(&self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::types::Type;

    fn sample_proc(name: &str) -> Procedure {
        let mut b = ProcBuilder::new(name, Type::Int);
        let n = b.param("n", Type::Int);
        let nv = b.var(n);
        b.ret(Some(nv));
        b.finish()
    }

    #[test]
    fn bytes_roundtrip_preserves_procedures() {
        let mut c = Catalog::new("blas");
        c.add(sample_proc("daxpy"));
        c.add(sample_proc("ddot"));
        c.files.push("blas.c".into());
        let bytes = c.to_bytes();
        assert!(bytes.starts_with(b"titanc-catalog-v2 "));
        let back = Catalog::from_bytes(&bytes).unwrap();
        assert_eq!(c, back);
        assert_eq!(back.to_bytes(), bytes);
        assert!(back.proc_by_name("ddot").is_some());
    }

    #[test]
    fn file_roundtrip() {
        let mut c = Catalog::new("lib");
        c.add(sample_proc("f"));
        let dir = std::env::temp_dir().join("titanc-catalog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lib.cat");
        c.save(&path).unwrap();
        let back = Catalog::load(&path).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn link_into_does_not_clobber_existing() {
        let mut prog = Program::new();
        let mut local = sample_proc("daxpy");
        local.ret = Type::Void; // distinguishable from the catalog's copy
        prog.add_proc(local);

        let mut c = Catalog::new("blas");
        c.add(sample_proc("daxpy"));
        c.add(sample_proc("ddot"));
        let report = c.link_into(&mut prog);

        assert_eq!(prog.procs.len(), 2);
        assert_eq!(prog.proc_by_name("daxpy").unwrap().ret, Type::Void);
        assert!(prog.proc_by_name("ddot").is_some());
        // the shadowing is reported, not silent
        assert_eq!(report.shadowed, vec!["daxpy".to_string()]);
        assert_eq!(report.added, vec!["ddot".to_string()]);
    }

    #[test]
    fn link_retags_spans_to_the_catalog_origin() {
        use crate::span::SrcSpan;
        use crate::stmt::StmtKind;

        let mut c = Catalog::new("blas");
        let mut p = sample_proc("daxpy");
        let s = p.stamp_at(StmtKind::Nop, SrcSpan::new(12, 3));
        p.body.insert(0, s);
        c.add(p);

        let mut prog = Program::new();
        prog.intern_file("other.c"); // occupy tag 1
        c.link_into(&mut prog);

        let linked = prog.proc_by_name("daxpy").unwrap();
        let tag = linked.stmts.span(linked.body[0]).file;
        assert_ne!(tag, 0, "catalog spans must not claim the current TU");
        assert_eq!(prog.file_name(tag), Some("blas"));
    }

    #[test]
    fn link_merges_globals_and_structs_once() {
        let mut c = Catalog::new("g");
        c.globals.push(VarInfo {
            name: "shared".into(),
            ty: Type::Int,
            storage: crate::program::Storage::Global,
            volatile: false,
            addressed: true,
            init: None,
        });
        c.structs.push(StructDef {
            name: "pt".into(),
            fields: vec![],
            size: 0,
        });
        let mut prog = Program::new();
        c.link_into(&mut prog);
        c.link_into(&mut prog);
        assert_eq!(prog.globals.len(), 1);
        assert_eq!(prog.structs.len(), 1);
    }
}

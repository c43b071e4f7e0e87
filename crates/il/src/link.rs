//! The one linker: merging a lowered unit — a session translation unit
//! or a §7 catalog — into a program.
//!
//! Every unit numbers its struct layouts from zero, so linking is more
//! than appending: layouts dedup by tag and every `Type::Struct` id the
//! unit carries (struct fields, globals, procedure signatures and symbol
//! tables) is rewritten into the program's numbering. The IL crate has no
//! diagnostic sink; [`link`] reports what it added, shadowed and found
//! conflicting, and the driver phrases the warnings.

use crate::ids::StructId;
use crate::program::Program;
use crate::types::Type;

/// What [`link`] did.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LinkReport {
    /// Procedure names newly added from the unit.
    pub added: Vec<String>,
    /// Unit procedures dropped because the program already defines the
    /// name — earlier definitions win (session files in order, then
    /// catalogs in CLI order), so the driver must warn rather than
    /// silently shadow.
    pub shadowed: Vec<String>,
    /// Struct tags whose layout differs from the earlier one that was kept.
    pub struct_conflicts: Vec<String>,
    /// Globals whose type or initializer differs from the earlier one
    /// that was kept.
    pub global_conflicts: Vec<String>,
}

/// Rewrites struct ids appearing in `ty` through `smap` (unit-local
/// index → program index).
fn remap_type(ty: &mut Type, smap: &[usize]) {
    match ty {
        Type::Ptr(inner) | Type::Array(inner, _) => remap_type(inner, smap),
        Type::Struct(sid) => {
            if let Some(&j) = smap.get(sid.index()) {
                *sid = StructId::from_index(j);
            }
        }
        Type::Void | Type::Char | Type::Int | Type::Float | Type::Double => {}
    }
}

/// Links `unit` into `prog`: struct layouts dedup by tag (ids remapped
/// everywhere the unit mentions them), globals merge by name, and
/// procedures already present by name are dropped — earlier definitions
/// win.
///
/// With `origin` set, the spans of every added procedure are retagged
/// into `prog`'s file table: the unit's own spans (tag 0) are attributed
/// to `origin` and the unit's file table entries carry over under fresh
/// tags, so `--opt-report` never charges a linked loop to another file's
/// line numbers. The tags are interned once a procedure is actually
/// added. `None` leaves spans alone (a single-file session *is* tag 0).
pub fn link(prog: &mut Program, unit: Program, origin: Option<&str>) -> LinkReport {
    let mut report = LinkReport::default();

    let first_new = prog.structs.len();
    let mut smap: Vec<usize> = Vec::with_capacity(unit.structs.len());
    for sd in unit.structs {
        match prog.structs.iter().position(|s| s.name == sd.name) {
            Some(j) => {
                let kept = &prog.structs[j];
                if kept.size != sd.size || kept.fields.len() != sd.fields.len() {
                    report.struct_conflicts.push(sd.name);
                }
                smap.push(j);
            }
            None => {
                smap.push(prog.structs.len());
                prog.structs.push(sd);
            }
        }
    }
    // appended layouts may reference other structs of the unit; remap
    // their field types now that the whole map is known
    for sd in &mut prog.structs[first_new..] {
        for f in &mut sd.fields {
            remap_type(&mut f.ty, &smap);
        }
    }

    for mut g in unit.globals {
        remap_type(&mut g.ty, &smap);
        match prog.global_by_name(&g.name) {
            Some(kept) if kept.ty != g.ty || kept.init != g.init => {
                report.global_conflicts.push(g.name);
            }
            Some(_) => {}
            None => prog.globals.push(g),
        }
    }

    let mut tag_map: Option<Vec<u32>> = None;
    for mut p in unit.procs {
        if prog.proc_by_name(&p.name).is_some() {
            report.shadowed.push(p.name);
            continue;
        }
        remap_type(&mut p.ret, &smap);
        for v in &mut p.vars {
            remap_type(&mut v.ty, &smap);
        }
        if let Some(origin) = origin {
            let map = tag_map.get_or_insert_with(|| {
                let mut m = vec![prog.intern_file(origin)];
                m.extend(unit.files.iter().map(|f| prog.intern_file(f)));
                m
            });
            p.retag_spans(map);
        }
        report.added.push(p.name.clone());
        prog.add_proc(p);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Field, Procedure, StructDef};

    fn layout(name: &str, fields: &[(&str, Type)]) -> StructDef {
        let fields: Vec<Field> = fields
            .iter()
            .enumerate()
            .map(|(i, (n, ty))| Field {
                name: (*n).into(),
                ty: ty.clone(),
                offset: 4 * i as i64,
            })
            .collect();
        StructDef {
            name: name.into(),
            size: 4 * fields.len() as i64,
            fields,
        }
    }

    fn sid(i: usize) -> Type {
        Type::Struct(StructId::from_index(i))
    }

    /// A procedure returning `ret` with one local `p` of type `local`.
    fn proc_with(name: &str, ret: Type, local: Type) -> Procedure {
        let mut p = Procedure::new(name, ret);
        p.fresh_temp(local);
        p
    }

    #[test]
    fn struct_ids_are_remapped_across_differing_tables() {
        // the program knows `small` (id 0); the unit knows `pt` (its id
        // 0), `small` (its id 1) and `node` (its id 2, pointing at `pt`
        // and at itself)
        let mut prog = Program::new();
        prog.structs.push(layout("small", &[("k", Type::Int)]));
        prog.add_proc(proc_with("main", Type::Int, sid(0)));

        let mut unit = Program::new();
        let four = ["x", "y", "z", "w"].map(|n| (n, Type::Float));
        unit.structs.push(layout("pt", &four));
        unit.structs.push(layout("small", &[("k", Type::Int)]));
        unit.structs.push(layout(
            "node",
            &[
                ("at", sid(0)),
                ("next", Type::Ptr(Box::new(sid(2)))),
                ("tag", sid(1)),
            ],
        ));
        unit.add_proc(proc_with("norm1", sid(0), Type::Array(Box::new(sid(2)), 3)));
        let mut g = proc_with("unused", Type::Void, Type::Int).vars[0].clone();
        g.name = "origin".into();
        g.ty = sid(1);
        unit.globals.push(g);

        let report = link(&mut prog, unit, None);
        assert_eq!(report.added, ["norm1"]);
        assert!(report.shadowed.is_empty() && report.struct_conflicts.is_empty());

        let tags: Vec<&str> = prog.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(tags, ["small", "pt", "node"]);
        let norm1 = prog.proc_by_name("norm1").unwrap();
        assert_eq!(norm1.ret, sid(1), "pt moved from unit id 0 to program id 1");
        assert_eq!(norm1.vars[0].ty, Type::Array(Box::new(sid(2)), 3));
        assert_eq!(prog.type_size(&norm1.ret), 16, "pt keeps its own size");
        let node = &prog.structs[2];
        assert_eq!(node.fields[0].ty, sid(1));
        assert_eq!(node.fields[1].ty, Type::Ptr(Box::new(sid(2))));
        assert_eq!(node.fields[2].ty, sid(0), "small dedups onto the program's");
        assert_eq!(prog.global_by_name("origin").unwrap().ty, sid(0));
        // the program's own procedure is untouched
        assert_eq!(prog.proc_by_name("main").unwrap().vars[0].ty, sid(0));
    }

    #[test]
    fn conflicts_and_shadowing_are_reported_and_the_first_definition_wins() {
        let mut prog = Program::new();
        prog.structs.push(layout("pt", &[("x", Type::Float)]));
        prog.add_proc(proc_with("f", Type::Int, Type::Int));
        let mut shared = proc_with("unused", Type::Void, Type::Int).vars[0].clone();
        shared.name = "shared".into();
        prog.globals.push(shared.clone());

        let mut unit = Program::new();
        unit.structs
            .push(layout("pt", &[("x", Type::Float), ("y", Type::Float)]));
        unit.add_proc(proc_with("f", Type::Void, Type::Int));
        unit.add_proc(proc_with("g", Type::Void, Type::Int));
        shared.ty = Type::Float;
        unit.globals.push(shared);

        let report = link(&mut prog, unit, None);
        assert_eq!(report.added, ["g"]);
        assert_eq!(report.shadowed, ["f"]);
        assert_eq!(report.struct_conflicts, ["pt"]);
        assert_eq!(report.global_conflicts, ["shared"]);
        assert_eq!(prog.structs.len(), 1);
        assert_eq!(prog.structs[0].size, 4);
        assert_eq!(prog.proc_by_name("f").unwrap().ret, Type::Int);
        assert_eq!(prog.global_by_name("shared").unwrap().ty, Type::Int);
    }
}

//! Every workload and metric name, in one place. `BENCHMARK.json` lists
//! the same names (a test holds the two together); the README glosses each.

/// `(name, unit, better)`.
pub type Decl = (&'static str, &'static str, &'static str);

pub const WORKLOADS: [&str; 6] = ["cold", "warm", "edit", "serve", "sim_vector", "sim_scalar"];

/// Printed by `--trace 0`, measured by driving the release binaries.
pub const END_TO_END: [Decl; 6] = [
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("il_lines", "lines", "lower"),
];

/// The end-to-end metrics that are deterministic: two runs of one build
/// must agree on them to the last digit.
pub const EXACT: [&str; 2] = ["sim_cycles", "il_lines"];

/// How long one run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;

/// `BENCHMARK.json` as it was when this package was built.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The regression bounds `BENCHMARK.json` fixes, in [`END_TO_END`] order.
pub fn bounds() -> Result<Vec<f64>, titanc_il::json::JsonError> {
    titanc_il::json::parse(BENCHMARK_JSON)?
        .field("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| m.field("bound")?.as_f64())
        .collect()
}

/// The seven suite programs, in suite order (`V` then `S`).
pub const PROGRAMS: [&str; 7] = [
    "daxpy",
    "copy",
    "daxpy_par",
    "backsolve",
    "xform",
    "listwalk",
    "branchy",
];

/// Printed by `--trace 1`. A metric a workload does not exercise reads 0
/// there. The per-program `titan.*` names are appended by [`per_layer`].
const PER_LAYER_FIXED: [Decl; 83] = [
    ("titanc.startup_ms", "ms", "lower"),
    ("titanc.shell_ms", "ms", "lower"),
    ("titanc.read_ms", "ms", "lower"),
    ("titanc.stdout_bytes", "bytes", "lower"),
    ("titanc.op_p90_ms", "ms", "lower"),
    ("titanc.op_p99_ms", "ms", "lower"),
    ("titanc.samples", "count", "higher"),
    ("cfront.parse_ms", "ms", "lower"),
    ("cfront.src_bytes", "bytes", "lower"),
    ("cfront.mb_per_s", "MB/s", "higher"),
    ("lower.lower_ms", "ms", "lower"),
    ("lower.il_stmts", "count", "lower"),
    ("analysis.cones_ms", "ms", "lower"),
    ("analysis.usedef_builds", "count", "lower"),
    ("analysis.usedef_hits", "count", "higher"),
    ("analysis.usedef_hit_ratio", "ratio", "higher"),
    ("il.hash_ms", "ms", "lower"),
    ("il.encode_ms", "ms", "lower"),
    ("il.json_parse_ms", "ms", "lower"),
    ("il.decode_ms", "ms", "lower"),
    ("il.verify_ms", "ms", "lower"),
    ("il.pretty_ms", "ms", "lower"),
    ("il.payload_bytes", "bytes", "lower"),
    ("il.out_stmts", "count", "lower"),
    ("inline.ms", "ms", "lower"),
    ("inline.expanded", "count", "higher"),
    ("inline.skipped_growth", "count", "lower"),
    ("opt.whiledo_ms", "ms", "lower"),
    ("opt.ivsub_ms", "ms", "lower"),
    ("opt.forward_ms", "ms", "lower"),
    ("opt.constprop_ms", "ms", "lower"),
    ("opt.dce_ms", "ms", "lower"),
    ("opt.cse_ms", "ms", "lower"),
    ("opt.do_converted", "count", "higher"),
    ("opt.iv_substituted", "count", "higher"),
    ("vector.vectorize_ms", "ms", "lower"),
    ("vector.strength_ms", "ms", "lower"),
    ("vector.spread_ms", "ms", "lower"),
    ("vector.vectorized", "count", "higher"),
    ("vector.parallelized", "count", "higher"),
    ("vector.scalar", "count", "lower"),
    ("vector.vectorization_rate", "ratio", "higher"),
    ("core.pass.pipeline_ms", "ms", "lower"),
    ("core.pass.passes_executed", "count", "lower"),
    ("core.pass.jn_ms", "ms", "lower"),
    ("core.pass.jn_speedup_x", "x", "higher"),
    ("core.pass.incidents", "count", "lower"),
    ("core.session.compile_ms", "ms", "lower"),
    ("core.session.unattributed_ms", "ms", "lower"),
    ("core.session.hits", "count", "higher"),
    ("core.session.misses", "count", "lower"),
    ("core.session.invalidated", "count", "lower"),
    ("core.session.hit_ratio", "ratio", "higher"),
    ("core.store.persist_ms", "ms", "lower"),
    ("core.store.read_ms", "ms", "lower"),
    ("core.store.dir_bytes", "bytes", "lower"),
    ("core.store.dir_files", "count", "lower"),
    ("core.store.bytes_per_edit", "bytes", "lower"),
    ("core.store.corrupt", "count", "lower"),
    ("core.store.quarantined", "count", "lower"),
    ("core.store.lock_contended", "count", "lower"),
    ("core.store.write_failed", "count", "lower"),
    ("core.server.proto_ms", "ms", "lower"),
    ("core.server.render_ms", "ms", "lower"),
    ("core.server.handle_ms", "ms", "lower"),
    ("titand.socket_ms", "ms", "lower"),
    ("titand.c1_ops_per_s", "1/s", "higher"),
    ("titand.scaling_x", "x", "higher"),
    ("titand.op_p90_ms", "ms", "lower"),
    ("titand.op_p99_ms", "ms", "lower"),
    ("titand.samples", "count", "higher"),
    ("titand.protocol_errors", "count", "lower"),
    ("titand.fully_warm_ratio", "ratio", "higher"),
    ("titan.sim_new_ms", "ms", "lower"),
    ("titan.interp.mstmts_per_s", "Mstmt/s", "higher"),
    ("titan.vm.mstmts_per_s", "Mstmt/s", "higher"),
    ("titan.vm_speedup_geomean_x", "x", "higher"),
    ("titan.steps", "count", "lower"),
    ("titan.flops", "count", "lower"),
    ("titan.vector_elems", "count", "higher"),
    ("titan.engines_agree", "count", "higher"),
    ("titan.paper.daxpy_2p_speedup_x", "x", "higher"),
    ("titan.paper.backsolve_mflops", "MFLOPS", "higher"),
];

/// Every per-layer metric: the fixed names, then for each suite program
/// its interpreter run time, VM run time and simulated cycles.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for (prefix, unit) in [
        ("titan.interp.run_ms", "ms"),
        ("titan.vm.run_ms", "ms"),
        ("titan.cycles", "cycles"),
    ] {
        for program in PROGRAMS {
            all.push((format!("{prefix}.{program}"), unit, "lower"));
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use titanc_il::json::{self, Json};

    fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
        v.field(key).and_then(Json::as_str).unwrap()
    }

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_the_code_prints() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.field("paths").unwrap().as_arr().unwrap(),
            [Json::Str("titanperf".into())]
        );
        let seconds = doc.field("run_seconds").unwrap().as_i64().unwrap();
        assert!((1..=60).contains(&seconds));
        assert_eq!(seconds as f64, RUN_SECONDS);

        let workloads = doc.field("workloads").unwrap().as_arr().unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        let end_to_end = doc.field("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        let mut largest = 0.0f64;
        for (m, (name, unit, better)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            assert_eq!(
                (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")),
                (name, unit, better)
            );
            let bound = m.field("bound").unwrap().as_f64().unwrap();
            assert!((0.0..=0.25).contains(&bound), "{name}: {bound}");
            largest = largest.max(bound);
        }
        // set-up time is there, in seconds, with the largest bound
        let setup = &end_to_end[0];
        assert_eq!(
            (str_of(setup, "name"), str_of(setup, "unit")),
            ("setup_s", "s")
        );
        assert_eq!(setup.field("bound").unwrap().as_f64().unwrap(), largest);

        let listed = doc.field("per_layer").unwrap().as_arr().unwrap();
        let declared = per_layer();
        assert!(declared.len() <= 128);
        assert_eq!(listed.len(), declared.len());
        for (m, (name, unit, better)) in listed.iter().zip(&declared) {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            assert_eq!(
                (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")),
                (name.as_str(), *unit, *better)
            );
        }
    }

    #[test]
    fn every_name_and_unit_is_within_the_contracts_alphabet_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| (w.to_string(), "count", "lower"))
            .chain(END_TO_END.iter().map(|&(n, u, b)| (n.to_string(), u, b)))
            .chain(per_layer());
        for (name, unit, better) in all {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(better == "lower" || better == "higher", "{name}: {better}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }

    #[test]
    fn the_result_line_parses_back_with_the_contracts_keys() {
        use crate::report::{Metrics, Outcome};

        let mut metrics = Metrics::declared(&END_TO_END);
        metrics.set("op_p50_ms", 21.450_012_3);
        metrics.set("sim_cycles", 363_910.0);
        let outcome = Outcome {
            attempted: 131,
            failed: 0,
            metrics,
        };
        let doc = json::parse(&outcome.to_json().to_string_compact()).unwrap();
        assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.field("correct").unwrap(), &Json::Bool(true));
        assert_eq!(doc.field("attempted").unwrap().as_i64().unwrap(), 131);
        let metrics = doc.field("metrics").unwrap();
        assert_eq!(keys(metrics), END_TO_END.map(|(n, _, _)| n));
        let p50 = metrics.field("op_p50_ms").unwrap();
        assert_eq!(keys(p50), ["value", "unit"]);
        assert_eq!(p50.field("value").unwrap().as_f64().unwrap(), 21.450_012_3);
        assert_eq!(str_of(p50, "unit"), "ms");
        assert!(keys(metrics).into_iter().all(valid_name));
    }
}

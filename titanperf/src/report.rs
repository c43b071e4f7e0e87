//! The result a run prints: every metric by name with its unit, then the
//! contract's one-line JSON object as the last line of stdout.

use titanc_il::json::Json;

/// A full set of declared metrics, each starting at 0.
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    pub fn declared<N: ToString>(decls: &[(N, &'static str, &'static str)]) -> Metrics {
        Metrics {
            entries: decls
                .iter()
                .map(|(name, unit, _)| (name.to_string(), *unit, 0.0))
                .collect(),
        }
    }

    /// Sets a declared metric. A name outside the declared set, or a value
    /// that is not a finite number, is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        let entry = self
            .entries
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        entry.2 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .2
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str, f64)> {
        self.entries.iter().map(|(n, u, v)| (n.as_str(), *u, *v))
    }
}

/// What one run measured.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

impl Outcome {
    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let entry = Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Prints the readable table, then the result object as the last line.
    pub fn print(&self, workload: &str) {
        println!(
            "titanperf {workload}: {} op(s) attempted, {} failed",
            self.attempted, self.failed
        );
        for (name, unit, value) in self.metrics.iter() {
            println!("  {name:<36} {value:>16.4} {unit}");
        }
        println!("{}", self.to_json().to_string_compact());
    }
}

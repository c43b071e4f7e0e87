//! The §7 catalog workflow: compile a BLAS-1 library into a serialized
//! procedure database, then inline from it in a separate compilation —
//! "much as include directories are used as a source for header files".
//!
//! ```sh
//! cargo run --example blas_catalog
//! ```

use titanc_repro::il::Catalog;
use titanc_repro::titan::{MachineConfig, Simulator};
use titanc_repro::titanc::{compile, Options};

const LIBRARY: &str = r#"
void blas_daxpy(float *x, float *y, float *z, float alpha, int n)
{
    if (n <= 0)
        return;
    if (alpha == 0)
        return;
    for (; n; n--)
        *x++ = *y++ + alpha * *z++;
}

void blas_set(float *x, float value, int n)
{
    while (n) {
        *x++ = value;
        n--;
    }
}
"#;

const APP: &str = r#"
void blas_daxpy(float *x, float *y, float *z, float alpha, int n);
void blas_set(float *x, float value, int n);

float a[256], b[256], c[256];

int main(void)
{
    blas_set(b, 2.0f, 256);
    blas_set(c, 3.0f, 256);
    blas_daxpy(a, b, c, 2.0, 256);
    print_float(a[0]);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "compile" the library into a catalog and serialize it
    let lib = titanc_lower::compile_to_il(LIBRARY).expect("library compiles");
    let catalog = Catalog::from_program("blas", &lib);
    let dir = std::env::temp_dir().join("titanc-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("blas.cat");
    catalog.save(&path)?;
    println!(
        "catalog written to {} ({} procedures)",
        path.display(),
        catalog.procs.len()
    );

    // a later compilation loads the catalog and inlines from it
    let catalog = Catalog::load(&path)?;
    let compiled = compile(
        APP,
        &Options {
            catalogs: vec![catalog],
            ..Options::parallel()
        },
    )?;
    println!(
        "inlined {} call sites, vectorized {} loops",
        compiled.reports.count("expanded"),
        compiled.reports.count("vectorized")
    );

    let mut sim = Simulator::new(&compiled.program, MachineConfig::optimized(2));
    let run = sim.run("main", &[])?;
    println!(
        "a[0] = {} (2 + 2*3 = 8 expected); {:.0} cycles on two processors",
        run.stats.output[0], run.stats.cycles
    );
    Ok(())
}

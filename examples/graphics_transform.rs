//! The §10 graphics workload: 4×4 matrix transforms over a vertex list,
//! with the arrays embedded inside structures — the construct the Titan
//! team "originally did not put much effort into handling", a decision the
//! Doré rendering package proved poor.
//!
//! ```sh
//! cargo run --example graphics_transform
//! ```

use titanc_repro::il::{LoopDecision, ScalarType};
use titanc_repro::titan::{MachineConfig, Simulator, CLOCK_MHZ};
use titanc_repro::titanc::{compile, Count, Options};

const SRC: &str = r#"
struct matrix {
    float m[4][4];
};
struct vertex {
    float v[4];
};

struct matrix xf;
struct vertex pts[256], out_pts[256];

void identity(void)
{
    int r, c;
    for (r = 0; r < 4; r++)
        for (c = 0; c < 4; c++)
            xf.m[r][c] = (r == c) ? 2.0f : 0.0f;   /* uniform scale by 2 */
}

void transform(void)
{
    int i, r, c;
    float acc;
    for (i = 0; i < 256; i++) {
        for (r = 0; r < 4; r++) {
            acc = 0.0f;
            for (c = 0; c < 4; c++)
                acc += xf.m[r][c] * pts[i].v[c];
            out_pts[i].v[r] = acc;
        }
    }
}

int main(void)
{
    int i;
    identity();
    for (i = 0; i < 256; i++) {
        pts[i].v[0] = i;
        pts[i].v[1] = i + 0.25f;
        pts[i].v[2] = i + 0.5f;
        pts[i].v[3] = 1.0f;
    }
    transform();
    print_float(out_pts[100].v[0]);
    print_float(out_pts[100].v[3]);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scalar = compile(SRC, &Options::o1())?;
    let mut sim = Simulator::new(&scalar.program, MachineConfig::scalar());
    let s = sim.run("main", &[])?.stats;

    let optimized = compile(SRC, &Options::o2())?;
    println!(
        "while->DO: {}, induction variables: {}, strength-reduced addresses: {}",
        optimized.reports.count("do_converted"),
        LoopDecision::ivs_substituted(&optimized.reports.loops),
        optimized.reports.get(Count::StrengthReduced),
    );
    let mut sim = Simulator::new(&optimized.program, MachineConfig::optimized(1));
    let o = sim.run("main", &[])?.stats;

    println!(
        "out_pts[100] = ({}, ..., {})  [expect 200, 2]",
        o.output[0], o.output[1]
    );
    println!(
        "scalar-only: {:.0} cycles ({:.2} MFLOPS) | optimized: {:.0} cycles ({:.2} MFLOPS) | {:.2}x",
        s.cycles,
        s.mflops(CLOCK_MHZ),
        o.cycles,
        o.mflops(CLOCK_MHZ),
        s.cycles / o.cycles
    );

    // the embedded arrays are observable as flat memory too
    let mut sim = Simulator::new(&optimized.program, MachineConfig::optimized(1));
    sim.run("main", &[])?;
    let x = sim.read_global("out_pts", ScalarType::Float, 100 * 4)?;
    assert_eq!(x.as_float(), 200.0);
    Ok(())
}

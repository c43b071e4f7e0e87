//! Parser error recovery: a translation unit with several independent
//! mistakes must produce one diagnostic per mistake (with real source
//! positions), keep the items that parsed cleanly, and terminate on any
//! input — including pure garbage.

use titanc_cfront::{parse, parse_recovering, DiagnosticSink, Severity};

fn errors(src: &str, cap: usize) -> (usize, Vec<(u32, u32, String)>) {
    let mut sink = DiagnosticSink::new(cap);
    let tu = parse_recovering(src, &mut sink);
    let spans = sink
        .errors()
        .map(|d| (d.span.line, d.span.col, d.message.clone()))
        .collect();
    (tu.items.len(), spans)
}

#[test]
fn two_bad_statements_two_diagnostics() {
    let src = "void f(void)\n{\n    int x;\n    x = ;\n    x = 1;\n    y 2;\n    x = 3;\n}\n";
    let (items, errs) = errors(src, 20);
    assert_eq!(errs.len(), 2, "expected exactly two diagnostics: {errs:?}");
    // each diagnostic lands on the line of its own mistake
    assert_eq!(errs[0].0, 4, "first error on line 4: {errs:?}");
    assert!(errs[0].2.contains("expected expression"), "{errs:?}");
    assert_eq!(errs[1].0, 6, "second error on line 6: {errs:?}");
    // the function around them still parses
    assert_eq!(items, 1);
}

#[test]
fn bad_items_do_not_take_down_their_neighbors() {
    let src = "\
int good_one(int a) { return a + 1; }
int 123bad;
float good_two(float x) { return x * 2.0f; }
int = 4;
int good_three(void) { return 3; }
";
    let mut sink = DiagnosticSink::new(20);
    let tu = parse_recovering(src, &mut sink);
    assert!(sink.has_errors());
    assert!(sink.error_count() >= 2, "{:?}", sink.diagnostics());
    let names: Vec<_> = tu
        .items
        .iter()
        .filter_map(|i| match i {
            titanc_cfront::ast::Item::Func(f) => Some(f.name.as_str()),
            _ => None,
        })
        .collect();
    assert!(names.contains(&"good_one"), "{names:?}");
    assert!(names.contains(&"good_two"), "{names:?}");
    assert!(names.contains(&"good_three"), "{names:?}");
}

#[test]
fn max_errors_caps_the_cascade() {
    // every line is its own error
    let mut src = String::from("void f(void) {\n");
    for _ in 0..50 {
        src.push_str("    x = ;\n");
    }
    src.push_str("}\n");
    let mut sink = DiagnosticSink::new(5);
    let _ = parse_recovering(&src, &mut sink);
    assert_eq!(sink.errors().count(), 5, "stored errors stop at the cap");
    assert!(sink.at_limit());
}

#[test]
fn recovery_terminates_on_garbage() {
    // pathological inputs: unbalanced braces, operator soup, truncation
    let cases = [
        "(((((((((((",
        "}}}}}}}}}}}}",
        "void f( { ) } ; int",
        "int x = = = = = ;;;; void @",
        "do while for if else } { ; ) (",
        "void f(void) { if (x ",
        "+ - * / % << >> == != ;",
    ];
    for src in cases {
        let mut sink = DiagnosticSink::new(20);
        let _ = parse_recovering(src, &mut sink);
        // termination is the property; garbage must also not be silent
        assert!(sink.has_errors(), "no diagnostic for {src:?}");
    }
}

#[test]
fn recovery_terminates_on_random_token_soup() {
    // deterministic xorshift64* over a token alphabet: every sample must
    // return (quickly), never hang or panic
    let mut state: u64 = 0x5EED_CAFE;
    let alphabet = [
        "int", "float", "void", "x", "f", "(", ")", "{", "}", "[", "]", ";", ",", "=", "+", "*",
        "->", "1", "2.5f", "if", "for", "while", "return", "struct", "&&", "!",
    ];
    for _ in 0..200 {
        let mut src = String::new();
        for _ in 0..64 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let i = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % alphabet.len() as u64) as usize;
            src.push_str(alphabet[i]);
            src.push(' ');
        }
        let mut sink = DiagnosticSink::new(20);
        let _ = parse_recovering(&src, &mut sink);
    }
}

#[test]
fn clean_input_yields_no_diagnostics() {
    let src = "int add(int a, int b) { return a + b; }";
    let mut sink = DiagnosticSink::new(20);
    let tu = parse_recovering(src, &mut sink);
    assert!(!sink.has_errors());
    assert!(sink.diagnostics().is_empty());
    assert_eq!(tu.items.len(), 1);
}

#[test]
fn severities_order_and_render() {
    assert!(Severity::Remark < Severity::Warning);
    assert!(Severity::Warning < Severity::Error);
}

#[test]
fn parse_fails_with_the_first_error_recovery_reports() {
    // a statement error, then an item error: `parse` stops at the first
    let src = "void f(void)\n{\n    int x;\n    x = ;\n}\nint = 4;\nint g(void) { return 1; }\n";
    let err = parse(src).expect_err("two mistakes");
    assert_eq!(err.to_string(), "4:9: expected expression, found `;`");
    let (_, errs) = errors(src, 20);
    assert_eq!(errs.len(), 2, "{errs:?}");
    assert_eq!((errs[0].0, errs[0].1), (err.span.line, err.span.col));
    assert_eq!(errs[0].2, err.message);
    // a lexical error is the only one
    let err = parse("int main(void) { /* open").expect_err("unterminated comment");
    assert!(err.message.contains("unterminated comment"), "{err}");
    assert_eq!(
        parse("int g(void) { return 1; }\n").map(|tu| tu.items.len()),
        Ok(1)
    );
}

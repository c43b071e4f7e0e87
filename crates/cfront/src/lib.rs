//! # titanc-cfront — the C front end
//!
//! Lexer, parser and AST for the C subset compiled by `titanc`, the
//! reproduction of the Titan C compiler (Allen & Johnson, PLDI 1988, §4).
//!
//! The front end is deliberately *syntactic*: it performs no optimization
//! and builds a faithful AST in which every C wart the paper discusses —
//! `++`, embedded assignment, `?:`, `&&`, `||`, the comma operator,
//! `volatile`, `goto` into loops — is still visible. The recasting of
//! expressions into side-effect-free *(statement list, expression)* pairs
//! happens in `titanc-lower`.
//!
//! Supported subset: `void`/`char`/`int`/`float`/`double` (with
//! `short`/`long`/`unsigned` accepted as `int`), pointers, multi-dimensional
//! arrays, structs (including arrays embedded in structs, the §10 Doré
//! lesson), prototypes, `static`/`extern`/`register`, `volatile`/`const`,
//! all of C89's statements (`case` labels only directly in a `switch`
//! body), and the full expression grammar minus function pointers.
//!
//! The parser is one forward, clone-free pass over the token vector, with
//! C's ten binary precedence levels parsed by precedence climbing
//! ([`parser`] has the details).
//!
//! ## Example
//!
//! ```
//! let tu = titanc_cfront::parse("int square(int x) { return x * x; }")?;
//! assert_eq!(tu.items.len(), 1);
//! # Ok::<(), titanc_cfront::Diagnostic>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;

pub use ast::TranslationUnit;
pub use error::{Diagnostic, DiagnosticSink, Severity, Span, DEFAULT_MAX_ERRORS};
pub use parser::{parse, parse_expr, parse_recovering};

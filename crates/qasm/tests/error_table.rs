//! Every `QasmError` path of the front end, pinned with its exact line,
//! column and message, plus the accepted forms that sit next to them.
//!
//! Each row names one way a program can fail (or unexpectedly succeed).
//! The parser may be rewritten freely as long as this table keeps passing
//! unedited: it is the contract for what a client sees in a `400`.

use sabre_qasm::parse;

const H: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

/// What a row expects: `Ok((num_qubits, num_gates))` or
/// `Err((line, column, message))`.
type Expected = Result<(u32, usize), (u32, u32, &'static str)>;

fn rows() -> Vec<(&'static str, String, Expected)> {
    let deep_parens = format!(
        "{H}qreg q[1];\nrz({}pi{}) q[0];\n",
        "(".repeat(129),
        ")".repeat(129)
    );
    let deep_signs = format!("{H}qreg q[1];\nrz({}pi) q[0];\n", "-".repeat(10_000));
    let at_bound = format!(
        "{H}qreg q[1];\nrz({}pi{}) q[0];\n",
        "(".repeat(128),
        ")".repeat(128)
    );
    vec![
        // ---- lexer ----
        (
            "string broken by a newline",
            "OPENQASM 2.0;\ninclude \"qelib1.inc;\nqreg q[1];\n".into(),
            Err((2, 9, "unterminated string literal")),
        ),
        (
            "string open at end of input",
            "OPENQASM 2.0;\ninclude \"qelib1".into(),
            Err((2, 9, "unterminated string literal")),
        ),
        (
            "unexpected character",
            format!("{H}qreg q[1];\nh q[0]; @\n"),
            Err((4, 9, "unexpected character `@`")),
        ),
        (
            "non-ASCII byte is reported byte-wise",
            format!("{H}qreg q[1];\nh q[0]; é\n"),
            Err((4, 9, "unexpected character `Ã`")),
        ),
        (
            "columns count bytes inside strings",
            "OPENQASM 2.0;\ninclude \"é.inc\"; @\n".into(),
            Err((2, 19, "unexpected character `@`")),
        ),
        (
            "invalid number: dangling exponent",
            format!("{H}qreg q[1];\nrz(1e) q[0];\n"),
            Err((4, 4, "invalid number literal `1e`")),
        ),
        (
            "invalid number: lone dot",
            format!("{H}qreg q[1];\nrz(.) q[0];\n"),
            Err((4, 4, "invalid number literal `.`")),
        ),
        (
            "invalid number: signed exponent without digits",
            format!("{H}qreg q[1];\nrz(2.5e+) q[0];\n"),
            Err((4, 4, "invalid number literal `2.5e+`")),
        ),
        (
            "a lexical error wins over an earlier syntax error",
            "OPENQASM 3.0;\nqreg q[1];\n@\n".into(),
            Err((3, 1, "unexpected character `@`")),
        ),
        (
            "`==` is not a token, so `if` fails in the lexer",
            format!("{H}qreg q[1];\ncreg c[1];\nif(c==1) x q[0];\n"),
            Err((5, 5, "unexpected character `=`")),
        ),
        (
            "a trailing comment does not advance the column",
            "OPENQASM 2.0;\nqreg q[1];\nh q[0] // no semicolon".into(),
            Err((3, 8, "expected `;`, found end of input")),
        ),
        // ---- header ----
        (
            "missing header",
            "qreg q[1];\n".into(),
            Err((1, 1, "expected `OPENQASM`, found `qreg`")),
        ),
        (
            "empty input",
            "".into(),
            Err((1, 1, "expected `OPENQASM`, found end of input")),
        ),
        (
            "wrong version",
            "OPENQASM 3.0;\n".into(),
            Err((1, 10, "only OPENQASM 2.0 is supported")),
        ),
        (
            "version is not a number",
            "OPENQASM two;\n".into(),
            Err((1, 10, "only OPENQASM 2.0 is supported")),
        ),
        (
            "header without `;`",
            "OPENQASM 2.0\nqreg q[1];\n".into(),
            Err((2, 1, "expected `;`, found `qreg`")),
        ),
        (
            "`include` without a file name",
            "OPENQASM 2.0;\ninclude qelib1;\n".into(),
            Err((2, 9, "expected file name string after `include`")),
        ),
        // ---- statements and gates ----
        (
            "statement starting with a number",
            format!("{H}5;\n"),
            Err((3, 1, "expected a statement, found number `5`")),
        ),
        (
            "statement starting with a string",
            format!("{H}\"x\";\n"),
            Err((3, 1, "expected a statement, found string \"x\"")),
        ),
        (
            "statement starting with punctuation",
            format!("{H};\n"),
            Err((3, 1, "expected a statement, found `;`")),
        ),
        (
            "unknown gate",
            format!("{H}qreg q[1];\nfoo q[0];\n"),
            Err((4, 1, "unknown gate `foo`")),
        ),
        (
            "missing parameter",
            format!("{H}qreg q[1];\nrz q[0];\n"),
            Err((4, 1, "gate `rz` expects 1 parameter(s), got 0")),
        ),
        (
            "empty parameter list",
            format!("{H}qreg q[1];\nrz() q[0];\n"),
            Err((4, 1, "gate `rz` expects 1 parameter(s), got 0")),
        ),
        (
            "parameter on a fixed gate",
            format!("{H}qreg q[1];\nh(0.1) q[0];\n"),
            Err((4, 1, "gate `h` expects 0 parameter(s), got 1")),
        ),
        (
            "more parameters than any gate takes",
            format!("{H}qreg q[1];\nu3(1, 2, 3, 4, 5) q[0];\n"),
            Err((4, 1, "gate `u3` expects 3 parameter(s), got 5")),
        ),
        (
            "trailing comma in parameters",
            format!("{H}qreg q[1];\nrz(pi,) q[0];\n"),
            Err((4, 7, "expected a parameter expression, found `)`")),
        ),
        (
            "unknown identifier in an expression",
            format!("{H}qreg q[1];\nrz(theta) q[0];\n"),
            Err((4, 4, "expected a parameter expression, found `theta`")),
        ),
        (
            "unclosed parameter list",
            format!("{H}qreg q[1];\nrz(1 q[0];\n"),
            Err((4, 6, "expected `)`, found `q`")),
        ),
        (
            "too few qubits",
            format!("{H}qreg q[2];\ncx q[0];\n"),
            Err((4, 1, "gate `cx` expects 2 qubit argument(s), got 1")),
        ),
        (
            "too many qubits",
            format!("{H}qreg q[3];\ncx q[0], q[1], q[2];\n"),
            Err((4, 1, "gate `cx` expects 2 qubit argument(s), got 3")),
        ),
        (
            "surplus arguments are still resolved",
            format!("{H}qreg q[3];\ncx q[0], q[1], r[2];\n"),
            Err((4, 16, "undeclared quantum register `r`")),
        ),
        (
            "gate definition",
            format!("{H}gate g a, b {{ cx a, b; }}\n"),
            Err((
                3,
                1,
                "custom gate definitions are not supported; inline the body",
            )),
        ),
        (
            "opaque gate",
            format!("{H}opaque g a;\n"),
            Err((
                3,
                1,
                "custom gate definitions are not supported; inline the body",
            )),
        ),
        (
            "reset",
            format!("{H}qreg q[1];\nreset q[0];\n"),
            Err((4, 1, "`reset` statements are not supported")),
        ),
        (
            "if without a comparison",
            format!("{H}qreg q[1];\nif x q[0];\n"),
            Err((4, 1, "`if` statements are not supported")),
        ),
        (
            "129 nested parentheses",
            deep_parens,
            Err((4, 132, "parameter expression nested deeper than 128 levels")),
        ),
        (
            "10,000 unary signs",
            deep_signs,
            Err((4, 132, "parameter expression nested deeper than 128 levels")),
        ),
        (
            "gate missing `;` at end of input",
            format!("{H}qreg q[1];\nh q[0]"),
            Err((4, 7, "expected `;`, found end of input")),
        ),
        (
            "barrier missing `;` at end of input",
            format!("{H}qreg q[1];\nbarrier q"),
            Err((4, 10, "unexpected end of input; missing `;`")),
        ),
        (
            "argument that is not a register",
            format!("{H}qreg q[1];\nh 0;\n"),
            Err((4, 3, "expected identifier, found number `0`")),
        ),
        // ---- registers ----
        (
            "undeclared register",
            format!("{H}h q[0];\n"),
            Err((3, 3, "undeclared quantum register `q`")),
        ),
        (
            "index out of range",
            format!("{H}qreg q[2];\nx q[5];\n"),
            Err((4, 3, "index 5 out of range for `q[2]`")),
        ),
        (
            "negative index",
            format!("{H}qreg q[2];\nx q[-1];\n"),
            Err((4, 5, "expected a non-negative integer")),
        ),
        (
            "fractional index",
            format!("{H}qreg q[2];\nx q[1.5];\n"),
            Err((4, 5, "expected a non-negative integer")),
        ),
        (
            "index past u32",
            format!("{H}qreg q[2];\nx q[4294967296];\n"),
            Err((4, 5, "expected a non-negative integer")),
        ),
        (
            "index past u64",
            format!("{H}qreg q[2];\nx q[99999999999999999999];\n"),
            Err((4, 5, "expected a non-negative integer")),
        ),
        (
            "register size is not an integer",
            format!("{H}qreg q[two];\n"),
            Err((3, 8, "expected a non-negative integer")),
        ),
        (
            "register without a name",
            format!("{H}qreg [2];\n"),
            Err((3, 6, "expected identifier, found `[`")),
        ),
        (
            "classical register size is checked too",
            format!("{H}creg c[x];\n"),
            Err((3, 8, "expected a non-negative integer")),
        ),
        (
            "duplicate register",
            format!("{H}qreg q[2];\nqreg q[3];\n"),
            Err((4, 1, "quantum register `q` already declared")),
        ),
        (
            "same wire twice",
            format!("{H}qreg q[2];\ncx q[1], q[1];\n"),
            Err((4, 1, "two-qubit gate applied to the same wire twice")),
        ),
        (
            "broadcast that meets its own wire",
            format!("{H}qreg q[3];\ncx q[0], q;\n"),
            Err((4, 1, "two-qubit gate applied to the same wire twice")),
        ),
        (
            "broadcast size mismatch",
            format!("{H}qreg a[2];\nqreg b[3];\ncx a, b;\n"),
            Err((5, 1, "register size mismatch in broadcast: 2 vs 3")),
        ),
        (
            // Widths are summed with `checked_add`: a wrapped sum would
            // put `r` on wires the circuit does not have.
            "register widths overflowing u32",
            format!("{H}qreg q[4294967295];\nqreg r[2];\nx r[0];\n"),
            Err((4, 1, "quantum registers exceed 4294967295 qubits in total")),
        ),
        // ---- accepted forms ----
        (
            "integral real index",
            format!("{H}qreg q[2];\nx q[1.0];\n"),
            Ok((2, 1)),
        ),
        (
            "exponent-form index and register size",
            format!("{H}qreg q[2e0];\nx q[1e0];\n"),
            Ok((2, 1)),
        ),
        (
            "integer version",
            "OPENQASM 2;\nqreg q[1];\n".into(),
            Ok((1, 0)),
        ),
        ("128 nested parentheses", at_bound, Ok((1, 1))),
        (
            "register declared after gates",
            format!("{H}qreg a[1];\nh a[0];\nqreg b[2];\ncx a[0], b[1];\n"),
            Ok((3, 2)),
        ),
        (
            "classical registers may repeat",
            format!("{H}creg c[1];\ncreg c[2];\nqreg q[1];\nmeasure q[0] -> c[0];\n"),
            Ok((1, 0)),
        ),
        (
            "widest register that fits u32",
            format!("{H}qreg q[4294967295];\nx q[4294967294];\n"),
            Ok((4294967295, 1)),
        ),
    ]
}

#[test]
fn every_error_path_reports_its_position_and_message() {
    let mut mismatches = Vec::new();
    for (name, source, expected) in rows() {
        let actual = match parse(&source) {
            Ok(c) => Ok((c.num_qubits(), c.num_gates())),
            Err(e) => Err((e.line(), e.column(), e.message().to_string())),
        };
        let expected = expected.map_err(|(l, c, m)| (l, c, m.to_string()));
        if actual != expected {
            mismatches.push(format!(
                "{name}:\n  expected {expected:?}\n  actual   {actual:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}

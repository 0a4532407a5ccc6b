use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, PI};

use sabre_circuit::{Circuit, Gate, OneQubitKind, Params, Qubit, TwoQubitKind};

use crate::lexer::{lex, Token, TokenKind};
use crate::QasmError;

/// Maximum nesting of parentheses and unary signs in one parameter
/// expression — the recursive-descent evaluator recurses once per level,
/// so this bounds its stack use against adversarial input like
/// `rz((((…` or `rz(----…`.
const MAX_EXPRESSION_DEPTH: usize = 128;

/// Result of parsing a full OpenQASM program, including what was skipped.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedProgram {
    /// The unitary part of the program.
    pub circuit: Circuit,
    /// Quantum registers in declaration order, as `(name, size)`; wires are
    /// flattened in this order.
    pub quantum_registers: Vec<(String, u32)>,
    /// Number of `barrier` statements dropped.
    pub skipped_barriers: usize,
    /// Number of `measure` statements dropped.
    pub skipped_measurements: usize,
}

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// See the [crate-level documentation](crate) for the supported subset.
///
/// # Errors
///
/// Returns a [`QasmError`] with source position for lexical errors, syntax
/// errors, unknown gates, and references to undeclared registers or
/// out-of-range indices.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    parse_program(source).map(|p| p.circuit)
}

/// Parses OpenQASM 2.0 source, also reporting skipped non-unitary
/// statements and the register layout.
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn parse_program(source: &str) -> Result<ParsedProgram, QasmError> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        qregs: HashMap::new(),
        qreg_order: Vec::new(),
        cregs: HashMap::new(),
        num_qubits: 0,
        gates: Vec::new(),
        skipped_barriers: 0,
        skipped_measurements: 0,
    };
    parser.program()?;
    let mut circuit = Circuit::new(parser.num_qubits);
    for gate in parser.gates {
        circuit
            .try_push(gate)
            .map_err(|e| QasmError::new(0, 0, e.to_string()))?;
    }
    Ok(ParsedProgram {
        circuit,
        quantum_registers: parser.qreg_order,
        skipped_barriers: parser.skipped_barriers,
        skipped_measurements: parser.skipped_measurements,
    })
}

/// A gate argument: either one wire or a whole register.
#[derive(Clone, Copy, Debug)]
enum Arg {
    Single(Qubit),
    /// `(offset, size)` of a register.
    Register(u32, u32),
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// name → (offset, size)
    qregs: HashMap<String, (u32, u32)>,
    qreg_order: Vec<(String, u32)>,
    /// name → size (contents unused; declared for completeness)
    cregs: HashMap<String, u32>,
    num_qubits: u32,
    gates: Vec<Gate>,
    skipped_barriers: usize,
    skipped_measurements: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error_here(&self, message: impl Into<String>) -> QasmError {
        let t = self.peek();
        QasmError::new(t.line, t.column, message)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, QasmError> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.error_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Token), QasmError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                let tok = self.advance();
                Ok((name, tok))
            }
            other => {
                Err(self.error_here(format!("expected identifier, found {}", other.describe())))
            }
        }
    }

    fn expect_uint(&mut self) -> Result<u32, QasmError> {
        match self.peek().kind {
            TokenKind::Number(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
                self.advance();
                Ok(v as u32)
            }
            _ => Err(self.error_here("expected a non-negative integer")),
        }
    }

    // Float literal patterns are forbidden, so the version check keeps
    // its (clippy-"redundant") guard.
    #[allow(clippy::redundant_guards)]
    fn program(&mut self) -> Result<(), QasmError> {
        // Header: OPENQASM 2.0;
        self.expect(&TokenKind::OpenQasm)?;
        match self.peek().kind {
            TokenKind::Number(v) if v == 2.0 => {
                self.advance();
            }
            _ => return Err(self.error_here("only OPENQASM 2.0 is supported")),
        }
        self.expect(&TokenKind::Semicolon)?;

        while self.peek().kind != TokenKind::Eof {
            self.statement()?;
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<(), QasmError> {
        let (name, tok) = match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                let tok = self.advance();
                (name, tok)
            }
            other => {
                return Err(
                    self.error_here(format!("expected a statement, found {}", other.describe()))
                )
            }
        };
        match name.as_str() {
            "include" => {
                // include "<file>"; — the only include benchmarks use is
                // qelib1.inc, whose gates are built in; contents ignored.
                match self.peek().kind.clone() {
                    TokenKind::Str(_) => {
                        self.advance();
                    }
                    _ => return Err(self.error_here("expected file name string after `include`")),
                }
                self.expect(&TokenKind::Semicolon)?;
                Ok(())
            }
            "qreg" => {
                let (reg, _) = self.expect_ident()?;
                self.expect(&TokenKind::LBracket)?;
                let size = self.expect_uint()?;
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Semicolon)?;
                if self.qregs.contains_key(&reg) {
                    return Err(QasmError::new(
                        tok.line,
                        tok.column,
                        format!("quantum register `{reg}` already declared"),
                    ));
                }
                self.qregs.insert(reg.clone(), (self.num_qubits, size));
                self.qreg_order.push((reg, size));
                self.num_qubits += size;
                Ok(())
            }
            "creg" => {
                let (reg, _) = self.expect_ident()?;
                self.expect(&TokenKind::LBracket)?;
                let size = self.expect_uint()?;
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Semicolon)?;
                self.cregs.insert(reg, size);
                Ok(())
            }
            "barrier" => {
                // barrier <args>; — dropped: barriers only constrain
                // scheduling, not mapping.
                self.skip_to_semicolon()?;
                self.skipped_barriers += 1;
                Ok(())
            }
            "measure" => {
                self.skip_to_semicolon()?;
                self.skipped_measurements += 1;
                Ok(())
            }
            "gate" | "opaque" => Err(QasmError::new(
                tok.line,
                tok.column,
                "custom gate definitions are not supported; inline the body",
            )),
            "if" | "reset" => Err(QasmError::new(
                tok.line,
                tok.column,
                format!("`{name}` statements are not supported"),
            )),
            _ => self.gate_application(&name, &tok),
        }
    }

    fn skip_to_semicolon(&mut self) -> Result<(), QasmError> {
        while self.peek().kind != TokenKind::Semicolon {
            if self.peek().kind == TokenKind::Eof {
                return Err(self.error_here("unexpected end of input; missing `;`"));
            }
            self.advance();
        }
        self.advance(); // consume `;`
        Ok(())
    }

    fn gate_application(&mut self, name: &str, tok: &Token) -> Result<(), QasmError> {
        let spec = GateSpec::lookup(name).ok_or_else(|| {
            QasmError::new(tok.line, tok.column, format!("unknown gate `{name}`"))
        })?;

        // Optional parameter list.
        let mut params: Vec<f64> = Vec::new();
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            if self.peek().kind != TokenKind::RParen {
                loop {
                    params.push(self.expression(0)?);
                    if self.peek().kind == TokenKind::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        if params.len() != spec.num_params {
            return Err(QasmError::new(
                tok.line,
                tok.column,
                format!(
                    "gate `{name}` expects {} parameter(s), got {}",
                    spec.num_params,
                    params.len()
                ),
            ));
        }

        // Argument list.
        let mut args: Vec<Arg> = Vec::new();
        loop {
            args.push(self.argument()?);
            if self.peek().kind == TokenKind::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::Semicolon)?;
        if args.len() != spec.num_qubits {
            return Err(QasmError::new(
                tok.line,
                tok.column,
                format!(
                    "gate `{name}` expects {} qubit argument(s), got {}",
                    spec.num_qubits,
                    args.len()
                ),
            ));
        }

        self.emit(&spec, &params, &args, tok)
    }

    fn argument(&mut self) -> Result<Arg, QasmError> {
        let (reg, tok) = self.expect_ident()?;
        let &(offset, size) = self.qregs.get(&reg).ok_or_else(|| {
            QasmError::new(
                tok.line,
                tok.column,
                format!("undeclared quantum register `{reg}`"),
            )
        })?;
        if self.peek().kind == TokenKind::LBracket {
            self.advance();
            let index = self.expect_uint()?;
            self.expect(&TokenKind::RBracket)?;
            if index >= size {
                return Err(QasmError::new(
                    tok.line,
                    tok.column,
                    format!("index {index} out of range for `{reg}[{size}]`"),
                ));
            }
            Ok(Arg::Single(Qubit(offset + index)))
        } else {
            Ok(Arg::Register(offset, size))
        }
    }

    fn emit(
        &mut self,
        spec: &GateSpec,
        params: &[f64],
        args: &[Arg],
        tok: &Token,
    ) -> Result<(), QasmError> {
        match (spec.num_qubits, args) {
            (1, [arg]) => {
                let wires: Vec<Qubit> = match *arg {
                    Arg::Single(q) => vec![q],
                    Arg::Register(offset, size) => (offset..offset + size).map(Qubit).collect(),
                };
                for q in wires {
                    self.gates.push(spec.build_one(q, params));
                }
                Ok(())
            }
            (2, [a, b]) => {
                let pairs: Vec<(Qubit, Qubit)> = match (*a, *b) {
                    (Arg::Single(qa), Arg::Single(qb)) => vec![(qa, qb)],
                    (Arg::Register(oa, sa), Arg::Register(ob, sb)) => {
                        if sa != sb {
                            return Err(QasmError::new(
                                tok.line,
                                tok.column,
                                format!("register size mismatch in broadcast: {sa} vs {sb}"),
                            ));
                        }
                        (0..sa).map(|i| (Qubit(oa + i), Qubit(ob + i))).collect()
                    }
                    (Arg::Single(qa), Arg::Register(ob, sb)) => {
                        (0..sb).map(|i| (qa, Qubit(ob + i))).collect()
                    }
                    (Arg::Register(oa, sa), Arg::Single(qb)) => {
                        (0..sa).map(|i| (Qubit(oa + i), qb)).collect()
                    }
                };
                for (qa, qb) in pairs {
                    if qa == qb {
                        return Err(QasmError::new(
                            tok.line,
                            tok.column,
                            "two-qubit gate applied to the same wire twice",
                        ));
                    }
                    self.gates.push(spec.build_two(qa, qb, params));
                }
                Ok(())
            }
            _ => unreachable!("gate arity validated before emit"),
        }
    }

    /// expr := term (('+'|'-') term)*
    ///
    /// `depth` counts the open parentheses and unary signs enclosing this
    /// expression; see [`MAX_EXPRESSION_DEPTH`].
    fn expression(&mut self, depth: usize) -> Result<f64, QasmError> {
        let mut value = self.term(depth)?;
        loop {
            match self.peek().kind {
                TokenKind::Plus => {
                    self.advance();
                    value += self.term(depth)?;
                }
                TokenKind::Minus => {
                    self.advance();
                    value -= self.term(depth)?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// term := factor (('*'|'/') factor)*
    fn term(&mut self, depth: usize) -> Result<f64, QasmError> {
        let mut value = self.factor(depth)?;
        loop {
            match self.peek().kind {
                TokenKind::Star => {
                    self.advance();
                    value *= self.factor(depth)?;
                }
                TokenKind::Slash => {
                    self.advance();
                    value /= self.factor(depth)?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// factor := ('-'|'+') factor | number | 'pi' | '(' expr ')'
    fn factor(&mut self, depth: usize) -> Result<f64, QasmError> {
        let kind = self.peek().kind.clone();
        if matches!(kind, TokenKind::Minus | TokenKind::Plus | TokenKind::LParen)
            && depth >= MAX_EXPRESSION_DEPTH
        {
            return Err(self.error_here(format!(
                "parameter expression nested deeper than {MAX_EXPRESSION_DEPTH} levels"
            )));
        }
        match kind {
            TokenKind::Minus => {
                self.advance();
                Ok(-self.factor(depth + 1)?)
            }
            TokenKind::Plus => {
                self.advance();
                self.factor(depth + 1)
            }
            TokenKind::Number(v) => {
                self.advance();
                Ok(v)
            }
            TokenKind::Ident(name) if name == "pi" => {
                self.advance();
                Ok(PI)
            }
            TokenKind::LParen => {
                self.advance();
                let v = self.expression(depth + 1)?;
                self.expect(&TokenKind::RParen)?;
                Ok(v)
            }
            other => Err(self.error_here(format!(
                "expected a parameter expression, found {}",
                other.describe()
            ))),
        }
    }
}

/// How a QASM mnemonic maps into the IR.
struct GateSpec {
    num_params: usize,
    num_qubits: usize,
    kind: SpecKind,
}

enum SpecKind {
    One(OneQubitKind),
    /// `u2(φ, λ) = U(π/2, φ, λ)`
    U2,
    Two(TwoQubitKind),
}

impl GateSpec {
    fn lookup(name: &str) -> Option<GateSpec> {
        use OneQubitKind as O;
        use TwoQubitKind as T;
        let (num_params, num_qubits, kind) = match name {
            "h" => (0, 1, SpecKind::One(O::H)),
            "x" => (0, 1, SpecKind::One(O::X)),
            "y" => (0, 1, SpecKind::One(O::Y)),
            "z" => (0, 1, SpecKind::One(O::Z)),
            "s" => (0, 1, SpecKind::One(O::S)),
            "sdg" => (0, 1, SpecKind::One(O::Sdg)),
            "t" => (0, 1, SpecKind::One(O::T)),
            "tdg" => (0, 1, SpecKind::One(O::Tdg)),
            "sx" => (0, 1, SpecKind::One(O::Sx)),
            "id" => (0, 1, SpecKind::One(O::I)),
            "rx" => (1, 1, SpecKind::One(O::Rx)),
            "ry" => (1, 1, SpecKind::One(O::Ry)),
            "rz" => (1, 1, SpecKind::One(O::Rz)),
            "u1" | "p" => (1, 1, SpecKind::One(O::P)),
            "u2" => (2, 1, SpecKind::U2),
            "u3" | "u" => (3, 1, SpecKind::One(O::U)),
            "cx" | "CX" => (0, 2, SpecKind::Two(T::Cx)),
            "cz" => (0, 2, SpecKind::Two(T::Cz)),
            "swap" => (0, 2, SpecKind::Two(T::Swap)),
            "cu1" | "cp" => (1, 2, SpecKind::Two(T::Cp)),
            "rzz" => (1, 2, SpecKind::Two(T::Rzz)),
            _ => return None,
        };
        Some(GateSpec {
            num_params,
            num_qubits,
            kind,
        })
    }

    fn build_one(&self, q: Qubit, params: &[f64]) -> Gate {
        match &self.kind {
            SpecKind::One(kind) => {
                let p = match params.len() {
                    0 => Params::EMPTY,
                    1 => Params::one(params[0]),
                    3 => Params::three(params[0], params[1], params[2]),
                    _ => unreachable!("validated arity"),
                };
                Gate::one(*kind, q, p)
            }
            SpecKind::U2 => Gate::one(
                OneQubitKind::U,
                q,
                Params::three(FRAC_PI_2, params[0], params[1]),
            ),
            SpecKind::Two(_) => unreachable!("two-qubit spec used as one-qubit"),
        }
    }

    fn build_two(&self, a: Qubit, b: Qubit, params: &[f64]) -> Gate {
        match &self.kind {
            SpecKind::Two(kind) => {
                let p = match params.len() {
                    0 => Params::EMPTY,
                    1 => Params::one(params[0]),
                    _ => unreachable!("validated arity"),
                };
                Gate::two(*kind, a, b, p)
            }
            _ => unreachable!("one-qubit spec used as two-qubit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn parse_body(body: &str) -> Circuit {
        parse(&format!("{HEADER}{body}")).expect("valid program")
    }

    #[test]
    fn parses_minimal_program() {
        let c = parse_body("qreg q[2];\nh q[0];\ncx q[0], q[1];\n");
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.gates()[1], Gate::cx(Qubit(0), Qubit(1)));
    }

    #[test]
    fn parses_parameter_expressions() {
        let c = parse_body("qreg q[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nu1(3*0.5+1) q[0];\n");
        let angles: Vec<f64> = c.gates().iter().map(|g| g.params().as_slice()[0]).collect();
        assert!((angles[0] - FRAC_PI_2).abs() < 1e-12);
        assert!((angles[1] + PI / 4.0).abs() < 1e-12);
        assert!((angles[2] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn nested_parentheses_in_params() {
        let c = parse_body("qreg q[1];\nrz((pi/(2+2))) q[0];\n");
        assert!((c.gates()[0].params().as_slice()[0] - PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn expression_nesting_is_capped_at_128_levels() {
        for depth in [128, 129] {
            let parens = format!("rz({}pi{}) q[0];", "(".repeat(depth), ")".repeat(depth));
            let signs = format!("rz({}pi) q[0];", "-".repeat(depth));
            for gate in [parens, signs] {
                let result = parse(&format!("{HEADER}qreg q[1];\n{gate}\n"));
                match depth {
                    128 => assert!(result.is_ok(), "{depth}: {result:?}"),
                    _ => assert!(
                        result.unwrap_err().to_string().contains("deeper than 128"),
                        "{depth}"
                    ),
                }
            }
        }
    }

    #[test]
    fn u2_becomes_u_with_half_pi_theta() {
        let c = parse_body("qreg q[1];\nu2(0.1, 0.2) q[0];\n");
        match c.gates()[0] {
            Gate::One { kind, params, .. } => {
                assert_eq!(kind, OneQubitKind::U);
                let p = params.as_slice();
                assert_eq!(p[0], FRAC_PI_2);
                assert_eq!(p[1], 0.1);
                assert_eq!(p[2], 0.2);
            }
            _ => panic!("expected one-qubit gate"),
        }
    }

    #[test]
    fn multiple_registers_flatten_in_order() {
        let c = parse_body("qreg a[2];\nqreg b[3];\nx a[1];\nx b[0];\n");
        assert_eq!(c.num_qubits(), 5);
        assert_eq!(c.gates()[0].qubits().0, Qubit(1));
        assert_eq!(c.gates()[1].qubits().0, Qubit(2));
    }

    #[test]
    fn one_qubit_broadcast() {
        let c = parse_body("qreg q[3];\nh q;\n");
        assert_eq!(c.num_gates(), 3);
        for (i, g) in c.iter().enumerate() {
            assert_eq!(g.qubits().0, Qubit(i as u32));
        }
    }

    #[test]
    fn two_qubit_register_broadcast() {
        let c = parse_body("qreg a[2];\nqreg b[2];\ncx a, b;\n");
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.gates()[0], Gate::cx(Qubit(0), Qubit(2)));
        assert_eq!(c.gates()[1], Gate::cx(Qubit(1), Qubit(3)));
    }

    #[test]
    fn mixed_broadcast_single_and_register() {
        let c = parse_body("qreg a[1];\nqreg b[3];\ncx a[0], b;\n");
        assert_eq!(c.num_gates(), 3);
        for (i, g) in c.iter().enumerate() {
            assert_eq!(g.qubits(), (Qubit(0), Some(Qubit(1 + i as u32))));
        }
    }

    #[test]
    fn broadcast_hitting_same_wire_is_error() {
        // q[0] against the whole of q collides on the (q[0], q[0]) pair.
        let err = parse(&format!("{HEADER}qreg q[3];\ncx q[0], q;\n")).unwrap_err();
        assert!(err.message().contains("same wire"));
    }

    #[test]
    fn measure_and_barrier_are_skipped_and_counted() {
        let program = format!(
            "{HEADER}qreg q[2];\ncreg c[2];\nh q[0];\nbarrier q;\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        );
        let parsed = parse_program(&program).unwrap();
        assert_eq!(parsed.circuit.num_gates(), 1);
        assert_eq!(parsed.skipped_barriers, 1);
        assert_eq!(parsed.skipped_measurements, 2);
        assert_eq!(parsed.quantum_registers, vec![("q".to_string(), 2)]);
    }

    #[test]
    fn error_on_unknown_gate() {
        let err = parse(&format!("{HEADER}qreg q[1];\nfoo q[0];\n")).unwrap_err();
        assert!(err.message().contains("unknown gate `foo`"));
        assert_eq!(err.line(), 4);
    }

    #[test]
    fn error_on_undeclared_register() {
        let err = parse(&format!("{HEADER}h q[0];\n")).unwrap_err();
        assert!(err.message().contains("undeclared"));
    }

    #[test]
    fn error_on_out_of_range_index() {
        let err = parse(&format!("{HEADER}qreg q[2];\nx q[5];\n")).unwrap_err();
        assert!(err.message().contains("out of range"));
    }

    #[test]
    fn error_on_wrong_param_count() {
        let err = parse(&format!("{HEADER}qreg q[1];\nrz q[0];\n")).unwrap_err();
        assert!(err.message().contains("expects 1 parameter"));
    }

    #[test]
    fn error_on_wrong_qubit_count() {
        let err = parse(&format!("{HEADER}qreg q[2];\ncx q[0];\n")).unwrap_err();
        assert!(err.message().contains("expects 2 qubit"));
    }

    #[test]
    fn error_on_same_wire_twice() {
        let err = parse(&format!("{HEADER}qreg q[2];\ncx q[1], q[1];\n")).unwrap_err();
        assert!(err.message().contains("same wire"));
    }

    #[test]
    fn error_on_duplicate_register() {
        let err = parse(&format!("{HEADER}qreg q[2];\nqreg q[3];\n")).unwrap_err();
        assert!(err.message().contains("already declared"));
    }

    #[test]
    fn error_on_missing_header() {
        let err = parse("qreg q[1];\n").unwrap_err();
        assert!(err.message().contains("OPENQASM"));
    }

    #[test]
    fn error_on_wrong_version() {
        let err = parse("OPENQASM 3.0;\n").unwrap_err();
        assert!(err.message().contains("2.0"));
    }

    #[test]
    fn gate_definitions_are_rejected() {
        let err = parse(&format!("{HEADER}gate mygate a, b {{ cx a, b; }}\n")).unwrap_err();
        assert!(err.message().contains("not supported"));
    }

    #[test]
    fn comments_anywhere() {
        let c = parse_body("qreg q[1]; // my register\n// a comment line\nh q[0];\n");
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn all_supported_gates_parse() {
        let body = "qreg q[3];\n\
            h q[0]; x q[0]; y q[0]; z q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];\n\
            sx q[0]; id q[0]; rx(0.1) q[0]; ry(0.2) q[0]; rz(0.3) q[0];\n\
            u1(0.4) q[0]; p(0.5) q[0]; u2(0.6,0.7) q[0]; u3(0.8,0.9,1.0) q[0]; u(1.1,1.2,1.3) q[0];\n\
            cx q[0], q[1]; cz q[1], q[2]; swap q[0], q[2]; cu1(0.5) q[0], q[1];\n\
            cp(0.25) q[1], q[2]; rzz(0.75) q[0], q[1];\n";
        let c = parse_body(body);
        assert_eq!(c.num_gates(), 24);
        assert_eq!(c.num_two_qubit_gates(), 6);
    }
}

use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, PI};

use sabre_circuit::{Circuit, CircuitError, Gate, OneQubitKind, Params, Qubit, TwoQubitKind};

use crate::lexer::{Lexer, Token, TokenKind};
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
    parse_with_gate_budget(source, usize::MAX)
}

/// Parses like [`parse`], but fails as soon as the program would expand
/// to more than `max_gates` gates.
///
/// Register broadcast makes the gate count independent of the source
/// size: the 36 bytes `qreg q[3000000]; h q;` expand to three million
/// gates. This entry point counts gates as they are emitted and fails at
/// the statement that crosses the budget, before building its gates, so
/// a service can bound the work one request buys.
///
/// # Errors
///
/// Same conditions as [`parse`], plus a [`QasmError`] at the first
/// statement whose gates would exceed `max_gates`.
pub fn parse_with_gate_budget(source: &str, max_gates: usize) -> Result<Circuit, QasmError> {
    Parser::run(source, max_gates).map(|p| p.circuit)
}

/// Parses OpenQASM 2.0 source, also reporting skipped non-unitary
/// statements and the register layout.
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn parse_program(source: &str) -> Result<ParsedProgram, QasmError> {
    let parser = Parser::run(source, usize::MAX)?;
    Ok(ParsedProgram {
        quantum_registers: parser
            .registers
            .iter()
            .map(|r| (r.name.to_string(), r.size))
            .collect(),
        circuit: parser.circuit,
        skipped_barriers: parser.skipped_barriers,
        skipped_measurements: parser.skipped_measurements,
    })
}

/// A declared quantum register: its wires are `offset..offset + size`.
struct Register<'a> {
    name: &'a str,
    offset: u32,
    size: u32,
}

/// A gate argument: one wire, or a whole register that the gate is
/// broadcast over.
#[derive(Clone, Copy, Debug)]
enum Arg {
    Single(Qubit),
    /// `(offset, size)` of a register.
    Register(u32, u32),
}

impl Arg {
    /// The wire this argument supplies to the `i`-th broadcast gate.
    fn wire(self, i: u32) -> Qubit {
        match self {
            Arg::Single(q) => q,
            Arg::Register(offset, _) => Qubit(offset + i),
        }
    }

    /// How many gates the argument broadcasts to, if it is a register.
    fn width(self) -> Option<u32> {
        match self {
            Arg::Single(_) => None,
            Arg::Register(_, size) => Some(size),
        }
    }
}

/// Single-pass recursive-descent parser over an on-demand [`Lexer`] with
/// one token of lookahead. Gates go straight into the [`Circuit`].
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token.
    tok: Token<'a>,
    /// Quantum registers in declaration order.
    registers: Vec<Register<'a>>,
    /// Name → index into `registers`.
    register_index: HashMap<&'a str, usize>,
    /// Index of the register named last: bodies name one register over
    /// and over, and this skips the hash.
    last_register: usize,
    circuit: Circuit,
    max_gates: usize,
    skipped_barriers: usize,
    skipped_measurements: usize,
}

impl<'a> Parser<'a> {
    fn run(source: &'a str, max_gates: usize) -> Result<Self, QasmError> {
        let mut lexer = Lexer::new(source);
        let tok = lexer.next_token()?;
        let mut parser = Parser {
            lexer,
            tok,
            registers: Vec::new(),
            register_index: HashMap::new(),
            last_register: 0,
            circuit: Circuit::new(0),
            max_gates,
            skipped_barriers: 0,
            skipped_measurements: 0,
        };
        match parser.program() {
            Ok(()) => Ok(parser),
            // A lexical error anywhere in the source is reported ahead of
            // a syntax error before it.
            Err(e) => Err(parser.lexer.first_error_in_rest().unwrap_or(e)),
        }
    }

    /// Consumes the lookahead token and lexes the next one.
    #[inline]
    fn advance(&mut self) -> Result<(), QasmError> {
        self.tok = self.lexer.next_token()?;
        Ok(())
    }

    fn error_at(tok: Token<'_>, message: impl Into<String>) -> QasmError {
        QasmError::new(tok.line, tok.column, message)
    }

    fn error_here(&self, message: impl Into<String>) -> QasmError {
        Self::error_at(self.tok, message)
    }

    #[inline]
    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), QasmError> {
        if self.tok.kind == kind {
            self.advance()
        } else {
            Err(self.error_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.tok.kind.describe()
            )))
        }
    }

    #[inline]
    fn expect_ident(&mut self) -> Result<&'a str, QasmError> {
        match self.tok.kind {
            TokenKind::Ident(name) => {
                self.advance()?;
                Ok(name)
            }
            other => {
                Err(self.error_here(format!("expected identifier, found {}", other.describe())))
            }
        }
    }

    /// An index or register size: an integer literal, or a real one with
    /// an integral value (`q[1.0]`).
    fn expect_uint(&mut self) -> Result<u32, QasmError> {
        let value = match self.tok.kind {
            TokenKind::Int(v) => u32::try_from(v).ok(),
            TokenKind::Real(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
                Some(v as u32)
            }
            _ => None,
        };
        match value {
            Some(v) => {
                self.advance()?;
                Ok(v)
            }
            None => Err(self.error_here("expected a non-negative integer")),
        }
    }

    /// `[` uint `]` `;` — the tail of a `qreg` or `creg` declaration.
    fn register_size(&mut self) -> Result<u32, QasmError> {
        self.expect(TokenKind::LBracket)?;
        let size = self.expect_uint()?;
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Semicolon)?;
        Ok(size)
    }

    fn program(&mut self) -> Result<(), QasmError> {
        // Header: OPENQASM 2.0;
        self.expect(TokenKind::OpenQasm)?;
        let version_2 = match self.tok.kind {
            TokenKind::Int(v) => v == 2,
            TokenKind::Real(v) => v == 2.0,
            _ => false,
        };
        if !version_2 {
            return Err(self.error_here("only OPENQASM 2.0 is supported"));
        }
        self.advance()?;
        self.expect(TokenKind::Semicolon)?;

        while self.tok.kind != TokenKind::Eof {
            self.statement()?;
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<(), QasmError> {
        let tok = self.tok;
        let TokenKind::Ident(name) = tok.kind else {
            return Err(self.error_here(format!(
                "expected a statement, found {}",
                tok.kind.describe()
            )));
        };
        self.advance()?;
        match name {
            "include" => {
                // include "<file>"; — the only include benchmarks use is
                // qelib1.inc, whose gates are built in; contents ignored.
                if !matches!(self.tok.kind, TokenKind::Str(_)) {
                    return Err(self.error_here("expected file name string after `include`"));
                }
                self.advance()?;
                self.expect(TokenKind::Semicolon)
            }
            "qreg" => {
                let reg = self.expect_ident()?;
                let size = self.register_size()?;
                self.declare(reg, size, tok)
            }
            "creg" => {
                // Classical registers only feed `measure`, which is
                // skipped, so nothing about them is kept.
                self.expect_ident()?;
                self.register_size()?;
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
            "gate" | "opaque" => Err(Self::error_at(
                tok,
                "custom gate definitions are not supported; inline the body",
            )),
            "if" | "reset" => Err(Self::error_at(
                tok,
                format!("`{name}` statements are not supported"),
            )),
            _ => self.gate_application(name, tok),
        }
    }

    /// Appends a quantum register's wires after those declared so far.
    fn declare(&mut self, name: &'a str, size: u32, tok: Token<'_>) -> Result<(), QasmError> {
        if self.register_index.contains_key(name) {
            return Err(Self::error_at(
                tok,
                format!("quantum register `{name}` already declared"),
            ));
        }
        let offset = self.circuit.num_qubits();
        let num_qubits = offset.checked_add(size).ok_or_else(|| {
            Self::error_at(
                tok,
                format!("quantum registers exceed {} qubits in total", u32::MAX),
            )
        })?;
        self.register_index.insert(name, self.registers.len());
        self.registers.push(Register { name, offset, size });
        // Widening in place keeps a late `qreg` from copying the gates
        // parsed so far, which would make interleaved `qreg`s quadratic.
        self.circuit.widen(num_qubits);
        Ok(())
    }

    fn skip_to_semicolon(&mut self) -> Result<(), QasmError> {
        while self.tok.kind != TokenKind::Semicolon {
            if self.tok.kind == TokenKind::Eof {
                return Err(self.error_here("unexpected end of input; missing `;`"));
            }
            self.advance()?;
        }
        self.advance()?; // consume `;`
        Ok(())
    }

    fn gate_application(&mut self, name: &str, tok: Token<'_>) -> Result<(), QasmError> {
        let spec = GateSpec::lookup(name)
            .ok_or_else(|| Self::error_at(tok, format!("unknown gate `{name}`")))?;

        // Optional parameter list. No gate takes more than three, so
        // surplus values are counted for the error but not kept.
        let mut params = [0.0; 3];
        let mut num_params = 0;
        if self.tok.kind == TokenKind::LParen {
            self.advance()?;
            if self.tok.kind != TokenKind::RParen {
                loop {
                    let value = self.expression(0)?;
                    if let Some(slot) = params.get_mut(num_params) {
                        *slot = value;
                    }
                    num_params += 1;
                    if self.tok.kind != TokenKind::Comma {
                        break;
                    }
                    self.advance()?;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        if num_params != spec.num_params {
            return Err(Self::error_at(
                tok,
                format!(
                    "gate `{name}` expects {} parameter(s), got {num_params}",
                    spec.num_params
                ),
            ));
        }

        // Argument list: likewise at most two are kept, but every one is
        // resolved, so an undeclared surplus register is still reported.
        let mut args = [Arg::Single(Qubit(0)); 2];
        let mut num_args = 0;
        loop {
            let arg = self.argument()?;
            if let Some(slot) = args.get_mut(num_args) {
                *slot = arg;
            }
            num_args += 1;
            if self.tok.kind != TokenKind::Comma {
                break;
            }
            self.advance()?;
        }
        self.expect(TokenKind::Semicolon)?;
        if num_args != spec.num_qubits {
            return Err(Self::error_at(
                tok,
                format!(
                    "gate `{name}` expects {} qubit argument(s), got {num_args}",
                    spec.num_qubits
                ),
            ));
        }

        self.emit(&spec, &params[..num_params], &args[..num_args], tok)
    }

    fn argument(&mut self) -> Result<Arg, QasmError> {
        let tok = self.tok;
        let TokenKind::Ident(reg) = tok.kind else {
            return Err(self.error_here(format!(
                "expected identifier, found {}",
                tok.kind.describe()
            )));
        };
        let (offset, size) = self
            .register(reg)
            .ok_or_else(|| Self::error_at(tok, format!("undeclared quantum register `{reg}`")))?;
        let index = match self.lexer.index_suffix() {
            Some(index) => {
                self.advance()?;
                index
            }
            None => {
                self.advance()?;
                if self.tok.kind != TokenKind::LBracket {
                    return Ok(Arg::Register(offset, size));
                }
                self.advance()?;
                let index = self.expect_uint()?;
                self.expect(TokenKind::RBracket)?;
                index
            }
        };
        if index >= size {
            return Err(Self::error_at(
                tok,
                format!("index {index} out of range for `{reg}[{size}]`"),
            ));
        }
        Ok(Arg::Single(Qubit(offset + index)))
    }

    /// `(offset, size)` of the register called `name`.
    fn register(&mut self, name: &str) -> Option<(u32, u32)> {
        let hit = match self.registers.get(self.last_register) {
            Some(r) if r.name == name => self.last_register,
            _ => *self.register_index.get(name)?,
        };
        self.last_register = hit;
        let r = &self.registers[hit];
        Some((r.offset, r.size))
    }

    /// Pushes the statement's gates: one, or one per wire of the
    /// broadcast register(s), checked against the gate budget first.
    fn emit(
        &mut self,
        spec: &GateSpec,
        params: &[f64],
        args: &[Arg],
        tok: Token<'_>,
    ) -> Result<(), QasmError> {
        let count = match *args {
            [a] => a.width().unwrap_or(1),
            [a, b] => match (a.width(), b.width()) {
                (Some(sa), Some(sb)) if sa != sb => {
                    return Err(Self::error_at(
                        tok,
                        format!("register size mismatch in broadcast: {sa} vs {sb}"),
                    ));
                }
                (Some(n), _) | (None, Some(n)) => n,
                (None, None) => 1,
            },
            _ => unreachable!("gate arity validated before emit"),
        };
        let room = self.max_gates - self.circuit.num_gates();
        if count as usize > room {
            return Err(Self::error_at(
                tok,
                format!("circuit exceeds {} gates", self.max_gates),
            ));
        }
        for i in 0..count {
            let gate = match *args {
                [a] => spec.build_one(a.wire(i), params),
                [a, b] => spec.build_two(a.wire(i), b.wire(i), params),
                _ => unreachable!("gate arity validated before emit"),
            };
            // `try_push` is the one validity check a gate gets.
            self.circuit.try_push(gate).map_err(|e| {
                let message = match e {
                    CircuitError::DuplicateOperands { .. } => {
                        "two-qubit gate applied to the same wire twice".to_string()
                    }
                    other => other.to_string(),
                };
                Self::error_at(tok, message)
            })?;
        }
        Ok(())
    }

    /// expr := term (('+'|'-') term)*
    ///
    /// `depth` counts the open parentheses and unary signs enclosing this
    /// expression; see [`MAX_EXPRESSION_DEPTH`].
    fn expression(&mut self, depth: usize) -> Result<f64, QasmError> {
        let mut value = self.term(depth)?;
        loop {
            match self.tok.kind {
                TokenKind::Plus => {
                    self.advance()?;
                    value += self.term(depth)?;
                }
                TokenKind::Minus => {
                    self.advance()?;
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
            match self.tok.kind {
                TokenKind::Star => {
                    self.advance()?;
                    value *= self.factor(depth)?;
                }
                TokenKind::Slash => {
                    self.advance()?;
                    value /= self.factor(depth)?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// factor := ('-'|'+') factor | number | 'pi' | '(' expr ')'
    fn factor(&mut self, depth: usize) -> Result<f64, QasmError> {
        let kind = self.tok.kind;
        if matches!(kind, TokenKind::Minus | TokenKind::Plus | TokenKind::LParen)
            && depth >= MAX_EXPRESSION_DEPTH
        {
            return Err(self.error_here(format!(
                "parameter expression nested deeper than {MAX_EXPRESSION_DEPTH} levels"
            )));
        }
        let value = match kind {
            TokenKind::Minus => {
                self.advance()?;
                return Ok(-self.factor(depth + 1)?);
            }
            TokenKind::Plus => {
                self.advance()?;
                return self.factor(depth + 1);
            }
            TokenKind::LParen => {
                self.advance()?;
                let v = self.expression(depth + 1)?;
                self.expect(TokenKind::RParen)?;
                return Ok(v);
            }
            TokenKind::Int(v) => v as f64,
            TokenKind::Real(v) => v,
            TokenKind::Ident("pi") => PI,
            other => {
                return Err(self.error_here(format!(
                    "expected a parameter expression, found {}",
                    other.describe()
                )))
            }
        };
        self.advance()?;
        Ok(value)
    }
}

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

    /// Builds the gate even when `a == b`, unlike [`Gate::two`], so that
    /// [`Circuit::try_push`] is what rejects it.
    fn build_two(&self, a: Qubit, b: Qubit, params: &[f64]) -> Gate {
        match &self.kind {
            SpecKind::Two(kind) => {
                let params = match params.len() {
                    0 => Params::EMPTY,
                    1 => Params::one(params[0]),
                    _ => unreachable!("validated arity"),
                };
                Gate::Two {
                    kind: *kind,
                    a,
                    b,
                    params,
                }
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

    #[test]
    fn gate_budget_fails_at_the_statement_that_crosses_it() {
        let src = format!("{HEADER}qreg q[4];\nh q[0];\nx q[1];\ncx q[0], q[1];\n");
        assert_eq!(parse_with_gate_budget(&src, 3).unwrap().num_gates(), 3);
        let err = parse_with_gate_budget(&src, 2).unwrap_err();
        assert_eq!((err.line(), err.column()), (6, 1));
        assert_eq!(err.message(), "circuit exceeds 2 gates");
        assert_eq!(parse(&src).unwrap().num_gates(), 3);
    }

    #[test]
    fn gate_budget_stops_a_broadcast_before_building_it() {
        // One short statement that would otherwise build 3,000,000 gates.
        let src = format!("{HEADER}qreg q[3000000]; h q;\n");
        let err = parse_with_gate_budget(&src, 1_000_000).unwrap_err();
        assert_eq!((err.line(), err.column()), (3, 18));
        assert_eq!(err.message(), "circuit exceeds 1000000 gates");
        let pairs = format!("{HEADER}qreg a[3];\nqreg b[3];\nh a[0];\ncx a, b;\n");
        assert_eq!(parse_with_gate_budget(&pairs, 4).unwrap().num_gates(), 4);
        let err = parse_with_gate_budget(&pairs, 3).unwrap_err();
        assert_eq!(err.line(), 6);
    }

    #[test]
    fn register_widths_are_summed_without_wrapping() {
        let err = parse(&format!("{HEADER}qreg q[4294967295];\nqreg r[1];\n")).unwrap_err();
        assert_eq!((err.line(), err.column()), (4, 1));
        assert!(err.message().contains("exceed 4294967295 qubits"));
        let c = parse(&format!(
            "{HEADER}qreg q[4294967294];\nqreg r[1];\nx r[0];\n"
        ))
        .unwrap();
        assert_eq!(c.num_qubits(), u32::MAX);
        assert_eq!(c.gates()[0].qubits().0, Qubit(u32::MAX - 1));
    }

    #[test]
    fn late_register_widens_earlier_gates() {
        let parsed = parse_program(&format!(
            "{HEADER}qreg a[2];\ncx a[0], a[1];\nqreg b[1];\nh b[0];\n"
        ))
        .unwrap();
        assert_eq!(parsed.circuit.num_qubits(), 3);
        assert_eq!(parsed.circuit.gates()[0], Gate::cx(Qubit(0), Qubit(1)));
        assert_eq!(parsed.circuit.gates()[1].qubits().0, Qubit(2));
        assert_eq!(
            parsed.quantum_registers,
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
    }

    #[test]
    fn interleaved_late_registers_keep_every_gate() {
        // Copying the gates parsed so far at each late `qreg` would cost
        // ~10⁹ gate copies on this body; widening in place costs none.
        let late = 5_000;
        let mut body = String::from("qreg q[200000];\nh q;\n");
        for i in 0..late {
            body.push_str(&format!("qreg a{i}[1];\nx a{i}[0];\n"));
        }
        let parsed = parse_program(&format!("{HEADER}{body}")).unwrap();
        assert_eq!(parsed.circuit.num_qubits(), 200_000 + late);
        assert_eq!(parsed.circuit.num_gates(), 200_000 + late as usize);
        assert_eq!(parsed.quantum_registers.len(), 1 + late as usize);
        let last = parsed.circuit.gates().last().unwrap();
        assert_eq!(last.qubits().0, Qubit(200_000 + late - 1));
    }

    #[test]
    fn fast_and_token_paths_agree() {
        // Each pair differs only in spacing or literal form, which moves
        // the index off the one-scan path and onto the tokens.
        let pairs = [
            ("rz(0.25) q[1];", "rz( 0.25 ) q [ 1 ];"),
            ("rz(-0.25) q[1];", "rz(-(0.25)) q[1.0];"),
            ("rz(-1e-3) q[01];", "rz(- 1e-3) q[1e0];"),
            ("rz(7) q[1];", "rz(7.0) q[ 1];"),
            ("cp(-.5) q[0], q[1];", "cp(0 - .5) q[0] , q[1] ;"),
        ];
        for (fast, tokens) in pairs {
            let fast = parse_body(&format!("qreg q[2];\n{fast}\n"));
            let tokens = parse_body(&format!("qreg q[2];\n{tokens}\n"));
            assert_eq!(fast, tokens);
        }
    }
}

use std::fmt::Write as _;

use sabre_circuit::{Circuit, Gate};

/// Serializes a circuit to OpenQASM 2.0 text with a single register `q`.
///
/// The output round-trips: `parse(&to_qasm(&c))` reconstructs `c` exactly
/// (floating-point parameters are printed with Rust's shortest-round-trip
/// formatting).
///
/// # Example
///
/// ```
/// use sabre_circuit::{Circuit, Qubit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.cx(Qubit(0), Qubit(1));
/// let text = sabre_qasm::to_qasm(&c);
/// assert!(text.contains("cx q[0], q[1];"));
/// assert_eq!(sabre_qasm::parse(&text).unwrap(), c);
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::with_capacity(estimated_len(circuit));
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    if !circuit.name().is_empty() {
        out.push_str("// circuit: ");
        out.push_str(circuit.name());
        out.push('\n');
    }
    out.push_str("qreg q[");
    push_u32(&mut out, circuit.num_qubits());
    out.push_str("];\n");
    for gate in circuit {
        match gate {
            Gate::One {
                kind,
                qubit,
                params,
            } => {
                out.push_str(kind.mnemonic());
                write_params(&mut out, params.as_slice());
                out.push_str(" q[");
                push_u32(&mut out, qubit.0);
                out.push_str("];\n");
            }
            Gate::Two { kind, a, b, params } => {
                out.push_str(kind.mnemonic());
                write_params(&mut out, params.as_slice());
                out.push_str(" q[");
                push_u32(&mut out, a.0);
                out.push_str("], q[");
                push_u32(&mut out, b.0);
                out.push_str("];\n");
            }
        }
    }
    out
}

/// An estimate of the text's length, so the output is usually allocated
/// once. The fixed parts are bounded from above (a gate is at most a
/// 4-byte mnemonic plus ` q[…], q[…];\n` around two wire indices); each
/// angle counts 22 bytes, about a full-precision angle and its separator.
fn estimated_len(circuit: &Circuit) -> usize {
    let digits = circuit.num_qubits().checked_ilog10().unwrap_or(0) as usize + 1;
    let params: usize = circuit.iter().map(|g| g.params().len()).sum();
    64 + circuit.name().len() + circuit.num_gates() * (15 + 2 * digits) + params * 22
}

/// Appends `v` in decimal without going through `fmt`.
fn push_u32(out: &mut String, v: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    let mut rest = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

fn write_params(out: &mut String, params: &[f64]) {
    if params.is_empty() {
        return;
    }
    out.push('(');
    for (i, v) in params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on f64 produces the shortest string that parses back to the
        // same bits, so the round-trip is exact. Negative values need no
        // special casing: the parser accepts unary minus.
        let _ = write!(out, "{v}");
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use sabre_circuit::{OneQubitKind, Params, Qubit, TwoQubitKind};

    #[test]
    fn header_and_register() {
        let c = Circuit::new(4);
        let text = to_qasm(&c);
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[4];"));
    }

    #[test]
    fn name_becomes_comment() {
        let c = Circuit::with_name(1, "qft_10");
        assert!(to_qasm(&c).contains("// circuit: qft_10"));
    }

    #[test]
    fn round_trip_parameter_free_gates() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.x(Qubit(1));
        c.cx(Qubit(0), Qubit(2));
        c.swap(Qubit(1), Qubit(2));
        assert_eq!(parse(&to_qasm(&c)).unwrap(), c);
    }

    #[test]
    fn round_trip_parameters_exactly() {
        let mut c = Circuit::new(2);
        c.rz(Qubit(0), 0.1 + 0.2); // a value with float noise
        c.rx(Qubit(1), -std::f64::consts::PI);
        c.push(Gate::one(
            OneQubitKind::U,
            Qubit(0),
            Params::three(1e-300, -2.5, std::f64::consts::PI),
        ));
        c.push(Gate::two(
            TwoQubitKind::Cp,
            Qubit(0),
            Qubit(1),
            Params::one(f64::consts_hack()),
        ));
        assert_eq!(parse(&to_qasm(&c)).unwrap(), c);
    }

    // Small helper to get an awkward float without extra deps.
    trait ConstsHack {
        fn consts_hack() -> f64;
    }
    impl ConstsHack for f64 {
        fn consts_hack() -> f64 {
            0.30000000000000004
        }
    }

    #[test]
    fn swap_survives_round_trip_as_swap() {
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        let text = to_qasm(&c);
        assert!(text.contains("swap q[0], q[1];"));
        assert_eq!(parse(&text).unwrap().num_swaps(), 1);
    }

    #[test]
    fn integers_print_in_decimal() {
        for v in [0, 7, 10, 99, 100, 4_294_967_295] {
            let mut out = String::new();
            push_u32(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn empty_circuit_round_trips() {
        let c = Circuit::new(5);
        assert_eq!(parse(&to_qasm(&c)).unwrap(), c);
    }
}

use std::error::Error;
use std::fmt;

/// Error produced while lexing or parsing OpenQASM source.
///
/// Carries the 1-based source line and column where the problem was found.
#[derive(Clone, PartialEq, Eq)]
pub struct QasmError(
    // Boxed so that the parser's `Result`s stay one pointer wide on the
    // success path, which is every token of a valid program.
    Box<Located>,
);

#[derive(Clone, Debug, PartialEq, Eq)]
struct Located {
    line: u32,
    column: u32,
    message: String,
}

impl QasmError {
    pub(crate) fn new(line: u32, column: u32, message: impl Into<String>) -> Self {
        QasmError(Box::new(Located {
            line,
            column,
            message: message.into(),
        }))
    }

    /// 1-based line of the offending token.
    pub fn line(&self) -> u32 {
        self.0.line
    }

    /// 1-based column of the offending token.
    pub fn column(&self) -> u32 {
        self.0.column
    }

    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.0.message
    }
}

impl fmt::Debug for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QasmError")
            .field("line", &self.0.line)
            .field("column", &self.0.column)
            .field("message", &self.0.message)
            .finish()
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line(), self.column(), self.message())
    }
}

impl Error for QasmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = QasmError::new(3, 14, "unexpected token `]`");
        assert_eq!(e.to_string(), "3:14: unexpected token `]`");
        assert_eq!(e.line(), 3);
        assert_eq!(e.column(), 14);
        assert_eq!(e.message(), "unexpected token `]`");
    }

    #[test]
    fn debug_lists_position_and_message() {
        let e = QasmError::new(2, 5, "bad");
        assert_eq!(
            format!("{e:?}"),
            "QasmError { line: 2, column: 5, message: \"bad\" }"
        );
        assert_eq!(std::mem::size_of::<Result<f64, QasmError>>(), 16);
    }

    #[test]
    fn implements_error_send_sync() {
        fn check<E: Error + Send + Sync + 'static>(_: E) {}
        check(QasmError::new(1, 1, "x"));
    }
}

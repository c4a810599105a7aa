//! Error type for the query engine.

use dbwipes_storage::StorageError;
use std::fmt;

/// Errors produced while parsing, planning or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The SQL text could not be tokenized or parsed.
    Parse {
        /// Human-readable description of the problem.
        message: String,
        /// Byte offset in the input where the problem was detected.
        position: usize,
    },
    /// The query is syntactically valid but not supported or not well formed
    /// (e.g. a non-aggregated column that is not in GROUP BY).
    Plan(String),
    /// An error bubbled up from the storage layer.
    Storage(StorageError),
    /// An expression nests deeper than the parser accepts (see
    /// [`MAX_EXPR_DEPTH`](crate::parser::MAX_EXPR_DEPTH)).
    TooDeep {
        /// The depth bound that was exceeded.
        limit: usize,
        /// Byte offset in the input where the bound was crossed.
        position: usize,
    },
}

impl EngineError {
    /// Convenience constructor for parse errors.
    pub fn parse(message: impl Into<String>, position: usize) -> Self {
        EngineError::Parse { message: message.into(), position }
    }

    /// Convenience constructor for planning errors.
    pub fn plan(message: impl Into<String>) -> Self {
        EngineError::Plan(message.into())
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            EngineError::Plan(msg) => write!(f, "planning error: {msg}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::TooDeep { limit, position } => {
                write!(f, "expression nests deeper than {limit} levels at byte {position}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = EngineError::parse("unexpected token", 12);
        assert!(e.to_string().contains("byte 12"));
        let e = EngineError::plan("no aggregates");
        assert!(e.to_string().contains("planning"));
        let e: EngineError = StorageError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&EngineError::plan("x")).is_none());
    }
}

//! Error type for XML lexing and tree construction.

use std::fmt;

/// Errors produced while tokenizing or building XML.
///
/// Every variant carries the byte offset in the input stream at which the
/// problem was detected, so callers can point at the offending input.
#[derive(Debug)]
pub enum XmlError {
    /// Underlying I/O failure while reading the stream.
    Io(std::io::Error),
    /// The stream ended in the middle of a construct (tag, comment, …).
    UnexpectedEof { offset: u64, context: &'static str },
    /// A closing tag did not match the innermost open element.
    MismatchedClose {
        offset: u64,
        expected: String,
        found: String,
    },
    /// A closing tag appeared with no element open.
    UnbalancedClose { offset: u64, tag: String },
    /// The document ended while elements were still open.
    UnclosedElements { offset: u64, open: usize },
    /// Malformed syntax (bad tag name, broken entity, stray `<`, …).
    Malformed { offset: u64, detail: String },
    /// More than one top-level element, or text at top level.
    TrailingContent { offset: u64 },
}

impl XmlError {
    /// True when lexing stopped only because a non-blocking input has no
    /// bytes available right now. The lexer has rewound to the previous
    /// construct boundary: retry the same call once more input arrives
    /// and the token stream continues exactly as if it had never blocked.
    pub fn is_would_block(&self) -> bool {
        matches!(self, XmlError::Io(e) if e.kind() == std::io::ErrorKind::WouldBlock)
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Io(e) => write!(f, "I/O error: {e}"),
            XmlError::UnexpectedEof { offset, context } => {
                write!(
                    f,
                    "unexpected end of input at byte {offset} while reading {context}"
                )
            }
            XmlError::MismatchedClose {
                offset,
                expected,
                found,
            } => write!(
                f,
                "mismatched closing tag </{found}> at byte {offset}, expected </{expected}>"
            ),
            XmlError::UnbalancedClose { offset, tag } => {
                write!(
                    f,
                    "closing tag </{tag}> at byte {offset} with no open element"
                )
            }
            XmlError::UnclosedElements { offset, open } => {
                write!(
                    f,
                    "input ended at byte {offset} with {open} unclosed element(s)"
                )
            }
            XmlError::Malformed { offset, detail } => {
                write!(f, "malformed XML at byte {offset}: {detail}")
            }
            XmlError::TrailingContent { offset } => {
                write!(f, "content after the document element at byte {offset}")
            }
        }
    }
}

impl std::error::Error for XmlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XmlError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for XmlError {
    fn from(e: std::io::Error) -> Self {
        XmlError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = XmlError::MismatchedClose {
            offset: 42,
            expected: "a".into(),
            found: "b".into(),
        };
        let s = e.to_string();
        assert!(s.contains("</b>"));
        assert!(s.contains("</a>"));
        assert!(s.contains("42"));
    }

    #[test]
    fn io_error_wraps_source() {
        let e: XmlError = std::io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn eof_mentions_context() {
        let e = XmlError::UnexpectedEof {
            offset: 7,
            context: "comment",
        };
        assert!(e.to_string().contains("comment"));
    }
}

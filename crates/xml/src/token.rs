//! The stream event model: XML documents as streams of opening tags,
//! closing tags and character data (paper §2).

use crate::tags::{TagId, TagInterner};
use std::fmt;

/// One event of an XML stream.
///
/// The depth-first left-to-right traversal of a document tree in document
/// order yields the corresponding token stream, and a well-formed token
/// stream encodes an unranked labeled tree (paper §2). Bachelor tags
/// (`<title/>`) are delivered as an [`XmlToken::Open`] immediately followed
/// by an [`XmlToken::Close`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlToken {
    /// `<tag>` — the opening tag of an element.
    Open(TagId),
    /// `</tag>` — the closing tag of an element.
    Close(TagId),
    /// Character data between tags (entity references already resolved).
    Text(String),
}

impl XmlToken {
    /// True for [`XmlToken::Text`].
    pub fn is_text(&self) -> bool {
        matches!(self, XmlToken::Text(_))
    }

    /// Renders the token with tag names resolved, for traces and tests.
    pub fn display<'a>(&'a self, tags: &'a TagInterner) -> TokenDisplay<'a> {
        TokenDisplay { token: self, tags }
    }

    /// Approximate in-memory size of the token payload in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            XmlToken::Open(_) | XmlToken::Close(_) => 4,
            XmlToken::Text(s) => s.len(),
        }
    }
}

/// A borrowed stream event, the zero-allocation dual of [`XmlToken`].
///
/// [`crate::XmlLexer::next_event`] hands text out as a `&str` into the
/// lexer's internal scratch buffer — valid until the next lexer call — so
/// the per-event hot path (lexer → projector → buffer) never materializes
/// an owned `String`. Convert with [`XmlEvent::into_owned`] when the event
/// must outlive the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// `<tag>` — the opening tag of an element.
    Open(TagId),
    /// `</tag>` — the closing tag of an element.
    Close(TagId),
    /// Character data borrowed from the lexer's scratch buffer.
    Text(&'a str),
}

impl XmlEvent<'_> {
    /// Copies the event into an owned [`XmlToken`].
    pub fn into_owned(self) -> XmlToken {
        match self {
            XmlEvent::Open(t) => XmlToken::Open(t),
            XmlEvent::Close(t) => XmlToken::Close(t),
            XmlEvent::Text(s) => XmlToken::Text(s.to_string()),
        }
    }
}

/// Helper returned by [`XmlToken::display`].
pub struct TokenDisplay<'a> {
    token: &'a XmlToken,
    tags: &'a TagInterner,
}

impl fmt::Display for TokenDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.token {
            XmlToken::Open(t) => write!(f, "<{}>", self.tags.name(*t)),
            XmlToken::Close(t) => write!(f, "</{}>", self.tags.name(*t)),
            XmlToken::Text(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        assert!(XmlToken::Text("x".into()).is_text());
        assert!(!XmlToken::Open(a).is_text());
    }

    #[test]
    fn display_resolves_names() {
        let mut tags = TagInterner::new();
        let a = tags.intern("bib");
        assert_eq!(XmlToken::Open(a).display(&tags).to_string(), "<bib>");
        assert_eq!(XmlToken::Close(a).display(&tags).to_string(), "</bib>");
        assert_eq!(
            XmlToken::Text("hi".into()).display(&tags).to_string(),
            "\"hi\""
        );
    }

    #[test]
    fn approx_bytes_counts_text() {
        assert_eq!(XmlToken::Text("abcd".into()).approx_bytes(), 4);
    }
}

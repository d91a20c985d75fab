//! The stream event model: XML documents as streams of opening tags,
//! closing tags and character data (paper §2).

use crate::tags::TagId;

/// One event of an XML stream, borrowed.
///
/// The depth-first left-to-right traversal of a document tree in document
/// order yields the corresponding event stream, and a well-formed stream
/// encodes an unranked labeled tree (paper §2). Bachelor tags
/// (`<title/>`) are delivered as an [`XmlEvent::Open`] immediately
/// followed by an [`XmlEvent::Close`].
///
/// [`crate::XmlLexer::next_event`] hands text out as a `&str` into the
/// lexer's internal scratch buffer — valid until the next lexer call — so
/// the per-event hot path (lexer → projector → buffer) never materializes
/// an owned `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// `<tag>` — the opening tag of an element.
    Open(TagId),
    /// `</tag>` — the closing tag of an element.
    Close(TagId),
    /// Character data borrowed from the lexer's scratch buffer.
    Text(&'a str),
}

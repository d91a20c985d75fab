// Owned-token test support over the borrowed event API.
//
// The token-stream oracles compare whole streams of owned `XmlToken`s;
// the product lexer only hands out borrowed `XmlEvent`s and the writer
// only takes `open`/`close`/`text` calls. Spliced in with `include!` by
// the tests that need it; the includer brings `XmlLexer`, `XmlEvent`,
// `XmlError`, `XmlWriter`, `TagId` and `TagInterner` into scope.

/// One event of an XML stream, owned. Bachelor tags (`<title/>`) are an
/// `Open` immediately followed by a `Close`.
#[allow(dead_code)]
#[derive(Debug, Clone, PartialEq, Eq)]
enum XmlToken {
    /// `<tag>` — the opening tag of an element.
    Open(TagId),
    /// `</tag>` — the closing tag of an element.
    Close(TagId),
    /// Character data between tags (entity references already resolved).
    Text(String),
}

#[allow(dead_code)]
impl XmlToken {
    /// Copies a borrowed event.
    fn from_event(event: XmlEvent<'_>) -> Self {
        match event {
            XmlEvent::Open(t) => XmlToken::Open(t),
            XmlEvent::Close(t) => XmlToken::Close(t),
            XmlEvent::Text(s) => XmlToken::Text(s.to_string()),
        }
    }

    /// Renders the token with tag names resolved.
    fn display(&self, tags: &TagInterner) -> String {
        match self {
            XmlToken::Open(t) => format!("<{}>", tags.name(*t)),
            XmlToken::Close(t) => format!("</{}>", tags.name(*t)),
            XmlToken::Text(s) => format!("{s:?}"),
        }
    }
}

/// Serializes tokens through the product writer.
#[allow(dead_code)]
fn tokens_to_string(tokens: &[XmlToken], tags: &TagInterner) -> String {
    let mut out = Vec::new();
    let mut w = XmlWriter::new(&mut out);
    for t in tokens {
        match t {
            XmlToken::Open(tag) => w.open(*tag, tags),
            XmlToken::Close(tag) => w.close(*tag, tags),
            XmlToken::Text(s) => w.text(s),
        }
        .expect("vec write");
    }
    String::from_utf8(out).expect("writer output is UTF-8")
}

/// The owned-token view of `XmlLexer::next_event`.
#[allow(dead_code)]
trait TokenStream {
    /// The next event as an owned token, `None` at the end of the document.
    fn next_token(&mut self) -> std::result::Result<Option<XmlToken>, XmlError>;
    /// Drains the remaining stream into a vector.
    fn tokenize_all(&mut self) -> std::result::Result<Vec<XmlToken>, XmlError>;
}

impl<R: std::io::Read, T: std::borrow::BorrowMut<TagInterner>> TokenStream for XmlLexer<R, T> {
    fn next_token(&mut self) -> std::result::Result<Option<XmlToken>, XmlError> {
        Ok(self.next_event()?.map(XmlToken::from_event))
    }

    fn tokenize_all(&mut self) -> std::result::Result<Vec<XmlToken>, XmlError> {
        let mut tokens = Vec::new();
        while let Some(token) = self.next_token()? {
            tokens.push(token);
        }
        Ok(tokens)
    }
}

// Owned-token test support over the borrowed event API.
//
// The token-stream oracles compare whole streams of owned `XmlToken`s;
// the product lexer only hands out borrowed `XmlEvent`s. Spliced in with
// `include!` by the tests that need it; the includer brings `XmlLexer`,
// `XmlToken` and `XmlError` into scope.

/// The owned-token view of `XmlLexer::next_event`.
#[allow(dead_code)]
trait TokenStream {
    /// The next event as an owned token, `None` at the end of the document.
    fn next_token(&mut self) -> std::result::Result<Option<XmlToken>, XmlError>;
    /// Drains the remaining stream into a vector.
    fn tokenize_all(&mut self) -> std::result::Result<Vec<XmlToken>, XmlError>;
}

impl<R: std::io::Read> TokenStream for XmlLexer<'_, R> {
    fn next_token(&mut self) -> std::result::Result<Option<XmlToken>, XmlError> {
        Ok(self.next_event()?.map(|event| event.into_owned()))
    }

    fn tokenize_all(&mut self) -> std::result::Result<Vec<XmlToken>, XmlError> {
        let mut tokens = Vec::new();
        while let Some(token) = self.next_token()? {
            tokens.push(token);
        }
        Ok(tokens)
    }
}

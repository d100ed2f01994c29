//! A forgiving HTML tokenizer.
//!
//! The tokenizer turns raw markup into a flat stream of [`Token`]s. It
//! never fails: malformed input degrades into text tokens, mirroring how
//! browsers cope with the broken markup that is endemic on the kind of
//! low-quality sites found on traffic exchanges.

use crate::escape::decode_entities;

/// A single lexical unit of an HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An opening tag such as `<iframe src="...">`. Attribute names are
    /// lower-cased; values are entity-decoded.
    StartTag {
        /// Lower-cased tag name.
        name: String,
        /// Attributes in source order. Duplicate names are preserved.
        attrs: Vec<(String, String)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// A closing tag such as `</iframe>`.
    EndTag {
        /// Lower-cased tag name.
        name: String,
    },
    /// A run of character data (entity-decoded).
    Text(String),
    /// An HTML comment, with the `<!--`/`-->` delimiters stripped.
    Comment(String),
    /// A doctype declaration, e.g. `html` for `<!DOCTYPE html>`.
    Doctype(String),
}

/// Elements whose content is raw text (no nested markup) per the HTML
/// spec. `<script>` bodies in particular must not be re-tokenized, since
/// obfuscated JavaScript routinely contains `<` and `>`.
const RAW_TEXT_ELEMENTS: [&str; 4] = ["script", "style", "textarea", "title"];

/// Tokenizes `input` into a vector of [`Token`]s.
///
/// The tokenizer is total: any byte sequence that is valid UTF-8 produces
/// a token stream without panicking.
///
/// # Examples
///
/// ```
/// use slum_html::{tokenize, Token};
///
/// let tokens = tokenize("<p class=a>hi</p>");
/// assert_eq!(tokens.len(), 3);
/// assert!(matches!(&tokens[1], Token::Text(t) if t == "hi"));
/// ```
pub fn tokenize(input: &str) -> Vec<Token> {
    Tokenizer::new(input).run()
}

struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    tokens: Vec<Token>,
}

impl<'a> Tokenizer<'a> {
    fn new(input: &'a str) -> Self {
        Tokenizer { input, pos: 0, tokens: Vec::new() }
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.input.len() {
            if self.rest().starts_with("<!--") {
                self.consume_comment();
            } else if self.rest().starts_with("<!") {
                self.consume_doctype();
            } else if self.rest().starts_with("</") {
                self.consume_end_tag();
            } else if self.rest().starts_with('<') && self.looks_like_tag() {
                self.consume_start_tag();
            } else {
                self.consume_text();
            }
        }
        self.tokens
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// A `<` only opens a tag when followed by an ASCII letter; otherwise
    /// it is literal text (e.g. `a < b` in script-free prose).
    fn looks_like_tag(&self) -> bool {
        self.rest()[1..].chars().next().is_some_and(|c| c.is_ascii_alphabetic())
    }

    fn consume_text(&mut self) {
        let rest = self.rest();
        let mut end = rest.len();
        let mut iter = rest.char_indices();
        // Skip the current char (which may itself be `<` that failed the
        // tag test) and stop at the next plausible tag opener.
        let _ = iter.next();
        for (i, c) in iter {
            if c == '<' {
                let after = &rest[i + 1..];
                let opener = after
                    .chars()
                    .next()
                    .is_some_and(|n| n.is_ascii_alphabetic() || n == '/' || n == '!');
                if opener {
                    end = i;
                    break;
                }
            }
        }
        let text = &rest[..end];
        self.pos += end;
        if !text.is_empty() {
            self.tokens.push(Token::Text(decode_entities(text)));
        }
    }

    fn consume_comment(&mut self) {
        let rest = &self.rest()[4..];
        let (body, advance) = match rest.find("-->") {
            Some(end) => (&rest[..end], 4 + end + 3),
            None => (rest, self.input.len() - self.pos),
        };
        self.tokens.push(Token::Comment(body.to_string()));
        self.pos += advance;
    }

    fn consume_doctype(&mut self) {
        let rest = &self.rest()[2..];
        let (body, advance) = match rest.find('>') {
            Some(end) => (&rest[..end], 2 + end + 1),
            None => (rest, self.input.len() - self.pos),
        };
        self.tokens.push(Token::Doctype(body.trim().to_string()));
        self.pos += advance;
    }

    fn consume_end_tag(&mut self) {
        let rest = &self.rest()[2..];
        let (body, advance) = match rest.find('>') {
            Some(end) => (&rest[..end], 2 + end + 1),
            None => (rest, self.input.len() - self.pos),
        };
        let name: String = body
            .trim()
            .chars()
            .take_while(|c| !c.is_whitespace())
            .collect::<String>()
            .to_ascii_lowercase();
        self.pos += advance;
        if !name.is_empty() {
            self.tokens.push(Token::EndTag { name });
        }
    }

    fn consume_start_tag(&mut self) {
        let rest = self.rest();
        let Some(gt) = find_tag_end(rest) else {
            // No closing `>`: treat the remainder as text.
            self.tokens.push(Token::Text(decode_entities(rest)));
            self.pos = self.input.len();
            return;
        };
        let body = &rest[1..gt];
        let self_closing = body.ends_with('/');
        let body = body.strip_suffix('/').unwrap_or(body);
        let (name, attrs) = parse_tag_body(body);
        self.pos += gt + 1;

        let is_raw = RAW_TEXT_ELEMENTS.contains(&name.as_str()) && !self_closing;
        self.tokens.push(Token::StartTag { name: name.clone(), attrs, self_closing });

        if is_raw {
            self.consume_raw_text(&name);
        }
    }

    /// After a raw-text start tag, scoop everything up to the matching
    /// case-insensitive end tag into a single text token.
    fn consume_raw_text(&mut self, name: &str) {
        let rest = self.rest();
        match find_end_tag(rest, name) {
            Some(idx) => {
                let body = &rest[..idx];
                if !body.is_empty() {
                    self.tokens.push(Token::Text(body.to_string()));
                }
                // Consume the end tag too.
                let after = &rest[idx..];
                let end = after.find('>').map(|g| idx + g + 1).unwrap_or(rest.len());
                self.pos += end;
                self.tokens.push(Token::EndTag { name: name.to_string() });
            }
            None => {
                if !rest.is_empty() {
                    self.tokens.push(Token::Text(rest.to_string()));
                }
                self.pos = self.input.len();
                self.tokens.push(Token::EndTag { name: name.to_string() });
            }
        }
    }
}

/// Byte offset of the first `</name` in `s`, ignoring ASCII case
/// (`name` is lower-case ASCII).
fn find_end_tag(s: &str, name: &str) -> Option<usize> {
    s.match_indices("</").map(|(i, _)| i).find(|&i| {
        let tag = s.as_bytes()[i + 2..].get(..name.len());
        tag.is_some_and(|tag| tag.eq_ignore_ascii_case(name.as_bytes()))
    })
}

/// Finds the index of the `>` terminating a tag that starts at byte 0 of
/// `s`, honouring quoted attribute values which may contain `>`.
fn find_tag_end(s: &str) -> Option<usize> {
    let mut quote: Option<char> = None;
    for (i, c) in s.char_indices().skip(1) {
        match (quote, c) {
            (None, '"') | (None, '\'') => quote = Some(c),
            (Some(q), c2) if q == c2 => quote = None,
            (None, '>') => return Some(i),
            _ => {}
        }
    }
    None
}

/// Parses a tag body (`name attr=val attr2="val2"`) into a lower-cased
/// name plus attribute list.
///
/// Tag names are truncated at the first character outside
/// `[A-Za-z0-9-]` — hostile markup like `<a"""">` yields element `a`,
/// keeping serialization round-trippable.
fn parse_tag_body(body: &str) -> (String, Vec<(String, String)>) {
    let name_end = body
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '-'))
        .map(|(i, _)| i)
        .unwrap_or(body.len());
    let name = body[..name_end].to_ascii_lowercase();
    let mut attrs = Vec::new();
    let mut rest = &body[name_end..];
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            break;
        }
        // Attribute name.
        let name_len = rest
            .char_indices()
            .find(|&(_, c)| c == '=' || c.is_whitespace())
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        let attr_name = rest[..name_len].to_ascii_lowercase();
        rest = rest[name_len..].trim_start();
        if let Some(after_eq) = rest.strip_prefix('=') {
            let after_eq = after_eq.trim_start();
            let (value, advance) = parse_attr_value(after_eq);
            attrs.push((attr_name, decode_entities(&value)));
            rest = &after_eq[advance..];
        } else {
            // Boolean attribute.
            if !attr_name.is_empty() {
                attrs.push((attr_name, String::new()));
            }
        }
    }
    (name, attrs)
}

/// Parses an attribute value (quoted or bare) and returns it along with
/// the number of bytes consumed.
fn parse_attr_value(s: &str) -> (String, usize) {
    let mut chars = s.chars();
    match chars.next() {
        Some(q @ ('"' | '\'')) => {
            let rest = &s[1..];
            match rest.find(q) {
                Some(end) => (rest[..end].to_string(), end + 2),
                None => (rest.to_string(), s.len()),
            }
        }
        Some(_) => {
            let end = s.find(char::is_whitespace).unwrap_or(s.len());
            (s[..end].to_string(), end)
        }
        None => (String::new(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tokens: &[Token], idx: usize) -> (&str, &[(String, String)]) {
        match &tokens[idx] {
            Token::StartTag { name, attrs, .. } => (name.as_str(), attrs.as_slice()),
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn simple_element_round() {
        let t = tokenize("<div>hello</div>");
        assert_eq!(t.len(), 3);
        assert_eq!(start(&t, 0).0, "div");
        assert!(matches!(&t[1], Token::Text(s) if s == "hello"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "div"));
    }

    #[test]
    fn attributes_parse_quoted_and_bare() {
        let t = tokenize(r#"<iframe src="http://x/" width=1 hidden>"#);
        let (name, attrs) = start(&t, 0);
        assert_eq!(name, "iframe");
        assert_eq!(attrs[0], ("src".into(), "http://x/".into()));
        assert_eq!(attrs[1], ("width".into(), "1".into()));
        assert_eq!(attrs[2], ("hidden".into(), String::new()));
    }

    #[test]
    fn attr_value_with_gt_inside_quotes() {
        let t = tokenize(r#"<a title="a > b">x</a>"#);
        let (_, attrs) = start(&t, 0);
        assert_eq!(attrs[0].1, "a > b");
    }

    #[test]
    fn script_body_is_raw_text() {
        let js = "if (a < b && b > c) { document.write('<iframe>'); }";
        let html = format!("<script>{js}</script>");
        let t = tokenize(&html);
        assert_eq!(t.len(), 3);
        assert!(matches!(&t[1], Token::Text(s) if s == js));
    }

    #[test]
    fn script_end_tag_case_insensitive() {
        let t = tokenize("<script>x=1</SCRIPT>after");
        assert!(matches!(&t[1], Token::Text(s) if s == "x=1"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "script"));
        assert!(matches!(&t[3], Token::Text(s) if s == "after"));
    }

    /// The end-tag search that lower-cased a copy of the rest of the
    /// document for every raw-text element.
    fn lowercased_search(s: &str, name: &str) -> Option<usize> {
        s.to_ascii_lowercase().find(&format!("</{name}"))
    }

    /// A page with many scripts whose closers mix case.
    fn many_scripts_page() -> String {
        let closers = ["</script>", "</SCRIPT>", "</Script >", "</sCrIpT>"];
        let mut html = String::from("<TITLE>t</TiTlE><style>a{}</STYLE>");
        for i in 0..200 {
            html.push_str(&format!("<script>var x{i} = a</b;</x>{}<p>{i}</p>", closers[i % 4]));
        }
        html
    }

    #[test]
    fn end_tag_search_matches_lowercased_search() {
        let cases = [
            "",
            "<",
            "</",
            "</scrip",
            "x</ScRiPt>y</script>",
            "a</ <//script</SCRIPT",
            "é</Style>ü</style",
            "</textareA></TITLE></title>",
            "if (a</b) {}</sCrIpT >",
        ];
        for case in cases {
            for name in RAW_TEXT_ELEMENTS {
                let want = lowercased_search(case, name);
                assert_eq!(find_end_tag(case, name), want, "{case:?} / {name}");
            }
        }
        // Every place a raw-text body can start on the many-scripts page.
        let page = many_scripts_page();
        for (i, _) in page.match_indices('>') {
            let rest = &page[i + 1..];
            for name in RAW_TEXT_ELEMENTS {
                assert_eq!(find_end_tag(rest, name), lowercased_search(rest, name), "at {i}");
            }
        }
    }

    #[test]
    fn many_raw_text_elements_with_mixed_case_closers() {
        let t = tokenize(&many_scripts_page());
        assert!(matches!(&t[1], Token::Text(s) if s == "t"));
        assert!(matches!(&t[4], Token::Text(s) if s == "a{}"));
        let bodies: Vec<&str> = t
            .windows(2)
            .filter_map(|w| match (&w[0], &w[1]) {
                (Token::StartTag { name, .. }, Token::Text(s)) if name == "script" => {
                    Some(s.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(bodies.len(), 200);
        for (i, body) in bodies.iter().enumerate() {
            assert_eq!(*body, format!("var x{i} = a</b;</x>"));
        }
        let ends = t.iter().filter(|tok| matches!(tok, Token::EndTag { name } if name == "script"));
        assert_eq!(ends.count(), 200);
    }

    #[test]
    fn comment_and_doctype() {
        let t = tokenize("<!DOCTYPE html><!-- hidden --><p>x</p>");
        assert!(matches!(&t[0], Token::Doctype(d) if d == "DOCTYPE html"));
        assert!(matches!(&t[1], Token::Comment(c) if c == " hidden "));
    }

    #[test]
    fn self_closing_tag() {
        let t = tokenize("<br/><img src=x />");
        assert!(matches!(&t[0], Token::StartTag { self_closing: true, .. }));
        assert!(matches!(&t[1], Token::StartTag { self_closing: true, .. }));
    }

    #[test]
    fn stray_lt_is_text() {
        let t = tokenize("1 < 2 and 3 > 2");
        assert_eq!(t.len(), 1);
        assert!(matches!(&t[0], Token::Text(s) if s == "1 < 2 and 3 > 2"));
    }

    #[test]
    fn unterminated_tag_becomes_text() {
        let t = tokenize("<div class=");
        assert!(matches!(&t[0], Token::Text(_)));
    }

    #[test]
    fn unterminated_comment_is_swallowed() {
        let t = tokenize("<!-- never ends");
        assert!(matches!(&t[0], Token::Comment(c) if c == " never ends"));
    }

    #[test]
    fn unterminated_script_closes_at_eof() {
        let t = tokenize("<script>var x = 1;");
        assert!(matches!(&t[1], Token::Text(s) if s == "var x = 1;"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "script"));
    }

    #[test]
    fn entity_in_text_decodes() {
        let t = tokenize("<p>a &amp; b</p>");
        assert!(matches!(&t[1], Token::Text(s) if s == "a & b"));
    }

    #[test]
    fn uppercase_tag_name_lowered() {
        let t = tokenize("<IFRAME SRC='x'></IFRAME>");
        let (name, attrs) = start(&t, 0);
        assert_eq!(name, "iframe");
        assert_eq!(attrs[0].0, "src");
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
    }
}

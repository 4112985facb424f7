//! A lightweight URI-template processor (RFC 6570 subset).
//!
//! DoC GET requests need the query encoded "within the request URI. As
//! such, a DoC resource needs to be configured as a URI template,
//! describing the position of the DNS query in the URI as a variable"
//! (paper §4.1). DoH uses the same convention
//! (`https://example/dns-query{?dns}`).
//!
//! This processor supports the two expansion forms DoC/DoH templates
//! use in practice: simple string expansion `{var}` inside a path
//! segment and form-style query expansion `{?var}` — matching the
//! "lightweight URI template processor" the paper added to RIOT
//! (≈1 kByte of ROM in Fig. 5's "DNS (GET overhead)" slice).

use crate::DocError;

/// A parsed URI template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UriTemplate {
    parts: Vec<Part>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Part {
    Literal(String),
    /// `{var}` — simple expansion.
    Simple(String),
    /// `{?var}` — form-style query expansion.
    FormQuery(String),
}

impl UriTemplate {
    /// Parse a template like `/dns{?dns}` or `/resolve/{dns}`.
    pub fn parse(template: &str) -> Result<Self, DocError> {
        let mut parts = Vec::new();
        let mut rest = template;
        while let Some(open) = rest.find('{') {
            if !rest[..open].is_empty() {
                parts.push(Part::Literal(rest[..open].to_string()));
            }
            let close = rest[open..].find('}').ok_or(DocError::BadTemplate)? + open;
            let expr = &rest[open + 1..close];
            if expr.is_empty() {
                return Err(DocError::BadTemplate);
            }
            if let Some(var) = expr.strip_prefix('?') {
                if var.is_empty() || !is_varname(var) {
                    return Err(DocError::BadTemplate);
                }
                parts.push(Part::FormQuery(var.to_string()));
            } else {
                if !is_varname(expr) {
                    return Err(DocError::BadTemplate);
                }
                parts.push(Part::Simple(expr.to_string()));
            }
            rest = &rest[close + 1..];
        }
        if !rest.is_empty() {
            if rest.contains('}') {
                return Err(DocError::BadTemplate);
            }
            parts.push(Part::Literal(rest.to_string()));
        }
        Ok(UriTemplate { parts })
    }

    /// Expand the template with a single variable binding.
    pub fn expand(&self, var: &str, value: &str) -> Result<String, DocError> {
        let mut out = String::new();
        for part in &self.parts {
            match part {
                Part::Literal(l) => out.push_str(l),
                Part::Simple(v) => {
                    if v != var {
                        return Err(DocError::BadTemplate);
                    }
                    out.push_str(value);
                }
                Part::FormQuery(v) => {
                    if v != var {
                        return Err(DocError::BadTemplate);
                    }
                    out.push('?');
                    out.push_str(v);
                    out.push('=');
                    out.push_str(value);
                }
            }
        }
        Ok(out)
    }

    /// Split an expanded URI into CoAP Uri-Path segments and Uri-Query
    /// strings (the forms a CoAP GET carries as options).
    pub fn to_coap_options(uri: &str) -> (Vec<String>, Vec<String>) {
        let (path, query) = match uri.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (uri, None),
        };
        let segments: Vec<String> = path
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| s.to_string())
            .collect();
        let queries: Vec<String> = query
            .map(|q| q.split('&').map(|s| s.to_string()).collect())
            .unwrap_or_default();
        (segments, queries)
    }
}

fn is_varname(s: &str) -> bool {
    s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doh_style_template() {
        let t = UriTemplate::parse("/dns{?dns}").unwrap();
        let uri = t.expand("dns", "AAABBB").unwrap();
        assert_eq!(uri, "/dns?dns=AAABBB");
    }

    #[test]
    fn path_variable_template() {
        let t = UriTemplate::parse("/resolve/{dns}/answer").unwrap();
        assert_eq!(t.expand("dns", "XYZ").unwrap(), "/resolve/XYZ/answer");
    }

    #[test]
    fn literal_only() {
        let t = UriTemplate::parse("/plain/path").unwrap();
        assert_eq!(t.expand("dns", "x").unwrap(), "/plain/path");
    }

    #[test]
    fn reject_malformed() {
        assert!(UriTemplate::parse("/dns{?dns").is_err()); // unclosed
        assert!(UriTemplate::parse("/dns{}").is_err()); // empty expr
        assert!(UriTemplate::parse("/dns{?}").is_err()); // empty var
        assert!(UriTemplate::parse("/dns}x").is_err()); // stray close
        assert!(UriTemplate::parse("/dns{a b}").is_err()); // bad name
    }

    #[test]
    fn wrong_variable_rejected() {
        let t = UriTemplate::parse("/dns{?dns}").unwrap();
        assert_eq!(t.expand("query", "x"), Err(DocError::BadTemplate));
    }

    #[test]
    fn coap_option_split() {
        let (path, query) = UriTemplate::to_coap_options("/dns?dns=AAAA");
        assert_eq!(path, vec!["dns"]);
        assert_eq!(query, vec!["dns=AAAA"]);
        let (path, query) = UriTemplate::to_coap_options("/a/b/c");
        assert_eq!(path, vec!["a", "b", "c"]);
        assert!(query.is_empty());
        let (path, query) = UriTemplate::to_coap_options("/r?x=1&y=2");
        assert_eq!(path, vec!["r"]);
        assert_eq!(query, vec!["x=1", "y=2"]);
    }
}

//! An HTTP-like request/response transport.
//!
//! This is not a byte-accurate HTTP/1.1 implementation; it models the parts
//! that matter to the IFTTT protocol and the measurement study — methods,
//! paths, headers, opaque [`Bytes`] bodies, status codes, and request/
//! response correlation with optional timeouts. Bodies are produced and
//! consumed by the `tap-protocol` crate as real serialized JSON, so the wire
//! content is faithful even though framing is abstracted away.

use crate::node::NodeId;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A header name: every header in the modeled protocols is a constant.
pub type HeaderName = &'static str;

/// Longest string a [`Str`] holds inline.
const INLINE_CAP: usize = 22;

/// A request path or a header value: a small immutable string that is
/// cheap to put on every request. A constant is borrowed
/// ([`Str::from_static`]); anything else is copied once by `From` —
/// inline up to 22 bytes, into shared storage beyond — so a clone is 24
/// bytes or a reference count, never an allocation. Reads like a `&str`
/// ([`Deref`], [`fmt::Display`], `==` with `str`).
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
    /// Always `len` bytes of UTF-8 copied whole from a `str`.
    Inline {
        len: u8,
        buf: [u8; INLINE_CAP],
    },
}

impl Str {
    /// Borrow a constant.
    pub const fn from_static(s: &'static str) -> Self {
        Str(Repr::Static(s))
    }

    /// `v` as 16 lowercase hex digits (`{v:016x}`), held inline.
    pub fn hex16(v: u64) -> Self {
        let mut buf = [0; INLINE_CAP];
        for (i, digit) in buf[..16].iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf];
        }
        Str(Repr::Inline { len: 16, buf })
    }

    /// The string itself.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
            Repr::Inline { len, buf } => std::str::from_utf8(&buf[..usize::from(*len)])
                .expect("inline bytes are a whole str"),
        }
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        if s.len() > INLINE_CAP {
            return Str(Repr::Shared(Arc::from(s)));
        }
        let mut buf = [0; INLINE_CAP];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Str(Repr::Inline {
            len: s.len() as u8,
            buf,
        })
    }
}

impl From<fmt::Arguments<'_>> for Str {
    /// Rendered on the stack when it fits there, so a computed path or
    /// header value costs at most the one allocation that holds it.
    fn from(args: fmt::Arguments<'_>) -> Self {
        struct OnStack {
            len: usize,
            buf: [u8; 128],
        }
        impl fmt::Write for OnStack {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                let room = self.buf.get_mut(self.len..self.len + s.len());
                room.ok_or(fmt::Error)?.copy_from_slice(s.as_bytes());
                self.len += s.len();
                Ok(())
            }
        }
        let mut out = OnStack {
            len: 0,
            buf: [0; 128],
        };
        match fmt::Write::write_fmt(&mut out, args) {
            Ok(()) => Str::from(
                std::str::from_utf8(&out.buf[..out.len]).expect("whole strs were written"),
            ),
            Err(fmt::Error) => Str::from(args.to_string()),
        }
    }
}

impl From<String> for Str {
    fn from(s: String) -> Self {
        Str::from(s.as_str())
    }
}

impl Deref for Str {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<str> for Str {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Str {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Kernel-assigned unique identifier of an in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// Caller-chosen correlation token echoed back in `on_response`.
///
/// Nodes use tokens to remember *why* they sent a request (e.g. the poll
/// task or the applet an action request belongs to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Token(pub u64);

/// HTTP request methods used by the modeled protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
}

impl Method {
    /// The method's wire name as a static string (no allocation).
    pub const fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Synthetic status code the kernel uses for a timed-out request.
pub const STATUS_TIMEOUT: u16 = 0;

/// An application-layer request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Filled in by the kernel when the request is sent.
    pub id: RequestId,
    /// Originating node (filled in by the kernel).
    pub src: NodeId,
    /// Destination node (filled in by the kernel).
    pub dst: NodeId,
    pub method: Method,
    pub path: Str,
    pub headers: Vec<(HeaderName, Str)>,
    pub body: Bytes,
}

impl Request {
    fn new(method: Method, path: impl Into<Str>) -> Self {
        Request {
            id: RequestId(0),
            src: NodeId(u32::MAX),
            dst: NodeId(u32::MAX),
            method,
            path: path.into(),
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// Build a GET request.
    pub fn get(path: impl Into<Str>) -> Self {
        Request::new(Method::Get, path)
    }

    /// Build a POST request.
    pub fn post(path: impl Into<Str>) -> Self {
        Request::new(Method::Post, path)
    }

    /// Build a PUT request.
    pub fn put(path: impl Into<Str>) -> Self {
        Request::new(Method::Put, path)
    }

    /// Attach a body.
    pub fn with_body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Attach a header (appends; duplicate names allowed, first wins on read).
    pub fn with_header(mut self, name: HeaderName, value: impl Into<Str>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// First header value with the given case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The path split on `/`, ignoring empty segments.
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Approximate wire size in bytes (for workload accounting).
    pub fn wire_size(&self) -> usize {
        let headers: usize = self
            .headers
            .iter()
            .map(|(n, v)| n.len() + v.len() + 4)
            .sum();
        self.method.as_str().len() + self.path.len() + headers + self.body.len() + 26
    }
}

/// An application-layer response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(HeaderName, Str)>,
    pub body: Bytes,
}

impl Response {
    /// Build a response with the given status code.
    pub fn with_status(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// 200 OK.
    pub fn ok() -> Self {
        Response::with_status(200)
    }

    /// 400 Bad Request.
    pub fn bad_request() -> Self {
        Response::with_status(400)
    }

    /// 401 Unauthorized.
    pub fn unauthorized() -> Self {
        Response::with_status(401)
    }

    /// 404 Not Found.
    pub fn not_found() -> Self {
        Response::with_status(404)
    }

    /// 503 Service Unavailable.
    pub fn unavailable() -> Self {
        Response::with_status(503)
    }

    /// The synthetic response delivered when a request times out or is lost.
    pub fn timeout() -> Self {
        Response::with_status(STATUS_TIMEOUT)
    }

    /// Attach a body.
    pub fn with_body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Attach a header.
    pub fn with_header(mut self, name: HeaderName, value: impl Into<Str>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// First header value with the given case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// True for the kernel-synthesized timeout response.
    pub fn is_timeout(&self) -> bool {
        self.status == STATUS_TIMEOUT
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        let headers: usize = self
            .headers
            .iter()
            .map(|(n, v)| n.len() + v.len() + 4)
            .sum();
        headers + self.body.len() + 17
    }
}

/// Options controlling delivery of a single request.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOpts {
    /// If set, the sender receives [`Response::timeout`] when no response
    /// has arrived within this span. A late real response is then dropped.
    pub timeout: Option<crate::time::SimDuration>,
}

impl RequestOpts {
    /// Convenience: a timeout of `secs` seconds.
    pub fn timeout_secs(secs: u64) -> Self {
        RequestOpts {
            timeout: Some(crate::time::SimDuration::from_secs(secs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let r = Request::post("/ifttt/v1/triggers/new_email")
            .with_header("IFTTT-Service-Key", "k")
            .with_body("{}");
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.header("ifttt-service-key"), Some("k"));
        assert_eq!(&r.body[..], b"{}");
    }

    #[test]
    fn path_segments_skip_empties() {
        let r = Request::get("/a//b/c/");
        assert_eq!(r.path_segments(), vec!["a", "b", "c"]);
    }

    #[test]
    fn status_helpers() {
        assert!(Response::ok().is_success());
        assert!(!Response::not_found().is_success());
        assert!(Response::timeout().is_timeout());
        assert!(!Response::ok().is_timeout());
    }

    #[test]
    fn header_lookup_is_case_insensitive_first_wins() {
        let r = Response::ok()
            .with_header("X-Poll", "1")
            .with_header("x-poll", "2");
        assert_eq!(r.header("X-POLL"), Some("1"));
    }

    /// One value of each representation: borrowed, inline, shared.
    fn one_of_each() -> [(Str, &'static str); 3] {
        let long = "Bearer 0123456789abcdef0123456789abcdef";
        let (inline, shared) = (Str::from("sk_fleet"), Str::from(long));
        assert!(matches!(inline.0, Repr::Inline { len: 8, .. }));
        assert!(matches!(shared.0, Repr::Shared(_)));
        [
            (
                Str::from_static("/ifttt/v1/triggers/batch"),
                "/ifttt/v1/triggers/batch",
            ),
            (inline, "sk_fleet"),
            (shared, long),
        ]
    }

    #[test]
    fn a_str_reads_as_the_string_it_was_made_from() {
        for (s, text) in one_of_each() {
            assert_eq!(&*s, text);
            let copied = Str::from(text);
            assert!(s == *text && s == text && s == s.clone() && s == copied);
            assert_eq!(
                (format!("{s}"), format!("{s:?}")),
                (text.to_string(), format!("{text:?}"))
            );
        }
        // The inline bound, one byte either side, and a multi-byte boundary.
        for text in [
            "",
            "a",
            &"x".repeat(22),
            &"x".repeat(23),
            "ééééééééééé",
            "éééééééééééé",
        ] {
            let s = Str::from(text);
            assert_eq!(&*s, text);
            assert_eq!(
                matches!(s.0, Repr::Inline { .. }),
                text.len() <= 22,
                "{text}"
            );
        }
        // Rendered: inline, shared, and past the stack buffer.
        for n in [3, 22, 23, 128, 129, 400] {
            let (s, text) = (
                Str::from(format_args!("{:é<n$}", "/p")),
                format!("{:é<n$}", "/p"),
            );
            assert_eq!(&*s, text);
            assert_eq!(matches!(s.0, Repr::Inline { .. }), text.len() <= 22);
        }
        for v in [0, 1, 0xabc, 0x0123_4567_89ab_cdef, u64::MAX] {
            assert_eq!(&*Str::hex16(v), format!("{v:016x}"));
        }
        assert_eq!(std::mem::size_of::<Str>(), 24);
    }

    #[test]
    fn header_lookup_and_wire_size_do_not_depend_on_how_a_value_is_held() {
        for (value, text) in one_of_each() {
            let r = Request::post(value.clone())
                .with_header("X-Poll", value.clone())
                .with_header("x-poll", "second");
            assert_eq!(r.header("X-POLL"), Some(text));
            assert_eq!(r.path, text);
            let resp = Response::ok()
                .with_header("X-Poll", value)
                .with_header("x-poll", "second");
            assert_eq!(resp.header("x-POLL"), Some(text));
            let as_strings = Request::post(text.to_string())
                .with_header("X-Poll", text.to_string())
                .with_header("x-poll", "second");
            assert_eq!(r.wire_size(), as_strings.wire_size());
            assert_eq!(
                r.wire_size(),
                4 + text.len() + (6 + text.len() + 4) + (6 + 6 + 4) + 26
            );
            assert_eq!(resp.wire_size(), (6 + text.len() + 4) + (6 + 6 + 4) + 17);
        }
    }

    #[test]
    fn wire_size_counts_body_and_headers() {
        let small = Request::get("/a").wire_size();
        let big = Request::get("/a").with_body(vec![0u8; 100]).wire_size();
        assert_eq!(big - small, 100);
    }

    #[test]
    fn wire_size_math_matches_the_allocating_formula() {
        // `wire_size` used to render the method with `to_string()`; the
        // static-string version must produce byte-identical sizes.
        for method in [Method::Get, Method::Post, Method::Put, Method::Delete] {
            let r = Request {
                method,
                ..Request::get("/ifttt/v1/triggers/new_email")
            }
            .with_header("IFTTT-Service-Key", "sk_123")
            .with_body("{\"limit\":50}");
            let headers: usize = r.headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
            let old = r.method.to_string().len() + r.path.len() + headers + r.body.len() + 26;
            assert_eq!(r.wire_size(), old);
            assert_eq!(method.to_string(), method.as_str());
        }
    }
}

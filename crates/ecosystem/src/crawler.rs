//! The snapshot crawler.
//!
//! Implements §3.1's methodology faithfully: parse the partner-service
//! index to get all services, fetch each service page, then enumerate
//! numeric applet-page ids ("through reverse engineering the URLs … the
//! URLs can be systematically retrieved by enumerating a six-digit applet
//! ID") with bounded concurrency, politeness delays, and 503 retries.
//! Produces a [`Snapshot`] equivalent to the generator's direct view — an
//! integration test asserts the equivalence. [`crawl_week`] is the whole
//! pipeline for one week, frontend and simulation included.

use crate::frontend::IftttFrontend;
use crate::generator::Ecosystem;
use crate::model::week_date_label;
use crate::snapshot::{
    AppletRecord, NamedApplet, NamedAuthor, RecordError, ServiceRecord, SlugIndex, Snapshot,
};
use crate::taxonomy::Category;
use simnet::prelude::*;

/// First applet page id the generator assigns: where the id scan starts.
pub const APPLET_ID_BASE: u32 = 100_000;

/// What one weekly crawl brought back.
#[derive(Debug, Clone)]
pub struct Crawl {
    /// The crawled view of the week, dated by [`week_date_label`].
    pub snapshot: Snapshot,
    pub stats: CrawlStats,
    /// Virtual time the crawl took.
    pub elapsed: SimTime,
}

/// The §3.1 pipeline for one week, in a simulation of its own seeded with
/// `seed`: serve `eco` as of `week` from an [`IftttFrontend`], point a
/// [`Crawler`] with stock settings at it over a WAN link, run to idle.
///
/// # Panics
/// Panics if the crawl does not finish (it always does against a frontend
/// that is not overloaded).
pub fn crawl_week(eco: &Ecosystem, week: u32, seed: u64) -> Crawl {
    let mut sim = Sim::new(seed);
    sim.trace_mut().set_enabled(false);
    let frontend = IftttFrontend::new(eco.snapshot(week));
    let id_hi = frontend.max_applet_id() + 1;
    let fe = sim.add_node("ifttt.com", frontend);
    let config = CrawlerConfig::new(fe, APPLET_ID_BASE, id_hi);
    let crawler = sim.add_node("crawler", Crawler::new(config));
    sim.link(crawler, fe, LinkSpec::wan());
    sim.try_run_until_idle(100_000_000)
        .expect("crawl terminates");
    let crawler = sim.node_ref::<Crawler>(crawler);
    assert!(
        crawler.is_done(),
        "crawl of week {week} left pages unfetched"
    );
    Crawl {
        snapshot: crawler.snapshot(week, week_date_label(week as usize)),
        stats: crawler.stats,
        elapsed: sim.now(),
    }
}

/// Extract `data-<attr>="…"` values following a `class="<class>"` marker.
fn extract_all<'a>(html: &'a str, class: &str, attr: &str) -> Vec<&'a str> {
    let marker = format!("class=\"{class}\"");
    let attr_marker = format!("data-{attr}=\"");
    let mut out = Vec::new();
    for chunk in html.split(&marker).skip(1) {
        // The attributes of one element precede the closing '>'.
        let element_end = chunk.find('>').unwrap_or(chunk.len());
        let element = &chunk[..element_end];
        if let Some(start) = element.find(&attr_marker) {
            let rest = &element[start + attr_marker.len()..];
            if let Some(end) = rest.find('"') {
                out.push(&rest[..end]);
            }
        }
    }
    out
}

fn extract_first<'a>(html: &'a str, class: &str, attr: &str) -> Option<&'a str> {
    extract_all(html, class, attr).into_iter().next()
}

/// Parse the service index page into (slug, category, name) triples.
pub fn parse_service_index(html: &str) -> Vec<(String, Category, String)> {
    let slugs = extract_all(html, "service", "slug");
    let cats = extract_all(html, "service", "category");
    let mut names = Vec::new();
    // The display name is the element text: between '>' and '</li>'.
    for chunk in html.split("class=\"service\"").skip(1) {
        let text = chunk
            .find('>')
            .map(|i| &chunk[i + 1..])
            .and_then(|rest| rest.find('<').map(|j| &rest[..j]))
            .unwrap_or("");
        names.push(text.to_string());
    }
    slugs
        .into_iter()
        .zip(cats)
        .zip(names)
        .filter_map(|((slug, cat), name)| {
            let cat = Category::from_index(cat.parse().ok()?)?;
            Some((slug.to_string(), cat, name))
        })
        .collect()
}

/// Parse a service page into (triggers, actions).
pub fn parse_service_page(html: &str) -> (Vec<String>, Vec<String>) {
    (
        extract_all(html, "trigger", "slug")
            .into_iter()
            .map(String::from)
            .collect(),
        extract_all(html, "action", "slug")
            .into_iter()
            .map(String::from)
            .collect(),
    )
}

/// The number in the first `data-<attr>` after a `class="<class>"` marker.
fn number<T: std::str::FromStr>(
    html: &str,
    class: &str,
    attr: &str,
    what: &'static str,
) -> Result<T, RecordError> {
    let text = extract_first(html, class, attr).ok_or(RecordError::Malformed(what))?;
    text.parse().map_err(|_| RecordError::Malformed(what))
}

/// Parse an applet page into an [`AppletRecord`] over `services`, the
/// table `by_slug` was built over (week is filled by the caller — a scraper
/// cannot see creation dates). A page that names a service the table lacks,
/// or whose heading is not its slots' name, is a [`RecordError`]. A trigger
/// or action its service's page did not list joins that service's unlisted
/// slots: a week's pages list a prefix of each service's slots.
pub fn parse_applet_page(
    html: &str,
    services: &mut [ServiceRecord],
    by_slug: &SlugIndex,
) -> Result<AppletRecord, RecordError> {
    use RecordError::Malformed;
    let field = |class, attr, what| extract_first(html, class, attr).ok_or(Malformed(what));
    let text = |class, attr, what| field(class, attr, what).map(String::from);
    let id = number(html, "applet", "id", "id")?;
    let heading = html.find("<h1>").map(|i| &html[i + 4..]);
    let name = heading.and_then(|h| h.find("</h1>").map(|j| h[..j].to_string()));
    let author = match (
        field("author", "kind", "author")?,
        field("author", "name", "author")?,
    ) {
        ("user", user) => {
            let user = user.strip_prefix("user_").and_then(|u| u.parse().ok());
            NamedAuthor::User(user.ok_or(Malformed("author"))?)
        }
        ("service", slug) => NamedAuthor::Service(slug.into()),
        _ => return Err(Malformed("author")),
    };
    let add_count = number(html, "add-count", "value", "add count")?;
    let named = NamedApplet {
        id,
        name: name.ok_or(Malformed("name"))?,
        trigger_service: text("trigger", "service", "trigger service")?,
        trigger: text("trigger", "slug", "trigger")?,
        action_service: text("action", "service", "action service")?,
        action: text("action", "slug", "action")?,
        author,
        add_count,
        created_week: 0,
        // The crawler sees the paper's public pages, which render only the
        // classic trigger→action pair.
        steps: Vec::new(),
    };
    by_slug.resolve(services, named)
}

/// Crawler configuration.
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// The frontend to scrape.
    pub frontend: NodeId,
    /// Applet-id enumeration range (inclusive lo, exclusive hi).
    pub id_lo: u32,
    pub id_hi: u32,
    /// Maximum in-flight requests.
    pub concurrency: usize,
    /// Politeness delay between a response and the next request it frees.
    pub politeness: SimDuration,
    /// 503 retries per page before giving up.
    pub max_retries: u32,
}

impl CrawlerConfig {
    /// Sensible defaults for a frontend node.
    pub fn new(frontend: NodeId, id_lo: u32, id_hi: u32) -> Self {
        CrawlerConfig {
            frontend,
            id_lo,
            id_hi,
            concurrency: 32,
            politeness: SimDuration::from_millis(20),
            max_retries: 3,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Index,
    Services,
    Applets,
    Done,
}

// Token tags.
const TAG_SHIFT: u64 = 56;
const TAG_INDEX: u64 = 1 << TAG_SHIFT;
const TAG_SERVICE: u64 = 2 << TAG_SHIFT;
const TAG_APPLET: u64 = 3 << TAG_SHIFT;
const TAG_MASK: u64 = 0xFF << TAG_SHIFT;
/// Timer key: issue more requests.
const TK_PUMP: TimerKey = 1;

/// Crawl statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlStats {
    pub pages_fetched: u64,
    pub applets_found: u64,
    pub not_found: u64,
    pub retries: u64,
    pub gave_up: u64,
    /// Applet pages that did not parse into a record ([`RecordError`]).
    pub rejected: u64,
}

/// The crawler node.
#[derive(Debug)]
pub struct Crawler {
    config: CrawlerConfig,
    phase: Phase,
    /// Services discovered from the index (slug, category, name).
    index: Vec<(String, Category, String)>,
    /// Next service page to request.
    next_service: usize,
    /// Service indices awaiting a retry after a 503.
    service_retry: Vec<usize>,
    services_pending: usize,
    /// Completed service records, in slug order once the applet phase
    /// starts.
    pub services: Vec<ServiceRecord>,
    /// Finds a service in `services` by slug.
    by_slug: SlugIndex,
    /// Next applet id to request.
    next_id: u32,
    applets_pending: usize,
    /// Tokens awaiting a retry.
    retry_queue: Vec<u64>,
    /// Attempts used per token.
    attempts: std::collections::HashMap<u64, u32>,
    /// Harvested applets.
    pub applets: Vec<AppletRecord>,
    /// Crawl statistics.
    pub stats: CrawlStats,
}

impl Crawler {
    /// Create a crawler; it starts on simulation start.
    pub fn new(config: CrawlerConfig) -> Self {
        Crawler {
            config,
            phase: Phase::Index,
            index: Vec::new(),
            next_service: 0,
            service_retry: Vec::new(),
            services_pending: 0,
            services: Vec::new(),
            by_slug: SlugIndex::default(),
            next_id: 0,
            applets_pending: 0,
            retry_queue: Vec::new(),
            attempts: std::collections::HashMap::new(),
            applets: Vec::new(),
            stats: CrawlStats::default(),
        }
    }

    /// Has the crawl finished?
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Assemble the snapshot (caller supplies week/date labels).
    pub fn snapshot(&self, week: u32, date: impl Into<String>) -> Snapshot {
        let services = self.services.clone();
        let mut applets = self.applets.clone();
        applets.sort_by_key(|a| a.id);
        Snapshot {
            week,
            date: date.into(),
            services,
            applets,
        }
    }

    fn fetch(&mut self, ctx: &mut Context<'_>, path: String, token: u64) {
        self.stats.pages_fetched += 1;
        ctx.send_request(
            self.config.frontend,
            Request::get(path),
            Token(token),
            RequestOpts::timeout_secs(30),
        );
    }

    /// Issue requests until the concurrency window is full.
    fn pump(&mut self, ctx: &mut Context<'_>) {
        match self.phase {
            Phase::Index => {
                self.fetch(ctx, "/services".into(), TAG_INDEX);
                self.phase = Phase::Services;
            }
            Phase::Services => {
                while self.services_pending < self.config.concurrency {
                    let idx = if let Some(idx) = self.service_retry.pop() {
                        idx
                    } else if self.next_service < self.index.len() {
                        let i = self.next_service;
                        self.next_service += 1;
                        i
                    } else {
                        break;
                    };
                    let slug = self.index[idx].0.clone();
                    self.services_pending += 1;
                    self.fetch(ctx, format!("/services/{slug}"), TAG_SERVICE | idx as u64);
                }
                if self.services_pending == 0
                    && self.next_service >= self.index.len()
                    && self.service_retry.is_empty()
                {
                    self.phase = Phase::Applets;
                    self.services.sort_by(|a, b| a.slug.cmp(&b.slug));
                    self.by_slug = SlugIndex::new(&self.services);
                    self.next_id = self.config.id_lo;
                    self.pump(ctx);
                }
            }
            Phase::Applets => {
                while self.applets_pending < self.config.concurrency {
                    // Retries first, then fresh ids.
                    let token = if let Some(token) = self.retry_queue.pop() {
                        token
                    } else if self.next_id < self.config.id_hi {
                        let t = TAG_APPLET | self.next_id as u64;
                        self.next_id += 1;
                        t
                    } else {
                        break;
                    };
                    let id = (token & !TAG_MASK) as u32;
                    self.applets_pending += 1;
                    self.fetch(ctx, format!("/applets/{id}"), token);
                }
                if self.applets_pending == 0
                    && self.next_id >= self.config.id_hi
                    && self.retry_queue.is_empty()
                {
                    self.phase = Phase::Done;
                    ctx.trace(
                        "crawler.done",
                        format_args!(
                            "{} applets, {} services",
                            self.applets.len(),
                            self.services.len()
                        ),
                    );
                }
            }
            Phase::Done => {}
        }
    }
}

impl Node for Crawler {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
        if key == TK_PUMP {
            self.pump(ctx);
        }
    }

    fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {
        let tag = token.0 & TAG_MASK;
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        match tag {
            TAG_INDEX => {
                if resp.is_success() {
                    self.index = parse_service_index(&body);
                    ctx.trace(
                        "crawler.index",
                        format_args!("{} services", self.index.len()),
                    );
                } else {
                    // Index failures retry immediately (the crawl cannot
                    // proceed without it).
                    self.stats.retries += 1;
                    self.phase = Phase::Index;
                }
            }
            TAG_SERVICE => {
                self.services_pending -= 1;
                let idx = (token.0 & !TAG_MASK) as usize;
                if resp.is_success() {
                    let (slug, cat, name) = self.index[idx].clone();
                    let (triggers, actions) = parse_service_page(&body);
                    self.services.push(ServiceRecord {
                        slug,
                        name,
                        category: cat,
                        triggers,
                        actions,
                        created_week: 0,
                        unlisted_triggers: Vec::new(),
                        unlisted_actions: Vec::new(),
                    });
                } else if resp.status == 503 {
                    // Put the service back for a retry (service pages are
                    // retried without limit — the crawl needs all of them).
                    self.stats.retries += 1;
                    self.service_retry.push(idx);
                }
            }
            TAG_APPLET => {
                self.applets_pending -= 1;
                if resp.is_success() {
                    match parse_applet_page(&body, &mut self.services, &self.by_slug) {
                        Ok(rec) => {
                            self.stats.applets_found += 1;
                            self.applets.push(rec);
                        }
                        Err(e) => {
                            self.stats.rejected += 1;
                            ctx.trace("crawler.rejected", format_args!("{e}"));
                        }
                    }
                } else if resp.status == 404 {
                    self.stats.not_found += 1;
                } else {
                    // 503 or timeout: retry up to the limit.
                    let used = self.attempts.entry(token.0).or_insert(0);
                    *used += 1;
                    if *used <= self.config.max_retries {
                        self.stats.retries += 1;
                        self.retry_queue.push(token.0);
                    } else {
                        self.stats.gave_up += 1;
                    }
                }
            }
            _ => {}
        }
        ctx.set_timer(self.config.politeness, TK_PUMP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::service;
    use crate::snapshot::{Author, ServiceTable, Slot};

    #[test]
    fn attribute_extraction_handles_multiple_elements() {
        let html = r#"<li class="service" data-slug="a" data-category="1">A</li>
                      <li class="service" data-slug="b" data-category="13">B</li>"#;
        assert_eq!(extract_all(html, "service", "slug"), vec!["a", "b"]);
        assert_eq!(extract_all(html, "service", "category"), vec!["1", "13"]);
        let parsed = parse_service_index(html);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "a");
        assert_eq!(parsed[0].1, Category::SmartHomeDevice);
        assert_eq!(parsed[1].1, Category::Email);
        assert_eq!(parsed[1].2, "B");
    }

    /// A page over [`table`]: user 42's `If t0 then a0`, Gmail → Hue.
    const PAGE: &str = r#"<div class="applet" data-id="123456">
            <h1>If t0 then a0</h1>
            <span class="trigger" data-service="gmail" data-slug="t0"></span>
            <span class="action" data-service="philips_hue" data-slug="a0"></span>
            <span class="author" data-kind="user" data-name="user_42"></span>
            <span class="add-count" data-value="9876"></span></div>"#;

    /// Gmail (trigger `t0`) and Philips Hue (action `a0`), and their index.
    fn table() -> (Vec<ServiceRecord>, SlugIndex) {
        let services = vec![
            service("gmail", Category::Email, 1, 0),
            service("philips_hue", Category::SmartHomeDevice, 0, 1),
        ];
        let index = SlugIndex::new(&services);
        (services, index)
    }

    #[test]
    fn applet_page_parsing_roundtrip() {
        let (mut services, index) = table();
        let rec = parse_applet_page(PAGE, &mut services, &index).unwrap();
        assert_eq!(rec.id, 123_456);
        assert_eq!(services.trigger_service(&rec), "gmail");
        assert_eq!(services.action(&rec), "a0");
        assert_eq!(rec.author, Author::User(42));
        assert_eq!(rec.add_count, 9_876);
        // An action Hue's page did not list joins its unlisted ones.
        let rec = parse_applet_page(&PAGE.replace("a0", "a7"), &mut services, &index).unwrap();
        assert_eq!(
            rec.action,
            Slot {
                service: 1,
                slot: 1
            }
        );
        assert_eq!(
            (services.action(&rec), services[1].actions.len()),
            ("a7", 1)
        );
    }

    #[test]
    fn malformed_pages_parse_to_errors() {
        let (mut services, index) = table();
        for page in ["<html>nothing here</html>", ""] {
            let got = parse_applet_page(page, &mut services, &index);
            assert_eq!(got, Err(RecordError::Malformed("id")));
        }
        // Every prefix of a page is an error or the page, never a panic.
        for end in 0..=PAGE.len() {
            let _ = parse_applet_page(&PAGE[..end], &mut services, &index);
        }
    }

    #[test]
    fn doctored_pages_are_typed_errors() {
        use RecordError::*;
        let author = r#"data-kind="user" data-name="user_42""#;
        for (from, to, want) in [
            (r#""gmail""#, r#""gmial""#, UnknownService("gmial".into())),
            (r#""philips_hue""#, r#""hue""#, UnknownService("hue".into())),
            (
                author,
                r#"data-kind="service" data-name="nope""#,
                UnknownService("nope".into()),
            ),
            (
                "If t0 then a0",
                "If t0 then a1",
                NameMismatch("If t0 then a1".into()),
            ),
            (
                r#"data-slug="t0""#,
                r#"data-slug="t1""#,
                NameMismatch("If t0 then a0".into()),
            ),
            ("<h1>", "<h2>", Malformed("name")),
            ("123456", "12x", Malformed("id")),
            ("user_42", "user_x", Malformed("author")),
            (r#""user""#, r#""robot""#, Malformed("author")),
            ("9876", "-1", Malformed("add count")),
            (
                r#"class="action""#,
                r#"class="act""#,
                Malformed("action service"),
            ),
        ] {
            let (mut services, index) = table();
            let page = PAGE.replace(from, to);
            let got = parse_applet_page(&page, &mut services, &index);
            assert_eq!(got, Err(want), "{page}");
            assert_eq!(
                services,
                table().0,
                "a refused page leaves the table as it was"
            );
        }
    }

    #[test]
    fn service_page_parsing_splits_triggers_and_actions() {
        let html = r#"<div class="service" data-slug="s" data-category="7">
            <li class="trigger" data-slug="t1">t1</li>
            <li class="trigger" data-slug="t2">t2</li>
            <li class="action" data-slug="a1">a1</li></div>"#;
        let (t, a) = parse_service_page(html);
        assert_eq!(t, vec!["t1", "t2"]);
        assert_eq!(a, vec!["a1"]);
    }
}

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
use crate::snapshot::{AppletRecord, Author, ServiceRecord, Snapshot};
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

/// Parse an applet page into an [`AppletRecord`] (week is filled by the
/// caller — a scraper cannot see creation dates).
pub fn parse_applet_page(html: &str) -> Option<AppletRecord> {
    let id: u32 = extract_first(html, "applet", "id")?.parse().ok()?;
    let name = html.find("<h1>").and_then(|i| {
        html[i + 4..]
            .find("</h1>")
            .map(|j| html[i + 4..i + 4 + j].to_string())
    })?;
    let trigger_service = extract_first(html, "trigger", "service")?.to_string();
    let trigger = extract_first(html, "trigger", "slug")?.to_string();
    let action_service = extract_first(html, "action", "service")?.to_string();
    let action = extract_first(html, "action", "slug")?.to_string();
    let author_kind = extract_first(html, "author", "kind")?;
    let author_name = extract_first(html, "author", "name")?;
    let author = match author_kind {
        "user" => Author::User(author_name.strip_prefix("user_")?.parse().ok()?),
        "service" => Author::Service(author_name.to_string()),
        _ => return None,
    };
    let add_count: u64 = extract_first(html, "add-count", "value")?.parse().ok()?;
    Some(AppletRecord {
        id,
        name,
        trigger_service,
        trigger,
        action_service,
        action,
        author,
        add_count,
        created_week: 0,
        // The crawler sees the paper's public pages, which render only the
        // classic trigger→action pair.
        steps: Vec::new(),
    })
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
    /// Completed service records.
    pub services: Vec<ServiceRecord>,
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
        let mut services = self.services.clone();
        services.sort_by(|a, b| a.slug.cmp(&b.slug));
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
                    if let Some(rec) = parse_applet_page(&body) {
                        self.stats.applets_found += 1;
                        self.applets.push(rec);
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

    #[test]
    fn applet_page_parsing_roundtrip() {
        let html = r#"<div class="applet" data-id="123456">
            <h1>If new_email then turn_on_lights</h1>
            <span class="trigger" data-service="gmail" data-slug="new_email"></span>
            <span class="action" data-service="philips_hue" data-slug="turn_on_lights"></span>
            <span class="author" data-kind="user" data-name="user_42"></span>
            <span class="add-count" data-value="9876"></span></div>"#;
        let rec = parse_applet_page(html).unwrap();
        assert_eq!(rec.id, 123_456);
        assert_eq!(rec.trigger_service, "gmail");
        assert_eq!(rec.action, "turn_on_lights");
        assert_eq!(rec.author, Author::User(42));
        assert_eq!(rec.add_count, 9_876);
    }

    #[test]
    fn malformed_pages_parse_to_none() {
        assert!(parse_applet_page("<html>nothing here</html>").is_none());
        assert!(parse_applet_page("").is_none());
        // Missing author.
        let html = r#"<div class="applet" data-id="1"><h1>x</h1>
            <span class="trigger" data-service="a" data-slug="t"></span>
            <span class="action" data-service="b" data-slug="c"></span>
            <span class="add-count" data-value="1"></span></div>"#;
        assert!(parse_applet_page(html).is_none());
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

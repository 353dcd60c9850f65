//! A simulated ifttt.com web frontend.
//!
//! Serves the three page families the paper's crawler scraped (§3.1): the
//! partner-service index, per-service pages, and per-applet pages reachable
//! by enumerating numeric applet ids. Pages are small HTML documents with
//! machine-readable `data-*` attributes — the crawler parses them the way a
//! scraper parses real markup, rather than receiving structs.
//!
//! A configurable `overload_rate` makes the frontend return sporadic 503s,
//! which exercises the crawler's retry logic.

use crate::snapshot::{AppletRecord, Author, ServiceTable, Snapshot};
use rand::Rng;
use simnet::prelude::*;
use std::collections::HashMap;

/// The web frontend node.
#[derive(Debug)]
pub struct IftttFrontend {
    /// The week being served.
    pub view: Snapshot,
    /// Applet-page index: id → position in `view.applets`.
    by_id: HashMap<u32, usize>,
    /// Probability of answering 503 (simulated overload / rate limiting).
    pub overload_rate: f64,
    /// Pages served (for tests/metrics).
    pub pages_served: u64,
}

impl IftttFrontend {
    /// Serve `view` (one week of the site).
    pub fn new(view: Snapshot) -> Self {
        let by_id = view
            .applets
            .iter()
            .enumerate()
            .map(|(i, a)| (a.id, i))
            .collect();
        IftttFrontend {
            view,
            by_id,
            overload_rate: 0.0,
            pages_served: 0,
        }
    }

    /// Currently served week.
    pub fn week(&self) -> u32 {
        self.view.week
    }

    /// Largest applet page id currently served (bounds the crawler's
    /// enumeration the way six digits bounded the authors').
    pub fn max_applet_id(&self) -> u32 {
        self.view
            .applets
            .iter()
            .map(|a| a.id)
            .max()
            .unwrap_or(crate::crawler::APPLET_ID_BASE)
    }

    fn service_index_page(&self) -> String {
        let mut html = String::from("<html><body><ul class=\"services\">\n");
        for s in &self.view.services {
            html.push_str(&format!(
                "<li class=\"service\" data-slug=\"{}\" data-category=\"{}\">{}</li>\n",
                s.slug,
                s.category.index(),
                s.name
            ));
        }
        html.push_str("</ul></body></html>");
        html
    }

    fn service_page(&self, slug: &str) -> Option<String> {
        let s = self.view.services.iter().find(|s| s.slug == slug)?;
        let mut html = format!(
            "<html><body><div class=\"service\" data-slug=\"{}\" data-category=\"{}\">\n<h1>{}</h1>\n",
            s.slug,
            s.category.index(),
            s.name
        );
        for t in &s.triggers {
            html.push_str(&format!(
                "<li class=\"trigger\" data-slug=\"{t}\">{t}</li>\n"
            ));
        }
        for a in &s.actions {
            html.push_str(&format!(
                "<li class=\"action\" data-slug=\"{a}\">{a}</li>\n"
            ));
        }
        html.push_str("</div></body></html>");
        Some(html)
    }

    fn applet_page(&self, id: u32) -> Option<String> {
        let view = &self.view;
        let a: &AppletRecord = view.applets.get(*self.by_id.get(&id)?)?;
        let (author_kind, author_name) = match a.author {
            Author::User(u) => ("user", format!("user_{u}")),
            Author::Service(s) => ("service", view.service(s).slug.clone()),
        };
        let (name, adds) = (view.name(a), a.add_count);
        let (ts, t) = (view.trigger_service(a), view.trigger(a));
        let (as_, ac) = (view.action_service(a), view.action(a));
        Some(format!(
            "<html><body><div class=\"applet\" data-id=\"{id}\">\n\
             <h1>{name}</h1>\n\
             <span class=\"trigger\" data-service=\"{ts}\" data-slug=\"{t}\"></span>\n\
             <span class=\"action\" data-service=\"{as_}\" data-slug=\"{ac}\"></span>\n\
             <span class=\"author\" data-kind=\"{author_kind}\" data-name=\"{author_name}\"></span>\n\
             <span class=\"add-count\" data-value=\"{adds}\"></span>\n\
             </div></body></html>"
        ))
    }
}

impl Node for IftttFrontend {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if self.overload_rate > 0.0 && ctx.rng().gen::<f64>() < self.overload_rate {
            return HandlerResult::Reply(Response::unavailable());
        }
        self.pages_served += 1;
        let segs = req.path_segments();
        let page = match segs.as_slice() {
            ["services"] => Some(self.service_index_page()),
            ["services", slug] => self.service_page(slug),
            ["applets", id] => id.parse().ok().and_then(|id| self.applet_page(id)),
            _ => None,
        };
        match page {
            Some(html) => HandlerResult::Reply(
                Response::ok()
                    .with_header("Content-Type", "text/html")
                    .with_body(html),
            ),
            None => HandlerResult::Reply(Response::not_found()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Ecosystem, GeneratorConfig};

    fn frontend() -> IftttFrontend {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(5));
        IftttFrontend::new(eco.canonical_snapshot())
    }

    #[test]
    fn index_lists_all_services() {
        let f = frontend();
        let html = f.service_index_page();
        assert_eq!(html.matches("class=\"service\"").count(), 408);
        assert!(html.contains("data-slug=\"amazon_alexa\""));
    }

    #[test]
    fn service_page_lists_triggers_and_actions() {
        let f = frontend();
        let html = f.service_page("philips_hue").unwrap();
        assert!(html.contains("data-slug=\"turn_on_lights\""));
        assert!(f.service_page("nonexistent").is_none());
    }

    #[test]
    fn applet_pages_resolve_by_id() {
        let f = frontend();
        let id = f.view.applets[0].id;
        let html = f.applet_page(id).unwrap();
        assert!(html.contains(&format!("data-id=\"{id}\"")));
        assert!(html.contains("add-count"));
        assert!(f.applet_page(99).is_none());
    }

    #[test]
    fn a_week_0_frontend_serves_fewer_applets() {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(5));
        let early = IftttFrontend::new(eco.snapshot(0));
        let canonical = IftttFrontend::new(eco.canonical_snapshot());
        assert!(early.by_id.len() < canonical.by_id.len());
        assert_eq!((early.week(), canonical.week()), (0, 18));
    }
}

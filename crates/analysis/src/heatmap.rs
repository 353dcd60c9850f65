//! Figure 2: the trigger-category × action-category interaction heat map.
//!
//! "The intensity of the color block at Row i and Column j indicates the
//! add count of applets whose trigger and action belong to service category
//! i and j, respectively."

use crate::render;

use ecosystem::{ServiceTable, Snapshot};
use serde::{Deserialize, Serialize};

/// The 14×14 interaction matrix measured from a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    /// Add counts: `cells[trigger_cat - 1][action_cat - 1]`.
    pub cells: Vec<Vec<u64>>,
    /// Total add count (for normalization).
    pub total: u64,
}

impl Heatmap {
    /// Measure the interaction matrix from a snapshot.
    pub fn of(snapshot: &Snapshot) -> Heatmap {
        let mut cells = vec![vec![0u64; 14]; 14];
        let mut total = 0u64;
        let cat = |id| snapshot.service(id).category.index() - 1;
        for a in &snapshot.applets {
            cells[cat(a.trigger.service)][cat(a.action.service)] += a.add_count;
            total += a.add_count;
        }
        Heatmap { cells, total }
    }

    /// Row sums as fractions of the total (Table 1's trigger AC column).
    pub fn row_shares(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|row| row.iter().sum::<u64>() as f64 / self.total.max(1) as f64)
            .collect()
    }

    /// Column sums as fractions of the total (Table 1's action AC column).
    pub fn col_shares(&self) -> Vec<f64> {
        (0..14)
            .map(|j| self.cells.iter().map(|r| r[j]).sum::<u64>() as f64 / self.total.max(1) as f64)
            .collect()
    }

    /// The `k` hottest cells as (trigger cat, action cat, share).
    pub fn hottest(&self, k: usize) -> Vec<(usize, usize, f64)> {
        let mut all: Vec<(usize, usize, f64)> = (0..14)
            .flat_map(|i| {
                (0..14)
                    .map(move |j| (i + 1, j + 1, 0.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        for cell in all.iter_mut() {
            cell.2 = self.cells[cell.0 - 1][cell.1 - 1] as f64 / self.total.max(1) as f64;
        }
        all.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
        all.truncate(k);
        all
    }

    /// ASCII rendering with log-scaled intensity glyphs (the textual
    /// Figure 2).
    pub fn render(&self) -> String {
        let glyphs = [' ', '.', ':', '+', 'x', 'X', '#', '@'];
        let max = self.cells.iter().flatten().copied().max().unwrap_or(1) as f64;
        let mut out = String::from("      action category →\n     ");
        for j in 1..=14 {
            out.push_str(&format!("{j:>3}"));
        }
        out.push('\n');
        for (i, row) in self.cells.iter().enumerate() {
            out.push_str(&format!("T{:>2} | ", i + 1));
            for &v in row {
                let g = if v == 0 {
                    ' '
                } else {
                    // Log intensity scaled to the glyph ramp.
                    let t = ((v as f64).ln() / max.ln()).clamp(0.0, 1.0);
                    glyphs[((t * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1)]
                };
                out.push_str(&format!("  {g}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("total adds: {}\n", render::count(self.total)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::taxonomy::Category;
    use ecosystem::{AppletRecord, Author, ServiceRecord, Slot};

    fn snap() -> Snapshot {
        let svc = |slug: &str, cat: Category| ServiceRecord {
            slug: slug.into(),
            name: slug.into(),
            category: cat,
            triggers: vec!["t".into()],
            actions: vec!["a".into()],
            created_week: 0,
            unlisted_triggers: Vec::new(),
            unlisted_actions: Vec::new(),
        };
        let slot = |service| Slot { service, slot: 0 };
        let applet = |id: u32, ts: u32, as_: u32, adds: u64| AppletRecord {
            id,
            trigger: slot(ts),
            action: slot(as_),
            author: Author::User(1),
            add_count: adds,
            created_week: 0,
            steps: Vec::new(),
        };
        Snapshot {
            week: 18,
            date: "d".into(),
            services: vec![
                svc("iot", Category::SmartHomeDevice),
                svc("mail", Category::Email),
            ],
            applets: vec![
                applet(1, 0, 1, 30),
                applet(2, 1, 0, 50),
                applet(3, 0, 0, 20),
            ],
        }
    }

    #[test]
    fn cells_accumulate_add_counts() {
        let h = Heatmap::of(&snap());
        assert_eq!(h.total, 100);
        assert_eq!(h.cells[0][12], 30); // IoT → Email
        assert_eq!(h.cells[12][0], 50); // Email → IoT
        assert_eq!(h.cells[0][0], 20);
    }

    #[test]
    fn shares_sum_to_one() {
        let h = Heatmap::of(&snap());
        assert!((h.row_shares().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((h.col_shares().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hottest_orders_by_share() {
        let h = Heatmap::of(&snap());
        let top = h.hottest(2);
        assert_eq!((top[0].0, top[0].1), (13, 1));
        assert_eq!((top[1].0, top[1].1), (1, 13));
    }

    #[test]
    fn render_is_14_rows() {
        let h = Heatmap::of(&snap());
        let text = h.render();
        assert_eq!(text.lines().filter(|l| l.starts_with('T')).count(), 14);
        assert!(text.contains("total adds: 100"));
    }
}

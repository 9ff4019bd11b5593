//! A run's result: metrics by name with unit and sample count, plus the
//! op accounting behind `error_rate`.

use crate::calib;
use crate::stats::{Samples, Summary};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from (0 where the layer does no
    /// work on this workload; the value is then 0 as well).
    pub n: usize,
    /// For a figure scaled to the reference machine speed, the same
    /// median before scaling.
    pub measured: Option<f64>,
}

/// One served campaign's share of a run, as measured.
pub struct Part {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub answers: u64,
    pub drive_s: f64,
    pub request: Summary,
    pub submit: Summary,
    /// The machine-speed reference's round trip through the campaign.
    pub rtt_us: f64,
}

/// How a figure is brought to the reference machine speed.
#[derive(Clone, Copy)]
enum Kind {
    Time,
    Rate,
    Memory,
}

/// The median over `parts` of each campaign's figure, scaled to the
/// reference speed with the campaign's own reference round trip, and the
/// same median unscaled.
fn median_over(parts: &[Part], kind: Kind, f: &dyn Fn(&Part) -> Option<f64>) -> (f64, f64) {
    let (mut scaled, mut measured) = (Samples::default(), Samples::default());
    for p in parts {
        let Some(v) = f(p) else { continue };
        let k = calib::scale(p.rtt_us);
        scaled.push(match kind {
            Kind::Time => v * k,
            Kind::Rate => v / k,
            Kind::Memory => v,
        });
        measured.push(v);
    }
    (
        scaled.median().unwrap_or(0.0),
        measured.median().unwrap_or(0.0),
    )
}

/// Accepted answers per second, at the reference speed: the median over
/// `parts` of each campaign's rate.
pub fn answers_per_s(parts: &[Part]) -> f64 {
    median_over(parts, Kind::Rate, &|p| Some(p.answers as f64 / p.drive_s)).0
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            n,
            measured: None,
        });
    }

    /// Median of `s`, or 0 with no samples.
    pub fn p50(&mut self, name: &'static str, unit: &'static str, s: &Samples) {
        self.add(name, unit, s.median().unwrap_or(0.0), s.len());
    }

    /// p99 of `s`, or 0 when fewer than ten samples lie beyond it.
    pub fn p99(&mut self, name: &'static str, unit: &'static str, s: &Samples) {
        match s.percentile(0.99) {
            Some(v) => self.add(name, unit, v, s.len()),
            None => self.add(name, unit, 0.0, 0),
        }
    }

    /// `num / den` with `den` as the sample count; 0 when `den` is 0.
    pub fn ratio(&mut self, name: &'static str, unit: &'static str, num: f64, den: u64) {
        let v = if den == 0 { 0.0 } else { num / den as f64 };
        self.add(name, unit, v, den as usize);
    }

    /// The end-to-end metrics of a run of several campaigns. Each time
    /// and rate of a campaign is first scaled to the reference machine
    /// speed with the reference round trip measured through that
    /// campaign (see `calib`); each figure is then the median over the
    /// campaigns, so that a burst of machine noise in one campaign does
    /// not move the run's. A p99 median is over the campaigns with the
    /// 1,000 samples a p99 of their own needs. Memory is not scaled.
    pub fn end_to_end(&mut self, parts: &[Part]) {
        let mut figure = |(name, unit, n), kind, f: &dyn Fn(&Part) -> Option<f64>| {
            let (value, measured) = median_over(parts, kind, f);
            self.metrics.push(Metric {
                name,
                unit,
                value,
                n,
                measured: (!matches!(kind, Kind::Memory)).then_some(measured),
            });
        };
        let campaigns = parts.len();
        let answers = parts.iter().map(|p| p.answers as usize).sum();
        figure(("setup_s", "s", campaigns), Kind::Time, &|p| {
            Some(p.setup_s)
        });
        figure(("answers_per_s", "1/s", answers), Kind::Rate, &|p| {
            Some(p.answers as f64 / p.drive_s)
        });
        type Pick = fn(&Part) -> &Summary;
        let latencies: [(&'static str, &'static str, Pick); 2] = [
            ("request_p50_us", "request_p99_us", |p| &p.request),
            ("submit_p50_us", "submit_p99_us", |p| &p.submit),
        ];
        for (p50_name, p99_name, of) in latencies {
            let n = parts.iter().map(|p| of(p).n).sum();
            let tail_n = parts
                .iter()
                .filter(|p| of(p).p99.is_some())
                .map(|p| of(p).n)
                .sum();
            figure((p50_name, "us", n), Kind::Time, &|p| of(p).p50);
            figure((p99_name, "us", tail_n), Kind::Time, &|p| of(p).p99);
        }
        figure(("peak_rss_mb", "MB", campaigns), Kind::Memory, &|p| {
            Some(p.peak_rss_mb)
        });
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table: one `# metric` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "# metric {:<40} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            ));
            if let Some(v) = m.measured {
                out.push_str(&format!(" (as measured {v:.4})"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "# metric {:<40} {:>16.6} {:<6} n={} (failed={})\n",
            "error_rate",
            self.error_rate(),
            "1",
            self.attempted,
            self.failed
        ));
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value", "unit"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full precision, and never `NaN`/`inf`, which JSON cannot carry.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign measured on a machine `slow` times slower than the
    /// reference, everything slowed alike.
    fn part(slow: f64) -> Part {
        let summary = |p50: f64, p99: f64| Summary {
            n: 2_000,
            p50: Some(p50 * slow),
            p99: Some(p99 * slow),
        };
        Part {
            setup_s: 0.5 * slow,
            peak_rss_mb: 10.0,
            answers: 1_000,
            drive_s: slow,
            request: summary(10.0, 100.0),
            submit: summary(20.0, 4_000.0),
            rtt_us: calib::REFERENCE_RTT_US * slow,
        }
    }

    fn end_to_end(parts: &[Part]) -> Report {
        let mut r = Report::default();
        r.end_to_end(parts);
        r
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric reported")
    }

    #[test]
    fn a_slower_machine_reads_the_same_once_scaled() {
        let reference = end_to_end(&[part(1.0)]);
        let slow = end_to_end(&[part(1.6)]);
        for (a, b) in reference.metrics.iter().zip(&slow.metrics) {
            assert_eq!(a.name, b.name);
            assert!((a.value - b.value).abs() < 1e-9 * a.value, "{a:?} {b:?}");
            if a.name != "peak_rss_mb" {
                assert_ne!(a.measured, b.measured, "{}", a.name);
            }
        }
        assert_eq!(value(&reference, "answers_per_s"), 1_000.0);
    }

    #[test]
    fn each_campaign_is_scaled_by_its_own_reference() {
        // Three campaigns, each on a machine of another speed: the
        // scaled medians are the reference figures.
        let r = end_to_end(&[part(0.7), part(1.3), part(1.0)]);
        assert!((value(&r, "request_p50_us") - 10.0).abs() < 1e-9);
        assert!((value(&r, "submit_p99_us") - 4_000.0).abs() < 1e-6);
        assert!((value(&r, "setup_s") - 0.5).abs() < 1e-12);
    }
}

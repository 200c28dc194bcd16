//! SLO evaluation: turns raw [`RunStats`] plus the scenario's
//! [`QosRequirement`] contract into a verdict report.
//!
//! Clause mapping, one per contract field that is actually set:
//!
//! * `max_latency` — checked against the **p95** of completed-request
//!   latency (a tail bound; the mean hides overload);
//! * `min_throughput` — checked against achieved completions per second
//!   of virtual time over the load window;
//! * `min_availability` — checked against `completed / offered`, so both
//!   admission rejections and losses count against availability;
//! * `reliable_delivery` — demands zero lost (unanswered) requests.
//!
//! Rendering and JSON are fully deterministic: integer microseconds,
//! fixed-precision floats, fields in a fixed order.
//!
//! [`QosRequirement`]: rmodp_core::contract::QosRequirement

use rmodp_observe::export::escape_into;

use crate::driver::RunStats;
use crate::scenario::Scenario;

/// One evaluated contract clause.
#[derive(Debug, Clone, PartialEq)]
pub struct SloClause {
    /// Clause name (`latency_p95_us`, `throughput_per_sec`, …).
    pub name: String,
    /// The bound the contract demands, rendered.
    pub bound: String,
    /// What the run achieved, rendered.
    pub achieved: String,
    /// Whether the clause held.
    pub pass: bool,
}

/// The verdict report for one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Load model description.
    pub load: String,
    /// Configured load window, virtual µs.
    pub duration_us: u64,
    /// Virtual time from first arrival to last processed event, µs.
    pub elapsed_us: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected (admission/replay refusals).
    pub rejected: u64,
    /// Client-side errors.
    pub errors: u64,
    /// Requests never answered.
    pub lost: u64,
    /// Server-side admission shed count for the run.
    pub admission_shed: u64,
    /// Offered rate over the load window, requests per virtual second.
    pub offered_per_sec: f64,
    /// Achieved completion rate over the load window.
    pub achieved_per_sec: f64,
    /// Latency samples in the histogram (post-warmup completions).
    pub latency_samples: u64,
    /// Latency quantiles and extremes, µs.
    pub p50_us: u64,
    /// 95th percentile latency, µs.
    pub p95_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Maximum latency, µs.
    pub max_us: u64,
    /// The evaluated contract clauses, in a fixed order.
    pub clauses: Vec<SloClause>,
    /// Overall verdict: all clauses passed.
    pub pass: bool,
}

/// Formats a float deterministically for reports (3 decimal places).
fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Evaluates a finished run against its scenario's contract.
pub fn evaluate(scenario: &Scenario, stats: &RunStats) -> SloReport {
    let duration_us = scenario.duration.as_micros();
    let elapsed_us = stats.finished.since(stats.started).as_micros();
    let window_secs = duration_us as f64 / 1e6;
    let offered_per_sec = if window_secs > 0.0 {
        stats.offered as f64 / window_secs
    } else {
        0.0
    };
    let achieved_per_sec = if window_secs > 0.0 {
        stats.completed as f64 / window_secs
    } else {
        0.0
    };
    let (p50, p95, p99) = stats.latency.quantiles();

    let contract = &scenario.contract;
    let mut clauses = Vec::new();
    if let Some(max) = contract.max_latency {
        let bound_us = max.as_micros() as u64;
        clauses.push(SloClause {
            name: "latency_p95_us".into(),
            bound: format!("<= {bound_us}"),
            achieved: p95.to_string(),
            pass: p95 <= bound_us,
        });
    }
    if let Some(min) = contract.min_throughput {
        clauses.push(SloClause {
            name: "throughput_per_sec".into(),
            bound: format!(">= {}", f3(min)),
            achieved: f3(achieved_per_sec),
            pass: achieved_per_sec >= min,
        });
    }
    if let Some(min) = contract.min_availability {
        let availability = if stats.offered == 0 {
            1.0
        } else {
            stats.completed as f64 / stats.offered as f64
        };
        clauses.push(SloClause {
            name: "availability".into(),
            bound: format!(">= {}", f3(min)),
            achieved: f3(availability),
            pass: availability >= min,
        });
    }
    if contract.reliable_delivery {
        clauses.push(SloClause {
            name: "reliable_delivery".into(),
            bound: "lost == 0".into(),
            achieved: stats.lost.to_string(),
            pass: stats.lost == 0,
        });
    }
    let pass = clauses.iter().all(|c| c.pass);

    SloReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        load: scenario.load.describe(),
        duration_us,
        elapsed_us,
        offered: stats.offered,
        completed: stats.completed,
        rejected: stats.rejected,
        errors: stats.errors,
        lost: stats.lost,
        admission_shed: stats.admission_shed,
        offered_per_sec,
        achieved_per_sec,
        latency_samples: stats.latency.count() as u64,
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
        mean_us: stats.latency.mean(),
        max_us: stats.latency.max(),
        clauses,
        pass,
    }
}

impl SloReport {
    /// Renders the report as an aligned, deterministic text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario {:<24} seed {:<8} {}\n",
            self.scenario, self.seed, self.load
        ));
        out.push_str(&format!(
            "  window {}us  elapsed {}us\n",
            self.duration_us, self.elapsed_us
        ));
        out.push_str(&format!(
            "  offered {} ({}/s)  completed {} ({}/s)  rejected {}  errors {}  lost {}  shed {}\n",
            self.offered,
            f3(self.offered_per_sec),
            self.completed,
            f3(self.achieved_per_sec),
            self.rejected,
            self.errors,
            self.lost,
            self.admission_shed,
        ));
        out.push_str(&format!(
            "  latency (us, {} samples): p50 {}  p95 {}  p99 {}  mean {}  max {}\n",
            self.latency_samples,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            f3(self.mean_us),
            self.max_us,
        ));
        if self.clauses.is_empty() {
            out.push_str("  contract: (none)\n");
        } else {
            out.push_str(&format!(
                "  {:<22} {:>14} {:>14}  verdict\n",
                "clause", "bound", "achieved"
            ));
            for c in &self.clauses {
                out.push_str(&format!(
                    "  {:<22} {:>14} {:>14}  {}\n",
                    c.name,
                    c.bound,
                    c.achieved,
                    if c.pass { "PASS" } else { "FAIL" }
                ));
            }
        }
        out.push_str(&format!(
            "  verdict: {}\n",
            if self.pass { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Serialises the report as deterministic JSON: fixed field order,
    /// integer microseconds, 3-decimal floats. Same run, same bytes.
    pub fn to_json(&self) -> String {
        let text = |v: &str| {
            let mut out = String::with_capacity(v.len());
            escape_into(&mut out, v);
            out
        };
        let mut s = String::from("{");
        s.push_str(&format!("\"scenario\":\"{}\"", text(&self.scenario)));
        s.push_str(&format!(",\"seed\":{}", self.seed));
        s.push_str(&format!(",\"load\":\"{}\"", text(&self.load)));
        s.push_str(&format!(",\"duration_us\":{}", self.duration_us));
        s.push_str(&format!(",\"elapsed_us\":{}", self.elapsed_us));
        s.push_str(&format!(",\"offered\":{}", self.offered));
        s.push_str(&format!(",\"completed\":{}", self.completed));
        s.push_str(&format!(",\"rejected\":{}", self.rejected));
        s.push_str(&format!(",\"errors\":{}", self.errors));
        s.push_str(&format!(",\"lost\":{}", self.lost));
        s.push_str(&format!(",\"admission_shed\":{}", self.admission_shed));
        s.push_str(&format!(
            ",\"offered_per_sec\":{}",
            f3(self.offered_per_sec)
        ));
        s.push_str(&format!(
            ",\"achieved_per_sec\":{}",
            f3(self.achieved_per_sec)
        ));
        s.push_str(&format!(",\"latency_samples\":{}", self.latency_samples));
        s.push_str(&format!(
            ",\"latency_us\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{},\"max\":{}}}",
            self.p50_us,
            self.p95_us,
            self.p99_us,
            f3(self.mean_us),
            self.max_us
        ));
        s.push_str(",\"clauses\":[");
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"bound\":\"{}\",\"achieved\":\"{}\",\"pass\":{}}}",
                text(&c.name),
                text(&c.bound),
                text(&c.achieved),
                c.pass
            ));
        }
        s.push(']');
        s.push_str(&format!(",\"pass\":{}", self.pass));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LoadModel;
    use rmodp_core::contract::QosRequirement;
    use rmodp_netsim::time::{SimDuration, SimTime};
    use std::time::Duration;

    fn stats(completed: u64, offered: u64, lats: &[u64]) -> RunStats {
        let mut s = RunStats {
            offered,
            completed,
            started: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_secs(1),
            ..RunStats::default()
        };
        for &l in lats {
            s.latency.observe(l);
        }
        s
    }

    fn scenario_with(contract: QosRequirement) -> Scenario {
        Scenario::new(
            "t",
            1,
            LoadModel::Closed {
                population: 1,
                think_time: SimDuration::ZERO,
            },
        )
        .with_contract(contract)
    }

    #[test]
    fn clauses_follow_contract_fields() {
        let sc = scenario_with(
            QosRequirement::none()
                .with_max_latency(Duration::from_millis(5))
                .with_min_throughput(50.0)
                .with_min_availability(0.99)
                .reliable(),
        );
        let report = evaluate(&sc, &stats(100, 100, &[1000, 2000, 3000]));
        assert_eq!(report.clauses.len(), 4);
        assert!(report.pass, "{}", report.render());
        assert_eq!(report.achieved_per_sec, 100.0);
    }

    #[test]
    fn tail_latency_violation_fails() {
        let sc = scenario_with(QosRequirement::none().with_max_latency(Duration::from_millis(1)));
        let report = evaluate(&sc, &stats(3, 3, &[500, 800, 9000]));
        assert!(!report.pass);
        assert_eq!(report.clauses[0].name, "latency_p95_us");
        assert!(!report.clauses[0].pass);
    }

    #[test]
    fn availability_counts_rejections() {
        let sc = scenario_with(QosRequirement::none().with_min_availability(0.95));
        let mut s = stats(90, 100, &[100]);
        s.rejected = 10;
        let report = evaluate(&sc, &s);
        assert!(!report.pass, "90/100 < 0.95 must fail");
    }

    #[test]
    fn empty_contract_passes_vacuously() {
        let sc = scenario_with(QosRequirement::none());
        let report = evaluate(&sc, &stats(1, 1, &[10]));
        assert!(report.clauses.is_empty());
        assert!(report.pass);
        assert!(report.render().contains("contract: (none)"));
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let sc = scenario_with(QosRequirement::none().with_min_throughput(1.0));
        let s = stats(10, 10, &[100, 200]);
        let a = evaluate(&sc, &s).to_json();
        let b = evaluate(&sc, &s).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"latency_us\":{\"p50\":"));
        assert!(a.contains("\"pass\":true"));
    }

    #[test]
    fn json_escapes_string_fields() {
        let sc = scenario_with(QosRequirement::none().with_min_throughput(1.0));
        let mut report = evaluate(&sc, &stats(10, 10, &[100, 200]));
        let hostile = || String::from("a\"b\\c\nd\u{1}e");
        (report.scenario, report.load) = (hostile(), hostile());
        let c = &mut report.clauses[0];
        (c.name, c.bound, c.achieved) = (hostile(), hostile(), hostile());
        let json = report.to_json();
        assert!(json.starts_with(r#"{"scenario":"a\"b\\c\nd\u0001e","seed":1,"#));
        assert_eq!(
            json.matches(r#":"a\"b\\c\nd\u0001e","#).count(),
            5,
            "{json}"
        );
    }
}

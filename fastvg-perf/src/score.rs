//! Three-way scoring of answers and the answer digest.
//!
//! Every answer is *correct* (a report whose α coefficients are within
//! the success tolerance of the device's ground truth), a *classified
//! failure* (`ok: false` with an error category) or *silently wrong*
//! (`ok: true`, but outside the tolerance).

use fastvg_core::report::{Method, SuccessCriteria};
use fastvg_wire::{fnv1a64, Json};
use qd_physics::device::PairGroundTruth;

/// How an answer scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Correct,
    /// A failure the service named.
    Classified,
    /// Returned as a success, but wrong.
    SilentWrong,
}

/// One well-formed answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// `alpha12` and `alpha21` of a report (`None`: a classified failure).
    pub alphas: Option<(f64, f64)>,
    /// Probes spent (reports only; failures carry no probe count).
    pub probes: Option<u64>,
    /// Simulated dwell, ns (reports only).
    pub dwell_ns: Option<u64>,
    /// The deterministic fields, one line, for the digest.
    pub line: String,
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("answer lacks {key:?}"))
}

fn number(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn count(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("{key:?} is not a count"))
}

impl Answer {
    /// Scores the answer against the device's ground truth.
    pub fn verdict(&self, truth: &PairGroundTruth) -> Verdict {
        match self.alphas {
            None => Verdict::Classified,
            Some((alpha12, alpha21))
                if SuccessCriteria::default().judge(alpha12, alpha21, truth) =>
            {
                Verdict::Correct
            }
            Some(_) => Verdict::SilentWrong,
        }
    }
}

/// Reads a result document answering a `method` request.
///
/// # Errors
///
/// Returns a message for malformed answers (not JSON, missing fields,
/// or a report for another method) — those count as errors.
pub fn read(body: &[u8], method: Method) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    let doc = Json::parse(text.trim_end_matches(['\r', '\n'])).map_err(|e| e.to_string())?;
    let ok = field(&doc, "ok")?
        .as_bool()
        .ok_or_else(|| "\"ok\" is not a bool".to_string())?;
    if !ok {
        let category = field(field(&doc, "error")?, "category")?
            .as_str()
            .ok_or_else(|| "error category is not a string".to_string())?
            .to_string();
        return Ok(Answer {
            alphas: None,
            probes: None,
            dwell_ns: None,
            line: format!("error|{category}"),
        });
    }
    let report = field(&doc, "report")?;
    let asked = method.wire_name();
    let method = field(report, "method")?.as_str().unwrap_or("");
    if method != asked {
        return Err(format!("report for method {method:?}, asked {asked:?}"));
    }
    let alpha12 = number(report, "alpha12")?;
    let alpha21 = number(report, "alpha21")?;
    let probes = count(report, "probes")?;
    let dwell_ns = count(report, "simulated_dwell_ns")?;
    // Wall-clock fields (`compute_time_ns`, stage `elapsed_ns`) vary on
    // every run and stay out of the digest.
    let line = format!(
        "{method}|{:016x}|{:016x}|{:016x}|{:016x}|{probes}|{}|{:016x}|{dwell_ns}",
        number(report, "slope_h")?.to_bits(),
        number(report, "slope_v")?.to_bits(),
        alpha12.to_bits(),
        alpha21.to_bits(),
        count(report, "unique_pixels")?,
        number(report, "coverage")?.to_bits(),
    );
    Ok(Answer {
        alphas: Some((alpha12, alpha21)),
        probes: Some(probes),
        dwell_ns: Some(dwell_ns),
        line,
    })
}

/// The three-way tally of a set of answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Correct answers.
    pub correct: usize,
    /// Classified failures.
    pub classified: usize,
    /// Silently wrong answers.
    pub silent_wrong: usize,
}

impl Tally {
    /// Tallies `verdicts`.
    pub fn of(verdicts: impl IntoIterator<Item = Verdict>) -> Tally {
        let mut tally = Tally::default();
        for verdict in verdicts {
            match verdict {
                Verdict::Correct => tally.correct += 1,
                Verdict::Classified => tally.classified += 1,
                Verdict::SilentWrong => tally.silent_wrong += 1,
            }
        }
        tally
    }
}

/// `fnv1a64` over the answers' deterministic lines, in stream order.
pub fn digest<'a>(answers: impl IntoIterator<Item = &'a Answer>) -> u64 {
    let mut text = String::new();
    for answer in answers {
        text.push_str(&answer.line);
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

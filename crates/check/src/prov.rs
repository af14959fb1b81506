//! Provenance-report cross-validation (`IC07xx`).
//!
//! A provenance report (`isax-prov`) claims a story about a run: which
//! candidates were discovered, which were pruned, which became CFUs and
//! how many cycles each replacement saved. This pass decodes the report
//! with [`isax_prov::parse_report`] and cross-validates that story
//! against the run's actual artifacts:
//!
//! * `IC0700` — the report does not decode (its decoder message says
//!   which field of which candidate and event), or does not re-encode
//!   identically: its stored fates, aggregates or summary disagree with
//!   its events;
//! * `IC0701` — every CFU in the MDES has a `SelectedAsCfu` event whose
//!   candidate was also `Discovered` (nothing was selected out of thin
//!   air);
//! * `IC0702` — the `Replaced` cycle deltas sum to the compiled
//!   program's total claimed savings;
//! * `IC0703` — no event references a CFU id or fingerprint unknown to
//!   the MDES;
//! * `IC0704` — no candidate with terminal fate `pruned` appears in the
//!   MDES (pruned means it never became a candidate).

use crate::diag::{Diagnostic, Location, Report};
use isax_compiler::{CompiledProgram, Mdes};
use isax_json::Value;
use isax_prov::{Fate, ProvEvent};

/// The path of the first place `a` and `b` differ (`` for the root),
/// or `None` when they are equal.
fn first_difference(a: &Value, b: &Value) -> Option<String> {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => x
            .iter()
            .find_map(|(k, va)| match b.get(k) {
                None => Some(format!(".{k}")),
                Some(vb) => first_difference(va, vb).map(|p| format!(".{k}{p}")),
            })
            .or_else(|| {
                y.iter()
                    .find(|(k, _)| a.get(k).is_none())
                    .map(|(k, _)| format!(".{k}"))
            })
            .or_else(|| (a != b).then(String::new)),
        (Value::Array(x), Value::Array(y)) => x
            .iter()
            .zip(y)
            .enumerate()
            .find_map(|(i, (va, vb))| first_difference(va, vb).map(|p| format!("[{i}]{p}")))
            .or_else(|| (a != b).then(String::new)),
        _ => (a != b).then(String::new),
    }
}

/// Cross-validates a provenance report against the run that produced it.
///
/// `report_doc` is the parsed JSON report from `isax_prov::build_report`.
/// Pass the run's `mdes` to enable the selection cross-checks
/// (`IC0701`/`IC0703`/`IC0704`) and its `compiled` output to enable the
/// cycle-accounting check (`IC0702`); with both `None` only the
/// decode/re-encode `IC0700` rule runs. A report that does not decode
/// gets that one `IC0700` and no further checks.
pub fn check_provenance(
    report_doc: &Value,
    mdes: Option<&Mdes>,
    compiled: Option<&CompiledProgram>,
) -> Report {
    let mut r = Report::new();
    let (app, log) = match isax_prov::parse_report(report_doc) {
        Ok(decoded) => decoded,
        Err(e) => {
            r.push(Diagnostic::error(
                "IC0700",
                Location::Whole,
                format!("provenance report does not decode: {e}"),
            ));
            return r;
        }
    };
    if let Some(at) = first_difference(report_doc, &isax_prov::build_report(&app, &log)) {
        r.push(Diagnostic::error(
            "IC0700",
            Location::Whole,
            format!(
                "provenance report does not re-encode identically (first at `report{at}`): \
                 its stored fates, aggregates or summary disagree with its events"
            ),
        ));
    }

    let cands = isax_prov::candidates(&log);
    let hex = isax_prov::fingerprint_hex;
    if let Some(mdes) = mdes {
        let cfu_fps: Vec<u64> = mdes
            .cfus
            .iter()
            .map(|c| isax_select::pattern_fingerprint(&c.pattern).0)
            .collect();
        // IC0701: every MDES CFU was selected on the record, from a
        // discovered candidate. Only meaningful when the report covers
        // the select stage (a compile-only report legitimately has no
        // selection events).
        let covers_select = log.events().iter().any(|(_, e)| e.stage() == "select");
        for (pos, &fp) in cfu_fps.iter().enumerate().filter(|_| covers_select) {
            let id = pos as u16;
            let Some(c) = cands.iter().find(|c| c.cfu == Some(id)) else {
                r.push(Diagnostic::error(
                    "IC0701",
                    Location::Cfu { id },
                    "CFU in the MDES has no SelectedAsCfu event in the provenance report",
                ));
                continue;
            };
            if c.fingerprint != fp {
                r.push(Diagnostic::error(
                    "IC0703",
                    Location::Cfu { id },
                    format!(
                        "SelectedAsCfu candidate {} does not match the CFU's pattern fingerprint {}",
                        hex(c.fingerprint),
                        hex(fp)
                    ),
                ));
            }
            if !c
                .events
                .iter()
                .any(|e| matches!(e, ProvEvent::Discovered { .. }))
            {
                r.push(Diagnostic::error(
                    "IC0701",
                    Location::Cfu { id },
                    "selected CFU's candidate has no Discovered event",
                ));
            }
        }
        // IC0703: every referenced CFU id must exist in the MDES.
        for (fp, ev) in log.events() {
            let (ProvEvent::SelectedAsCfu { cfu: id, .. }
            | ProvEvent::SubsumedBy { cfu: id }
            | ProvEvent::Wildcarded { partner: id }) = ev
            else {
                continue;
            };
            if mdes.cfu(*id).is_none() {
                r.push(Diagnostic::error(
                    "IC0703",
                    Location::Cfu { id: *id },
                    format!(
                        "candidate {} references CFU id {id} unknown to the MDES",
                        hex(*fp)
                    ),
                ));
            }
        }
        // IC0704: a pruned candidate by definition never became a CFU.
        for c in cands.iter().filter(|c| c.fate == Fate::Pruned) {
            if let Some(pos) = cfu_fps.iter().position(|&fp| fp == c.fingerprint) {
                r.push(Diagnostic::error(
                    "IC0704",
                    Location::Cfu { id: pos as u16 },
                    format!(
                        "candidate {} has fate `pruned` but appears in the MDES",
                        hex(c.fingerprint)
                    ),
                ));
            }
        }
    }

    // IC0702: cycle accounting. Every applied replacement carries its
    // savings; the report's Replaced deltas must sum to the same total —
    // which is exactly the baseline-vs-custom cycle gap the evaluation
    // reports (before scheduling slack).
    if let Some(compiled) = compiled {
        let claimed: u64 = compiled.applied.iter().map(|a| a.savings).sum();
        let replaced_delta = cands
            .iter()
            .fold(0u64, |sum, c| sum.saturating_add(c.cycles_saved));
        if claimed != replaced_delta {
            r.push(Diagnostic::error(
                "IC0702",
                Location::Whole,
                format!(
                    "Replaced cycle deltas sum to {replaced_delta} but the compiled program \
                     claims {claimed} cycles saved"
                ),
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_explore::{explore_app, ExploreConfig};
    use isax_hwlib::HwLibrary;
    use isax_ir::{function_dfgs, FunctionBuilder, Program};
    use isax_select::{combine, select_greedy, SelectConfig};

    fn parse(text: &str) -> isax_json::Value {
        isax_json::parse(text).expect("test JSON parses")
    }

    /// A one-candidate report: a seed operation discovered in DFG 0.
    fn minimal_report() -> String {
        let mut log = isax_prov::ProvLog::default();
        log.record(
            0xab,
            ProvEvent::Discovered {
                dfg: 0,
                size: 1,
                delay: 0.0,
                area: 0.0,
                inputs: 1,
                outputs: 1,
                score: None,
            },
        );
        isax_prov::build_report("demo", &log).to_string_pretty()
    }

    #[test]
    fn structural_rules_fire_on_malformed_reports() {
        let text = minimal_report();
        for (from, to, names) in [
            ("\"version\": 1", "\"version\": 99", "version 99"),
            (
                "\"00000000000000ab\"",
                "\"xyz\"",
                "candidate 0: bad `fingerprint`",
            ),
            (
                "\"fate\": \"",
                "\"fate\": \"vanished-",
                "candidate 0: bad `fate`",
            ),
            (
                "\"stage\": \"explore\"",
                "\"stage\": \"compile\"",
                "candidate 0: event 0: bad `stage`",
            ),
            (
                "\"inputs\": 1",
                "\"inputs\": \"one\"",
                "event 0: bad `inputs`",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let r = check_provenance(&parse(&text.replacen(from, to, 1)), None, None);
            assert!(r.has_code("IC0700"), "{to}");
            assert_eq!(r.diagnostics().len(), 1, "{r}");
            assert!(r.to_string().contains(names), "{r}");
        }
    }

    #[test]
    fn clean_minimal_report_passes() {
        let text = minimal_report();
        let r = check_provenance(&parse(&text), None, None);
        assert!(r.is_clean(), "{r}");

        // The same report with a stored fate its events do not support.
        let fate = |f: Fate| format!("\"fate\": \"{}\"", f.as_str());
        let text = text.replace(&fate(Fate::NotSelected), &fate(Fate::Selected));
        let r = check_provenance(&parse(&text), None, None);
        assert!(r.has_code("IC0700"), "{r}");
        assert!(r.to_string().contains("candidates[0].fate"), "{r}");
    }

    /// One end-to-end test: a real pipeline run with recording on
    /// produces a report that passes every IC07xx rule, and targeted
    /// corruptions of that report trip the right codes.
    #[test]
    fn real_run_report_is_clean_and_corruptions_are_caught() {
        let mut fb = FunctionBuilder::new("kern", 3);
        fb.set_entry_weight(10_000);
        let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, k);
        let l = fb.shl(t, 5i64);
        let rr = fb.shr(t, 27i64);
        let rot = fb.or(l, rr);
        let s = fb.add(rot, b);
        fb.ret(&[s.into()]);
        let p = Program::new(vec![fb.finish()]);
        let hw = HwLibrary::micron_018();

        let _on = isax_prov::enable();
        let dfgs = function_dfgs(&p.functions[0]);
        let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw);
        let sel = select_greedy(&cfus, &SelectConfig::with_budget(15.0));
        let mdes = isax_compiler::Mdes::from_selection("kern", &cfus, &sel, &hw, 64);
        let compiled =
            isax_compiler::compile(&p, &mdes, &hw, &isax_compiler::CompileOptions::default());

        // Assemble the full log the way the CLI does: explore events,
        // then the selection events, then the compile events.
        let mut log = found.prov.clone();
        log.merge(isax_select::selection_prov(&cfus, &sel));
        log.merge(compiled.report.prov.clone());
        assert!(!log.is_empty(), "recording was enabled");

        let doc = isax_prov::build_report("kern", &log);
        let clean = check_provenance(&doc, Some(&mdes), Some(&compiled));
        assert!(clean.is_clean(), "real report must verify:\n{clean}");

        // Corrupt a Replaced delta → IC0702.
        let mut text = doc.to_string_pretty();
        assert!(text.contains("cycles_before"));
        text = text.replacen("\"cycles_before\": ", "\"cycles_before\": 9", 1);
        let r = check_provenance(&parse(&text), Some(&mdes), Some(&compiled));
        assert!(r.has_code("IC0702"), "inflated savings must be caught");
        assert!(
            r.has_code("IC0700"),
            "the stored cycles_saved no longer matches the events"
        );

        // Turn every selection into a subsumption → IC0701 (the MDES
        // CFU has no on-the-record selection). The tampered report is
        // built from the edited log, so it still decodes and re-encodes.
        let mut no_select = isax_prov::ProvLog::default();
        for (fp, ev) in log.events() {
            no_select.record(
                *fp,
                match ev {
                    ProvEvent::SelectedAsCfu { cfu, .. } => ProvEvent::SubsumedBy { cfu: *cfu },
                    other => other.clone(),
                },
            );
        }
        let tampered = isax_prov::build_report("kern", &no_select);
        let r = check_provenance(&tampered, Some(&mdes), Some(&compiled));
        assert!(r.has_code("IC0701"), "missing SelectedAsCfu must be caught");
        assert!(!r.has_code("IC0700"), "{r}");

        // Reference a CFU id the MDES does not know → IC0703.
        let bad_id = doc.to_string_pretty().replace("\"cfu\": 0", "\"cfu\": 200");
        let tampered = parse(&bad_id);
        assert!(
            check_provenance(&tampered, Some(&mdes), Some(&compiled)).has_code("IC0703"),
            "unknown CFU id must be caught"
        );
    }
}

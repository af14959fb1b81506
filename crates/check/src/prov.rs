//! Provenance-report cross-validation (`IC07xx`).
//!
//! A provenance report (`isax-prov`) claims a story about a run: which
//! candidates were discovered, which were pruned, which became CFUs and
//! how many cycles each replacement saved. This pass cross-validates
//! that story against the run's actual artifacts:
//!
//! * `IC0700` — the report itself is structurally sound (version,
//!   fingerprint syntax, known fates and event kinds, consistent
//!   event/stage pairing);
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

/// Known terminal fates, mirroring `isax_prov::Fate::as_str`.
const FATES: [&str; 3] = ["selected", "not_selected", "pruned"];

/// Known `(event kind, stage)` pairs, mirroring
/// `isax_prov::ProvEvent::{kind, stage}`.
const KINDS: [(&str, &str); 7] = [
    ("discovered", "explore"),
    ("pruned", "explore"),
    ("subsumed_by", "select"),
    ("wildcarded", "select"),
    ("selected_as_cfu", "select"),
    ("matched", "compile"),
    ("replaced", "compile"),
];

fn valid_fingerprint(s: &str) -> bool {
    s.len() == 16
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Cross-validates a provenance report against the run that produced it.
///
/// `report_doc` is the parsed JSON report from `isax_prov::build_report`.
/// Pass the run's `mdes` to enable the selection cross-checks
/// (`IC0701`/`IC0703`/`IC0704`) and its `compiled` output to enable the
/// cycle-accounting check (`IC0702`); with both `None` only the
/// structural `IC0700` rules run.
pub fn check_provenance(
    report_doc: &isax_json::Value,
    mdes: Option<&Mdes>,
    compiled: Option<&CompiledProgram>,
) -> Report {
    let mut r = Report::new();
    if report_doc.get("version").and_then(|v| v.as_u64()) != Some(isax_prov::REPORT_VERSION) {
        r.push(Diagnostic::error(
            "IC0700",
            Location::Whole,
            format!(
                "provenance report version is not {}",
                isax_prov::REPORT_VERSION
            ),
        ));
        return r;
    }
    let Some(candidates) = report_doc.get("candidates").and_then(|v| v.as_array()) else {
        r.push(Diagnostic::error(
            "IC0700",
            Location::Whole,
            "provenance report has no `candidates` array",
        ));
        return r;
    };

    // Facts accumulated from the event streams.
    let mut has_select_events = false;
    let mut selected_ids: Vec<(u16, String, bool)> = Vec::new(); // (id, fingerprint, discovered)
    let mut referenced_ids: Vec<(u16, String)> = Vec::new(); // (id, via kind)
    let mut replaced_delta: u64 = 0;
    let mut pruned_fps: Vec<String> = Vec::new();

    for (ci, cand) in candidates.iter().enumerate() {
        let fp = cand
            .get("fingerprint")
            .and_then(|v| v.as_str())
            .unwrap_or("");
        if !valid_fingerprint(fp) {
            r.push(Diagnostic::error(
                "IC0700",
                Location::Whole,
                format!("candidate {ci}: malformed fingerprint {fp:?}"),
            ));
            continue;
        }
        let fate = cand.get("fate").and_then(|v| v.as_str()).unwrap_or("");
        if !FATES.contains(&fate) {
            r.push(Diagnostic::error(
                "IC0700",
                Location::Whole,
                format!("candidate {fp}: unknown fate {fate:?}"),
            ));
        }
        let Some(events) = cand.get("events").and_then(|v| v.as_array()) else {
            r.push(Diagnostic::error(
                "IC0700",
                Location::Whole,
                format!("candidate {fp}: missing `events` array"),
            ));
            continue;
        };
        if events.is_empty() {
            r.push(Diagnostic::error(
                "IC0700",
                Location::Whole,
                format!("candidate {fp}: empty event stream"),
            ));
        }
        if fate == "pruned" {
            pruned_fps.push(fp.to_string());
        }
        let mut discovered = false;
        let mut sel_id: Option<u16> = None;
        for ev in events {
            let kind = ev.get("event").and_then(|v| v.as_str()).unwrap_or("");
            let stage = ev.get("stage").and_then(|v| v.as_str()).unwrap_or("");
            match KINDS.iter().find(|(k, _)| *k == kind) {
                None => {
                    r.push(Diagnostic::error(
                        "IC0700",
                        Location::Whole,
                        format!("candidate {fp}: unknown event kind {kind:?}"),
                    ));
                    continue;
                }
                Some((_, expect_stage)) if *expect_stage != stage => {
                    r.push(Diagnostic::error(
                        "IC0700",
                        Location::Whole,
                        format!("candidate {fp}: event {kind:?} claims stage {stage:?}"),
                    ));
                }
                Some(_) => {}
            }
            if KINDS.iter().any(|(k, s)| *k == kind && *s == "select") {
                has_select_events = true;
            }
            match kind {
                "discovered" => discovered = true,
                "selected_as_cfu" => {
                    if let Some(id) = ev.get("cfu").and_then(|v| v.as_u64()) {
                        sel_id = Some(id as u16);
                        referenced_ids.push((id as u16, fp.to_string()));
                    }
                }
                "subsumed_by" => {
                    if let Some(id) = ev.get("cfu").and_then(|v| v.as_u64()) {
                        referenced_ids.push((id as u16, fp.to_string()));
                    }
                }
                "wildcarded" => {
                    if let Some(id) = ev.get("partner").and_then(|v| v.as_u64()) {
                        referenced_ids.push((id as u16, fp.to_string()));
                    }
                }
                "replaced" => {
                    let before = ev
                        .get("cycles_before")
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0);
                    let after = ev.get("cycles_after").and_then(|v| v.as_u64()).unwrap_or(0);
                    replaced_delta += before.saturating_sub(after);
                }
                _ => {}
            }
        }
        if let Some(id) = sel_id {
            selected_ids.push((id, fp.to_string(), discovered));
        }
    }

    if let Some(mdes) = mdes {
        let cfu_fps: Vec<String> = mdes
            .cfus
            .iter()
            .map(|c| isax_prov::fingerprint_hex(isax_select::pattern_fingerprint(&c.pattern).0))
            .collect();
        // IC0701: every MDES CFU was selected on the record, from a
        // discovered candidate. Only meaningful when the report covers
        // the select stage (a compile-only report legitimately has no
        // selection events).
        if has_select_events {
            for spec in &mdes.cfus {
                match selected_ids.iter().find(|(id, _, _)| *id == spec.id) {
                    None => r.push(Diagnostic::error(
                        "IC0701",
                        Location::Cfu { id: spec.id },
                        "CFU in the MDES has no SelectedAsCfu event in the provenance report",
                    )),
                    Some((_, fp, discovered)) => {
                        if fp != &cfu_fps[spec.id as usize] {
                            r.push(Diagnostic::error(
                                "IC0703",
                                Location::Cfu { id: spec.id },
                                format!(
                                    "SelectedAsCfu candidate {fp} does not match the CFU's \
                                     pattern fingerprint {}",
                                    cfu_fps[spec.id as usize]
                                ),
                            ));
                        }
                        if !discovered {
                            r.push(Diagnostic::error(
                                "IC0701",
                                Location::Cfu { id: spec.id },
                                "selected CFU's candidate has no Discovered event",
                            ));
                        }
                    }
                }
            }
        }
        // IC0703: every referenced CFU id must exist in the MDES.
        for (id, fp) in &referenced_ids {
            if mdes.cfu(*id).is_none() {
                r.push(Diagnostic::error(
                    "IC0703",
                    Location::Cfu { id: *id },
                    format!("candidate {fp} references CFU id {id} unknown to the MDES"),
                ));
            }
        }
        // IC0704: a pruned candidate by definition never became a CFU.
        for fp in &pruned_fps {
            if let Some(pos) = cfu_fps.iter().position(|c| c == fp) {
                r.push(Diagnostic::error(
                    "IC0704",
                    Location::Cfu { id: pos as u16 },
                    format!("candidate {fp} has fate `pruned` but appears in the MDES"),
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

    #[test]
    fn structural_rules_fire_on_malformed_reports() {
        let bad_version = parse(r#"{"version": 99, "candidates": []}"#);
        let r = check_provenance(&bad_version, None, None);
        assert!(r.has_code("IC0700"));

        let bad_fp = parse(
            r#"{"version": 1, "candidates": [
                {"fingerprint": "xyz", "fate": "selected", "events": []}
            ]}"#,
        );
        let r = check_provenance(&bad_fp, None, None);
        assert!(r.has_code("IC0700"));

        let bad_fate = parse(
            r#"{"version": 1, "candidates": [
                {"fingerprint": "00000000000000ab", "fate": "vanished",
                 "events": [{"event": "discovered", "stage": "explore"}]}
            ]}"#,
        );
        let r = check_provenance(&bad_fate, None, None);
        assert!(r.has_code("IC0700"));

        let wrong_stage = parse(
            r#"{"version": 1, "candidates": [
                {"fingerprint": "00000000000000ab", "fate": "not_selected",
                 "events": [{"event": "discovered", "stage": "compile"}]}
            ]}"#,
        );
        let r = check_provenance(&wrong_stage, None, None);
        assert!(r.has_code("IC0700"));
    }

    #[test]
    fn clean_minimal_report_passes() {
        let doc = parse(
            r#"{"version": 1, "candidates": [
                {"fingerprint": "00000000000000ab", "fate": "not_selected",
                 "events": [{"event": "discovered", "stage": "explore"}]}
            ]}"#,
        );
        assert!(check_provenance(&doc, None, None).is_clean());
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
        let tampered = parse(&text);
        assert!(
            check_provenance(&tampered, Some(&mdes), Some(&compiled)).has_code("IC0702"),
            "inflated savings must be caught"
        );

        // Drop every selection event → IC0701 (the MDES CFU has no
        // on-the-record selection).
        let no_select = doc
            .to_string_pretty()
            .replace("\"selected_as_cfu\"", "\"subsumed_by\"");
        let tampered = parse(&no_select);
        assert!(
            check_provenance(&tampered, Some(&mdes), Some(&compiled)).has_code("IC0701"),
            "missing SelectedAsCfu must be caught"
        );

        // Reference a CFU id the MDES does not know → IC0703.
        let bad_id = doc.to_string_pretty().replace("\"cfu\": 0", "\"cfu\": 200");
        let tampered = parse(&bad_id);
        assert!(
            check_provenance(&tampered, Some(&mdes), Some(&compiled)).has_code("IC0703"),
            "unknown CFU id must be caught"
        );
    }
}

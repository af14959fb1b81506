//! The run configuration: which value each pipeline knob takes, decided
//! in one place.
//!
//! Seven environment variables configure a pipeline run. This module is
//! the only code that reads them; everything downstream takes a
//! [`RunConfig`] or a [`SharedContext`](crate::SharedContext) built
//! from one. There is one grammar per value type:
//!
//! | variable | value | grammar |
//! |----------|-------|---------|
//! | `ISAX_CHECK` | on/off | [`parse_env_value`]: `1`/`on`/`true`/`yes` or `0`/`off`/`false`/`no` |
//! | `ISAX_WIDTH` | on/off | as `ISAX_CHECK` |
//! | `ISAX_BEAM` | integer | beam width; `0` is the exhaustive walk |
//! | `ISAX_BUDGET` | integer | work units per governed (stage, item) |
//! | `ISAX_DEADLINE_MS` | integer | wall-clock safety net, milliseconds |
//! | `ISAX_FAULT` | fault spec | [`FaultPlan::parse`] |
//! | `ISAX_PROV` | mode | [`parse_env_value`]: off, summary, or a report path |
//!
//! Values are trimmed, and a blank value means unset. Any other value
//! that does not parse is an error: one line naming the variable and
//! its value.

use isax_guard::FaultPlan;
use isax_trace::{parse_env_value, EnvMode};
use std::str::FromStr;

/// Every value a pipeline run is configured by, after parsing. The
/// default is the paper's configuration: unchecked, exhaustive,
/// full-width costing, ungoverned, no provenance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Run the `isax-check` checkpoints (`ISAX_CHECK`, `--check`).
    pub check: bool,
    /// Explorer beam width; 0 keeps the exhaustive depth-first walk
    /// (`ISAX_BEAM`, `--beam-width`).
    pub beam_width: usize,
    /// Price primitives at their effective operand widths
    /// (`ISAX_WIDTH`, `--width-aware`).
    pub width_aware: bool,
    /// Work units per governed (stage, item) meter (`ISAX_BUDGET`,
    /// `--work-budget`).
    pub work_budget: Option<u64>,
    /// Wall-clock safety net in milliseconds (`ISAX_DEADLINE_MS`).
    pub deadline_ms: Option<u64>,
    /// Fault-injection plan (`ISAX_FAULT`).
    pub fault: Option<FaultPlan>,
    /// Where provenance goes (`ISAX_PROV`, `--prov-out`).
    pub prov: EnvMode,
}

impl RunConfig {
    /// Parses the process environment; see [`RunConfig::from_vars`].
    ///
    /// # Errors
    ///
    /// A one-line diagnostic for the first malformed variable.
    pub fn from_env() -> Result<RunConfig, String> {
        RunConfig::from_vars(|name| {
            std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
        })
    }

    /// Parses the seven variables looked up through `var`, so callers
    /// (and tests) need not touch the process environment.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic for the first malformed variable.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<RunConfig, String> {
        let var = &var;
        Ok(RunConfig {
            check: value(var, "ISAX_CHECK", parse_switch)?.unwrap_or_default(),
            beam_width: value(var, "ISAX_BEAM", parse_number)?.unwrap_or_default(),
            width_aware: value(var, "ISAX_WIDTH", parse_switch)?.unwrap_or_default(),
            work_budget: value(var, "ISAX_BUDGET", parse_number)?,
            deadline_ms: value(var, "ISAX_DEADLINE_MS", parse_number)?,
            fault: value(var, "ISAX_FAULT", FaultPlan::parse)?,
            prov: value(var, "ISAX_PROV", |v| Ok(parse_env_value(v)))?.unwrap_or_default(),
        })
    }
}

/// The integer grammar, shared by the integer variables and the CLI
/// flags that override them: a non-negative decimal.
///
/// # Errors
///
/// A short reason, for the caller to prefix with what was being parsed.
pub fn parse_number<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| "want a non-negative integer".to_string())
}

/// The area-budget grammar: a finite number of adders, zero or more.
///
/// # Errors
///
/// A short reason, for the caller to prefix with what was being parsed.
pub fn parse_area_budget(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(b) if b.is_finite() && b >= 0.0 => Ok(b),
        _ => Err("want a finite number of adders, 0 or more".to_string()),
    }
}

/// The on/off grammar: [`parse_env_value`]'s off and on sets; its path
/// form is a typo here.
fn parse_switch(v: &str) -> Result<bool, String> {
    match parse_env_value(v) {
        EnvMode::Off => Ok(false),
        EnvMode::Summary => Ok(true),
        EnvMode::Path(_) => Err("want 1/on/true/yes or 0/off/false/no".to_string()),
    }
}

/// Looks `name` up and parses its trimmed value; unset and blank are
/// `Ok(None)`. The diagnostic is escaped so it stays on one line.
fn value<T>(
    var: &dyn Fn(&str) -> Option<String>,
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let Some(raw) = var(name) else {
        return Ok(None);
    };
    let v = raw.trim();
    if v.is_empty() {
        return Ok(None);
    }
    parse(v).map(Some).map_err(|e| {
        format!("bad {name}=`{raw}`: {e}")
            .escape_debug()
            .to_string()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_guard::{FaultKind, Stage};
    use proptest::prelude::*;

    const NAMES: [&str; 7] = [
        "ISAX_CHECK",
        "ISAX_BEAM",
        "ISAX_WIDTH",
        "ISAX_BUDGET",
        "ISAX_DEADLINE_MS",
        "ISAX_FAULT",
        "ISAX_PROV",
    ];

    fn only(name: &'static str, value: &'static str) -> impl Fn(&str) -> Option<String> {
        move |var: &str| (var == name).then(|| value.to_string())
    }

    #[test]
    fn every_variable_parses_its_own_grammar() {
        let unset = RunConfig::default();
        assert_eq!(RunConfig::from_vars(|_| None), Ok(unset.clone()));
        for name in NAMES {
            for blank in ["", "   ", "\t\n"] {
                assert_eq!(
                    RunConfig::from_vars(only(name, blank)),
                    Ok(unset.clone()),
                    "{name}={blank:?} is unset"
                );
            }
        }
        let on = ["1", "on", "ON", "true", "True", "yes", " yes "];
        let off = ["0", "off", "false", "FALSE", "no", "No"];
        for v in on {
            assert!(RunConfig::from_vars(only("ISAX_CHECK", v)).unwrap().check);
            assert!(
                RunConfig::from_vars(only("ISAX_WIDTH", v))
                    .unwrap()
                    .width_aware
            );
        }
        for v in off {
            assert_eq!(
                RunConfig::from_vars(only("ISAX_CHECK", v)),
                Ok(unset.clone())
            );
            assert_eq!(
                RunConfig::from_vars(only("ISAX_WIDTH", v)),
                Ok(unset.clone())
            );
        }
        let parsed = |name, v| RunConfig::from_vars(only(name, v)).unwrap();
        assert_eq!(parsed("ISAX_BEAM", "0").beam_width, 0, "0 is exhaustive");
        assert_eq!(parsed("ISAX_BEAM", " 64 ").beam_width, 64);
        assert_eq!(parsed("ISAX_BUDGET", "5000").work_budget, Some(5000));
        assert_eq!(parsed("ISAX_BUDGET", "0").work_budget, Some(0));
        assert_eq!(parsed("ISAX_DEADLINE_MS", "0").deadline_ms, Some(0));
        assert_eq!(parsed("ISAX_DEADLINE_MS", "250").deadline_ms, Some(250));
        assert_eq!(
            parsed("ISAX_FAULT", "match:exhaust:3").fault,
            Some(FaultPlan {
                stage: Stage::Match,
                kind: FaultKind::Exhaust,
                nth: 3
            })
        );
        assert_eq!(
            parsed("ISAX_FAULT", "explore:panic:0").fault.unwrap().kind,
            FaultKind::Panic
        );
        for v in off {
            assert_eq!(parsed("ISAX_PROV", v).prov, EnvMode::Off);
        }
        for v in on {
            assert_eq!(parsed("ISAX_PROV", v).prov, EnvMode::Summary);
        }
        assert_eq!(
            parsed("ISAX_PROV", " report.json ").prov,
            EnvMode::Path("report.json".into())
        );
    }

    #[test]
    fn malformed_values_are_one_line_errors_naming_variable_and_value() {
        for (name, value) in [
            ("ISAX_CHECK", "treu"),
            ("ISAX_CHECK", "./on"),
            ("ISAX_WIDTH", "maybe"),
            ("ISAX_BEAM", "garbage"),
            ("ISAX_BEAM", "-1"),
            ("ISAX_BEAM", "1e3"),
            ("ISAX_BUDGET", "lots"),
            ("ISAX_BUDGET", "1e6"),
            ("ISAX_DEADLINE_MS", "-1"),
            ("ISAX_DEADLINE_MS", "1.5"),
            ("ISAX_FAULT", "explore:panc:0"),
            ("ISAX_FAULT", "explore:panic"),
        ] {
            let e = RunConfig::from_vars(only(name, value)).unwrap_err();
            assert!(e.contains(name) && e.contains(value), "{e}");
            assert!(!e.contains('\n'), "diagnostic is one line: {e}");
        }
        // A multi-line value is escaped onto one line.
        let e = RunConfig::from_vars(only("ISAX_FAULT", "a\nb")).unwrap_err();
        assert!(e.starts_with("bad ISAX_FAULT=`a\\nb`"), "{e}");
        assert_eq!(e.lines().count(), 1, "{e}");
    }

    /// A strategy over short strings mixing the grammars' own alphabet
    /// (digits, signs, separators, on/off words) with arbitrary chars.
    fn any_text() -> impl Strategy<Value = String> {
        const PIECES: [&str; 16] = [
            "0", "7", "-", "+", ":", " ", "\n", "on", "off", "explore", "panic", "exhaust", ".",
            "/", "é", "\u{0}",
        ];
        proptest::collection::vec(any::<u32>(), 0..8).prop_map(|draws| {
            draws
                .into_iter()
                .map(|d| match char::from_u32(d >> 8) {
                    Some(c) if d & 1 == 1 => c.to_string(),
                    _ => PIECES[(d as usize >> 1) % PIECES.len()].to_string(),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_env_cases(256))]

        #[test]
        fn from_vars_never_panics_and_errors_stay_on_one_line(
            values in std::array::from_fn::<_, 7, _>(|_| any_text()),
        ) {
            let lookup = |var: &str| {
                NAMES.iter().position(|n| *n == var).map(|i| values[i].clone())
            };
            if let Err(e) = RunConfig::from_vars(lookup) {
                prop_assert!(e.starts_with("bad ISAX_"), "{}", e);
                prop_assert_eq!(e.lines().count(), 1);
            }
        }
    }
}

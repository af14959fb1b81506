//! The machine description (MDES): the contract between the hardware
//! compiler and the retargetable compiler.
//!
//! "The prioritized list of CFUs is converted in a machine description
//! (MDES) form that can be fed to the compiler" (§3). The MDES records,
//! for each custom function unit: the dataflow pattern it implements, its
//! pipelined latency, port counts, area, replacement priority, and —
//! because the compiler's generalized matching needs them — the contraction
//! closure of patterns the unit subsumes.
//!
//! The MDES serializes to JSON so a CFU set generated for one application
//! can be stored and reused to compile another (the cross-compilation
//! experiments of Figure 7).

use isax_graph::{DiGraph, NodeId};
use isax_hwlib::HwLibrary;
use isax_ir::{DfgLabel, Opcode};
use isax_json::Value;
use isax_select::{contraction_closure, CfuCandidate, Selection};

/// One custom function unit in the machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct CfuSpec {
    /// Identifier; `Opcode::Custom(id)` instructions reference the unit.
    pub id: u16,
    /// Human-readable name (sorted mnemonics, e.g. `"add-and-shl"`).
    pub name: String,
    /// The exact dataflow pattern the hardware implements.
    pub pattern: DiGraph<DfgLabel>,
    /// Pipelined execution latency in cycles.
    pub latency: u32,
    /// Die area in adder units.
    pub area: f64,
    /// Register read ports.
    pub inputs: u8,
    /// Register write ports.
    pub outputs: u8,
    /// Replacement priority (0 = replace first) — the selection order.
    pub priority: usize,
    /// Estimated cycle savings recorded at selection time.
    pub estimated_value: u64,
    /// Patterns this unit can also execute by feeding identity constants
    /// (the contraction closure), used by subsumed matching.
    pub subsumed_patterns: Vec<DiGraph<DfgLabel>>,
}

/// A complete machine description: the baseline VLIW plus the CFU set.
///
/// # Example
///
/// ```
/// use isax_compiler::Mdes;
///
/// let mdes = Mdes::baseline();
/// assert!(mdes.cfus.is_empty());
/// let json = mdes.to_json().unwrap();
/// let back = Mdes::from_json(&json).unwrap();
/// assert_eq!(mdes, back);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mdes {
    /// The custom function units, in priority order.
    pub cfus: Vec<CfuSpec>,
    /// Machine-wide register read port limit for custom instructions.
    pub max_inputs: u8,
    /// Machine-wide register write port limit for custom instructions.
    pub max_outputs: u8,
    /// Name of the application the CFUs were generated for (reporting).
    pub source_app: String,
}

impl Mdes {
    /// The baseline machine: no custom function units.
    pub fn baseline() -> Self {
        Mdes {
            cfus: Vec::new(),
            max_inputs: 5,
            max_outputs: 3,
            source_app: String::new(),
        }
    }

    /// Builds the MDES from a selection over combined candidates.
    ///
    /// `closure_cap` bounds the subsumed-pattern list per CFU (see
    /// [`isax_select::contraction_closure`]).
    pub fn from_selection(
        source_app: &str,
        cands: &[CfuCandidate],
        selection: &Selection,
        hw: &HwLibrary,
        closure_cap: usize,
    ) -> Self {
        let _ = hw; // latency is already folded into the candidates
        let cfus = selection
            .chosen
            .iter()
            .enumerate()
            .map(|(i, sc)| {
                let c = &cands[sc.candidate];
                CfuSpec {
                    id: i as u16,
                    name: c.describe(),
                    pattern: c.pattern.clone(),
                    latency: c.hw_cycles,
                    area: c.area,
                    inputs: c.inputs.min(255) as u8,
                    outputs: c.outputs.min(255) as u8,
                    priority: sc.priority,
                    estimated_value: sc.estimated_value,
                    subsumed_patterns: contraction_closure(&c.pattern, closure_cap),
                }
            })
            .collect();
        Mdes {
            cfus,
            max_inputs: 5,
            max_outputs: 3,
            source_app: source_app.to_string(),
        }
    }

    /// Looks up a CFU by id.
    pub fn cfu(&self, id: u16) -> Option<&CfuSpec> {
        self.cfus.iter().find(|c| c.id == id)
    }

    /// Total area of the CFU set (undiscounted sum).
    pub fn total_area(&self) -> f64 {
        self.cfus.iter().map(|c| c.area).sum()
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures (none are expected for this type).
    pub fn to_json(&self) -> Result<String, isax_json::Error> {
        Ok(self.to_value().to_string_pretty())
    }

    /// Parses from JSON.
    ///
    /// Each field is read by one typed rule: `cfus[i].id` must be `i`
    /// (the compiler and the provenance checks index CFUs by id),
    /// integers must fit their field, and a missing, mistyped, unknown
    /// or repeated field is refused with an error naming its path (e.g.
    /// `` bad `cfus[0].id` field ``).
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed input, or a schema error for
    /// well-formed JSON that is not an MDES.
    pub fn from_json(s: &str) -> Result<Self, isax_json::Error> {
        Self::from_value(&isax_json::parse(s)?)
            .map_err(|e| isax_json::Error::msg(format!("mdes: {e}")))
    }

    fn to_value(&self) -> Value {
        isax_json::object([
            (
                "cfus",
                Value::Array(self.cfus.iter().map(CfuSpec::to_value).collect()),
            ),
            ("max_inputs", Value::from(self.max_inputs as u64)),
            ("max_outputs", Value::from(self.max_outputs as u64)),
            ("source_app", Value::from(self.source_app.clone())),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let mut f = isax_json::Fields::of(v)?;
        let mdes = Mdes {
            cfus: f
                .req("cfus", "an array", Value::as_array)?
                .iter()
                .enumerate()
                .map(|(i, c)| CfuSpec::from_value(c, i).map_err(within(&format!("cfus[{i}]"))))
                .collect::<Result<_, _>>()?,
            max_inputs: f.req("max_inputs", U8, as_u8)?,
            max_outputs: f.req("max_outputs", U8, as_u8)?,
            source_app: f.req("source_app", STRING, Value::as_str)?.to_string(),
        };
        f.finish()?;
        Ok(mdes)
    }
}

impl CfuSpec {
    fn to_value(&self) -> Value {
        isax_json::object([
            ("id", Value::from(self.id as u64)),
            ("name", Value::from(self.name.clone())),
            ("pattern", pattern_to_value(&self.pattern)),
            ("latency", Value::from(self.latency as u64)),
            ("area", Value::from(self.area)),
            ("inputs", Value::from(self.inputs as u64)),
            ("outputs", Value::from(self.outputs as u64)),
            ("priority", Value::from(self.priority as u64)),
            ("estimated_value", Value::from(self.estimated_value)),
            (
                "subsumed_patterns",
                Value::Array(
                    self.subsumed_patterns
                        .iter()
                        .map(pattern_to_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// The CFU at position `i` of the MDES's `cfus` array.
    fn from_value(v: &Value, i: usize) -> Result<Self, String> {
        let mut f = isax_json::Fields::of(v)?;
        let position = format!("{i}, the CFU's position");
        let spec = CfuSpec {
            id: f.req("id", &position, |id| {
                u16::try_from(i)
                    .ok()
                    .filter(|&p| id.as_u64() == Some(u64::from(p)))
            })?,
            name: f.req("name", STRING, Value::as_str)?.to_string(),
            pattern: pattern_from_value(f.req("pattern", "an object", Some)?)
                .map_err(within("pattern"))?,
            latency: f.req("latency", "an integer below 2^32", |n| {
                u32::try_from(n.as_u64()?).ok()
            })?,
            area: f.req("area", "a number", Value::as_f64)?,
            inputs: f.req("inputs", U8, as_u8)?,
            outputs: f.req("outputs", U8, as_u8)?,
            priority: f.req("priority", INTEGER, |n| usize::try_from(n.as_u64()?).ok())?,
            estimated_value: f.req("estimated_value", INTEGER, Value::as_u64)?,
            subsumed_patterns: f
                .req("subsumed_patterns", "an array", Value::as_array)?
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    pattern_from_value(p).map_err(within(&format!("subsumed_patterns[{j}]")))
                })
                .collect::<Result<_, _>>()?,
        };
        f.finish()?;
        Ok(spec)
    }
}

const STRING: &str = "a string";
const INTEGER: &str = "a non-negative integer";
const U8: &str = "an integer below 256";

fn as_u8(v: &Value) -> Option<u8> {
    u8::try_from(v.as_u64()?).ok()
}

/// Prefixes the path of the object an error arose in to the field the
/// error names: `` bad `id` field `` inside `cfus[3]` becomes
/// `` bad `cfus[3].id` field ``.
fn within(path: &str) -> impl Fn(String) -> String + '_ {
    move |e| match e.find('`') {
        Some(tick) => format!("{}`{path}.{}", &e[..tick], &e[tick + 1..]),
        None => format!("`{path}` is {e}"),
    }
}

/// A pattern graph as JSON: nodes carry the opcode's display form plus
/// hardwired immediates as `[port, value]` pairs; edges are
/// `[src, dst, port]` triples in insertion order.
fn pattern_to_value(g: &DiGraph<DfgLabel>) -> Value {
    let nodes = g
        .node_ids()
        .map(|n| {
            let label = &g[n];
            isax_json::object([
                ("op", Value::from(label.opcode.to_string())),
                (
                    "imms",
                    Value::Array(
                        label
                            .imms
                            .iter()
                            .map(|&(port, val)| {
                                Value::Array(vec![Value::from(port as u64), Value::from(val)])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let edges = g
        .edges()
        .map(|e| {
            Value::Array(vec![
                Value::from(e.src.0 as u64),
                Value::from(e.dst.0 as u64),
                Value::from(e.port as u64),
            ])
        })
        .collect();
    isax_json::object([
        ("nodes", Value::Array(nodes)),
        ("edges", Value::Array(edges)),
    ])
}

fn pattern_from_value(v: &Value) -> Result<DiGraph<DfgLabel>, String> {
    let mut f = isax_json::Fields::of(v)?;
    let nodes = f.req("nodes", "an array", Value::as_array)?;
    let edges = f.req("edges", "an array", Value::as_array)?;
    f.finish()?;
    let mut g = DiGraph::with_capacity(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        g.add_node(label_from_value(node).map_err(within(&format!("nodes[{i}]")))?);
    }
    let n = g.node_count() as u64;
    let end = |v: &Value| v.as_u64().filter(|&e| e < n).map(|e| NodeId(e as u32));
    for (i, edge) in edges.iter().enumerate() {
        let triple = match edge.as_array() {
            Some([src, dst, port]) => end(src).zip(end(dst)).zip(as_u8(port)),
            _ => None,
        };
        let ((src, dst), port) = triple.ok_or_else(|| {
            format!(
                "bad `edges[{i}]` field (want [src, dst, port], ends below {n}, port below 256)"
            )
        })?;
        g.add_edge(src, dst, port);
    }
    Ok(g)
}

fn label_from_value(v: &Value) -> Result<DfgLabel, String> {
    let mut f = isax_json::Fields::of(v)?;
    let opcode = f.req("op", "an opcode mnemonic", |o| {
        o.as_str().and_then(Opcode::from_mnemonic)
    })?;
    let imms = f.req(
        "imms",
        "an array of [port, value] pairs, port below 256",
        |a| {
            a.as_array()?
                .iter()
                .map(|pair| match pair.as_array()? {
                    [port, val] => Some((as_u8(port)?, val.as_i64()?)),
                    _ => None,
                })
                .collect()
        },
    )?;
    f.finish()?;
    Ok(DfgLabel { opcode, imms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_explore::{explore_app, ExploreConfig};
    use isax_ir::{function_dfgs, FunctionBuilder};
    use isax_select::{combine, select_greedy, SelectConfig};

    fn build_mdes() -> Mdes {
        let mut fb = FunctionBuilder::new("kern", 3);
        fb.set_entry_weight(1000);
        let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, k);
        let u = fb.shl(t, 5i64);
        let v = fb.add(u, b);
        let w = fb.and(v, 0xFFi64);
        fb.ret(&[w.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let hw = HwLibrary::micron_018();
        let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw);
        let sel = select_greedy(&cfus, &SelectConfig::with_budget(8.0));
        Mdes::from_selection("kern", &cfus, &sel, &hw, 64)
    }

    #[test]
    fn selection_order_becomes_priority() {
        let mdes = build_mdes();
        assert!(!mdes.cfus.is_empty());
        for (i, c) in mdes.cfus.iter().enumerate() {
            assert_eq!(c.priority, i);
            assert_eq!(c.id, i as u16);
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mdes = build_mdes();
        let json = mdes.to_json().unwrap();
        let back = Mdes::from_json(&json).unwrap();
        // Areas are floats; JSON round-trips them to the nearest shortest
        // representation, so compare them with a tolerance and everything
        // else exactly.
        assert_eq!(mdes.cfus.len(), back.cfus.len());
        for (a, b) in mdes.cfus.iter().zip(back.cfus.iter()) {
            assert!((a.area - b.area).abs() < 1e-9);
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.subsumed_patterns, b.subsumed_patterns);
            assert_eq!(
                (
                    a.id,
                    &a.name,
                    a.latency,
                    a.inputs,
                    a.outputs,
                    a.priority,
                    a.estimated_value
                ),
                (
                    b.id,
                    &b.name,
                    b.latency,
                    b.inputs,
                    b.outputs,
                    b.priority,
                    b.estimated_value
                )
            );
        }
        assert_eq!(back.source_app, "kern");
        // A second round-trip is exact: the parse already normalized.
        let json2 = back.to_json().unwrap();
        assert_eq!(Mdes::from_json(&json2).unwrap(), back);
    }

    #[test]
    fn subsumed_patterns_are_smaller() {
        let mdes = build_mdes();
        for c in &mdes.cfus {
            for s in &c.subsumed_patterns {
                assert!(s.node_count() < c.pattern.node_count());
            }
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Mdes::from_json("{не json").is_err());
    }

    #[test]
    fn lookup_by_id() {
        let mdes = build_mdes();
        let first = &mdes.cfus[0];
        assert_eq!(mdes.cfu(first.id).unwrap().name, first.name);
        assert!(mdes.cfu(9999).is_none());
    }

    /// Rewrites one field of the first CFU (or of the document when
    /// `cfu` is false) in a real MDES and returns the decode error.
    fn refusal(cfu: bool, key: &str, value: Value) -> String {
        let Value::Object(mut doc) = build_mdes().to_value() else {
            unreachable!("an MDES encodes as an object")
        };
        let target = if cfu {
            let Value::Array(cfus) = &mut doc[0].1 else {
                unreachable!("cfus is an array")
            };
            let Value::Object(first) = &mut cfus[0] else {
                unreachable!("a CFU is an object")
            };
            first
        } else {
            &mut doc
        };
        match target.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => target.push((key.to_string(), value)),
        }
        Mdes::from_json(&Value::Object(doc).to_string_compact())
            .expect_err("the edit must be refused")
            .to_string()
    }

    #[test]
    fn every_field_is_read_by_its_rule_and_refusals_name_the_path() {
        for (cfu, key, value, path) in [
            (true, "id", Value::from(7u64), "`cfus[0].id`"),
            (true, "inputs", Value::from(256u64), "`cfus[0].inputs`"),
            (
                true,
                "latency",
                Value::from(1u64 << 32),
                "`cfus[0].latency`",
            ),
            (true, "bogus", Value::from(1u64), "`cfus[0].bogus`"),
            (true, "pattern", Value::from(1u64), "`cfus[0].pattern`"),
            (false, "max_outputs", Value::from(300u64), "`max_outputs`"),
            (false, "source_app", Value::from(3u64), "`source_app`"),
        ] {
            let msg = refusal(cfu, key, value);
            assert!(msg.contains(path), "{key}: {msg}");
        }
        let json = build_mdes().to_json().unwrap();
        let repeated = json.replacen("\"max_inputs\"", "\"max_inputs\": 5, \"max_inputs\"", 1);
        let msg = Mdes::from_json(&repeated).unwrap_err().to_string();
        assert!(msg.contains("repeated field `max_inputs`"), "{msg}");
        let bad_edge = json.replacen("\"edges\": [", "\"edges\": [[0, 99, 0], ", 1);
        let msg = Mdes::from_json(&bad_edge).unwrap_err().to_string();
        assert!(msg.contains("`cfus[0].pattern.edges[0]`"), "{msg}");
    }
}

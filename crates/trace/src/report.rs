//! Per-subroutine resource reports in the style of arXiv:1412.0625
//! ("Concrete resource analysis of quantum circuits"): gate counts by class
//! at each level of the boxed-subroutine hierarchy, plus peak-qubit and
//! ancilla high-water accounting.
//!
//! The types live here (dependency-free) so any layer can render one; the
//! walker that computes a report from a circuit database lives in
//! `quipper-circuit::resources`.

use std::collections::BTreeMap;
use std::fmt;

/// One subroutine's row in a [`ResourceReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceRow {
    /// Subroutine name (`main` for the top level).
    pub name: String,
    /// Distance from the top level in the call hierarchy (main = 0).
    pub level: u32,
    /// Aggregate number of times the subroutine body runs, across every
    /// call path (repetition factors multiplied through).
    pub calls: u128,
    /// Gates in one instance of the body, not counting nested subroutine
    /// bodies (subroutine *calls* count as their expansion's own rows).
    pub own_gates: u128,
    /// `own_gates × calls`: this row's total contribution.
    pub total_gates: u128,
    /// Aggregate gate counts by class name for this row
    /// (already multiplied by `calls`), sorted by class name.
    pub gates_by_class: Vec<(String, u128)>,
    /// Peak simultaneously-live qubits inside one instance of the body,
    /// including nested subroutines.
    pub peak_qubits: u64,
    /// Ancilla high-water mark: peak live qubits minus the body's quantum
    /// inputs — the scratch space the subroutine allocates beyond its
    /// arguments.
    pub ancilla_high_water: u64,
}

/// A per-subroutine resource report for one circuit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceReport {
    /// Label for the circuit the report describes.
    pub label: String,
    /// One row per reachable subroutine plus the `main` row, sorted by
    /// `(level, name)`.
    pub rows: Vec<ResourceRow>,
    /// Total gates in the fully-expanded circuit.
    pub total_gates: u128,
    /// Peak simultaneously-live qubits of the whole circuit.
    pub peak_qubits: u64,
}

impl ResourceReport {
    /// Aggregate gate counts as class × hierarchy level, summed over rows.
    pub fn by_class_and_level(&self) -> BTreeMap<(String, u32), u128> {
        let mut out = BTreeMap::new();
        for row in &self.rows {
            for (class, n) in &row.gates_by_class {
                *out.entry((class.clone(), row.level)).or_insert(0) += *n;
            }
        }
        out
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Resource report: {}", self.label)?;
        writeln!(
            f,
            "  total gates {}   peak qubits {}",
            self.total_gates, self.peak_qubits
        )?;
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len() + 2 * r.level as usize)
            .max()
            .unwrap_or(4)
            .max("subroutine".len());
        writeln!(
            f,
            "  {:<name_w$}  {:>5}  {:>10}  {:>12}  {:>12}  {:>6}  {:>6}",
            "subroutine", "level", "calls", "own gates", "total gates", "peak q", "anc hw"
        )?;
        for row in &self.rows {
            let indented = format!("{}{}", "  ".repeat(row.level as usize), row.name);
            writeln!(
                f,
                "  {:<name_w$}  {:>5}  {:>10}  {:>12}  {:>12}  {:>6}  {:>6}",
                indented,
                row.level,
                row.calls,
                row.own_gates,
                row.total_gates,
                row.peak_qubits,
                row.ancilla_high_water
            )?;
        }
        let table = self.by_class_and_level();
        if !table.is_empty() {
            writeln!(f, "  gates by class x level:")?;
            let class_w = table
                .keys()
                .map(|(c, _)| c.len())
                .max()
                .unwrap_or(5)
                .max("class".len());
            for ((class, level), n) in &table {
                writeln!(f, "    {class:<class_w$}  L{level}  {n:>12}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResourceReport {
        ResourceReport {
            label: "grover".into(),
            rows: vec![
                ResourceRow {
                    name: "main".into(),
                    level: 0,
                    calls: 1,
                    own_gates: 4,
                    total_gates: 4,
                    gates_by_class: vec![("Hadamard".into(), 3), ("Not, controls 1".into(), 1)],
                    peak_qubits: 5,
                    ancilla_high_water: 5,
                },
                ResourceRow {
                    name: "oracle".into(),
                    level: 1,
                    calls: 2,
                    own_gates: 10,
                    total_gates: 20,
                    gates_by_class: vec![("Hadamard".into(), 4), ("Not, controls 2".into(), 16)],
                    peak_qubits: 5,
                    ancilla_high_water: 2,
                },
            ],
            total_gates: 24,
            peak_qubits: 5,
        }
    }

    #[test]
    fn class_level_table_aggregates_rows() {
        let table = sample().by_class_and_level();
        assert_eq!(table.get(&("Hadamard".into(), 0)), Some(&3));
        assert_eq!(table.get(&("Hadamard".into(), 1)), Some(&4));
        assert_eq!(table.get(&("Not, controls 2".into(), 1)), Some(&16));
    }

    #[test]
    fn display_is_stable() {
        let text = sample().to_string();
        assert!(text.contains("Resource report: grover"));
        assert!(text.contains("total gates 24   peak qubits 5"));
        // Rows are indented by level.
        assert!(text.contains("\n  main "));
        assert!(text.contains("\n    oracle"));
        assert!(text.contains("gates by class x level:"));
    }
}

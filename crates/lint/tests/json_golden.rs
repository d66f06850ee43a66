//! Exact-byte golden for `LintReport::to_json_lines`: one object per
//! finding in field order, `null` for an absent index or wire, escaped
//! scope/gate/message, then the summary record.

use quipper_circuit::Wire;
use quipper_lint::{Diagnostic, LintReport};

#[test]
fn lint_json_lines_match_golden_bytes() {
    let report = LintReport {
        findings: vec![
            Diagnostic::new(
                "QL001",
                "main",
                Some(5),
                "QTerm0".into(),
                Some(Wire(3)),
                "wire is provably |1⟩ but the assertion claims |0⟩".into(),
            ),
            Diagnostic::new(
                "QL031",
                "reverse(\"box\\1\")",
                None,
                "QGate[\"not\"]".into(),
                None,
                "always\nsatisfied\t\u{2}".into(),
            ),
        ],
        proved_terms: 2,
        boxes_clean: 1,
        scopes: 3,
        gates_scanned: 40,
    };
    assert_eq!(
        report.to_json_lines(),
        concat!(
            "{\"kind\":\"finding\",\"code\":\"QL001\",\"severity\":\"error\",\"scope\":\"main\",",
            "\"gate\":\"QTerm0\",\"index\":5,\"wire\":3,",
            "\"message\":\"wire is provably |1⟩ but the assertion claims |0⟩\"}\n",
            "{\"kind\":\"finding\",\"code\":\"QL031\",\"severity\":\"note\",\"scope\":\"reverse(\\\"box\\\\1\\\")\",",
            "\"gate\":\"QGate[\\\"not\\\"]\",\"index\":null,\"wire\":null,",
            "\"message\":\"always\\nsatisfied\\t\\u0002\"}\n",
            "{\"kind\":\"summary\",\"errors\":1,\"warnings\":0,\"notes\":1,\"proved\":2,",
            "\"boxes_clean\":1,\"scopes\":3,\"gates\":40}\n",
        )
    );
    assert_eq!(
        LintReport::default().to_json_lines(),
        "{\"kind\":\"summary\",\"errors\":0,\"warnings\":0,\"notes\":0,\"proved\":0,\
         \"boxes_clean\":0,\"scopes\":0,\"gates\":0}\n"
    );
}

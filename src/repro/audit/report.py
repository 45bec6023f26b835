"""Reporters: human text and machine JSON.

The JSON document leads with a ``summary`` object so downstream report
tooling (``repro.perf`` table rendering, CI artifact diffing) can ingest
the audit outcome without walking the finding list::

    {
      "summary": {"rules_run": 8, "modules_scanned": 57, "findings": 9,
                  "new": 0, "baselined": 3, "suppressed": 6},
      "findings": [ {"rule": "CT103", ...}, ... ]
    }
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.audit.engine import AuditResult

__all__ = ["summarize", "render_text", "render_json", "summary_line"]


def summarize(result: AuditResult) -> Dict[str, int]:
    return {
        "rules_run": result.rules_run,
        "modules_scanned": result.modules_scanned,
        "findings": len(result.findings),
        "new": len(result.by_status("new")),
        "baselined": len(result.by_status("baselined")),
        "suppressed": len(result.by_status("suppressed")),
    }


def summary_line(summary: Dict[str, int]) -> str:
    """One-line digest, shared by the CLI footer and the report pipeline."""
    return (
        f"audit: {summary['rules_run']} rules over "
        f"{summary['modules_scanned']} modules — "
        f"{summary['new']} new, {summary['baselined']} baselined, "
        f"{summary['suppressed']} suppressed"
    )


_STATUS_MARK = {"new": "!", "baselined": "=", "suppressed": "~"}


def render_text(result: AuditResult, show_accepted: bool = False) -> str:
    """Grouped-by-file report; accepted findings hidden unless asked."""
    lines: List[str] = []
    current_path = None
    shown = 0
    for finding in result.findings:
        if finding.status != "new" and not show_accepted:
            continue
        if finding.path != current_path:
            if current_path is not None:
                lines.append("")
            lines.append(finding.path)
            current_path = finding.path
        mark = _STATUS_MARK.get(finding.status, "?")
        context = f" [{finding.context}]" if finding.context else ""
        lines.append(
            f"  {mark} {finding.line}:{finding.col} {finding.rule}{context} "
            f"{finding.message}"
        )
        shown += 1
    if lines:
        lines.append("")
    lines.append(summary_line(summarize(result)))
    return "\n".join(lines)


def render_json(result: AuditResult) -> str:
    document = {
        "summary": summarize(result),
        "root": result.root,
        "findings": [finding.as_dict() for finding in result.findings],
    }
    return json.dumps(document, indent=2) + "\n"

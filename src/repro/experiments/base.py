"""Shared experiment-report structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.analysis.reporting import format_markdown_table, format_table
from repro.errors import ReproError

SCALES = ("quick", "full")


class ScaleError(ReproError):
    """An experiment was asked to run at an unknown scale."""


def check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ScaleError(f"unknown scale {scale!r}; expected one of {SCALES}")


def replication_seeds(seed: int, replicas: int | None,
                      default: int) -> List[int]:
    """The algorithm-seed list for one experiment cell.

    Experiments that replicate over seeds pass the resulting list to a
    batched solver (``solve_kmds_udg_batch``) so the whole replication
    axis runs as one kernel pass.  ``replicas``
    is the user override (``repro experiment --replicas N``); ``None``
    keeps the experiment's scale default.  Seeds are validated up
    front, consecutive from ``seed``.
    """
    from repro.engine import validate_seed

    count = default if replicas is None else int(replicas)
    if count < 1:
        raise ScaleError(f"replicas must be >= 1, got {count}")
    base = validate_seed(seed)
    if base is None:
        base = 0
    return [base + r for r in range(count)]


@dataclass
class ExperimentReport:
    """The outcome of one experiment run.

    Attributes
    ----------
    experiment_id / title / claim:
        Identification and the paper claim being validated.
    headers / rows:
        The regenerated table.
    checks:
        Named boolean assertions on the paper's claims (all should be
        True on a successful reproduction).
    notes:
        Free-form commentary (e.g. which OPT estimate was used).
    timing:
        Optional dispatch breakdown from the grid-batched backend (the
        dict :func:`repro.core.udg.solve_kmds_udg_grid` fills through
        its ``timing`` parameter: which path ran, how many graphs took
        the stacked dispatch vs the per-point fallback, and the seconds
        spent in each).  Empty for experiments that do not run grids.
    """

    experiment_id: str
    title: str
    claim: str
    headers: List[str]
    rows: List[Sequence[Any]]
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""
    timing: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every claim check succeeded."""
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def render(self) -> str:
        """Human-readable report (ASCII table + check list)."""
        lines = [
            f"== {self.experiment_id.upper()}: {self.title} ==",
            f"Claim: {self.claim}",
            "",
            format_table(self.headers, self.rows),
            "",
        ]
        for name, ok in self.checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        if self.notes:
            lines.append("")
            lines.append(f"Notes: {self.notes}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (CI artifacts, archival)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "checks": dict(self.checks),
            "passed": self.passed,
            "notes": self.notes,
            "timing": dict(self.timing),
        }

    def render_markdown(self) -> str:
        """Markdown fragment for EXPERIMENTS.md."""
        lines = [
            f"### {self.experiment_id.upper()} — {self.title}",
            "",
            f"*Claim:* {self.claim}",
            "",
            format_markdown_table(self.headers, self.rows),
            "",
        ]
        for name, ok in self.checks.items():
            lines.append(f"- {'✅' if ok else '❌'} {name}")
        if self.notes:
            lines.append("")
            lines.append(f"*Notes:* {self.notes}")
        return "\n".join(lines)


_DOCUMENT_INTRO = """\
# EXPERIMENTS — paper claims vs measured

Reproduction record for **Kuhn, Moscibroda, Wattenhofer, "Fault-Tolerant
Clustering in Ad Hoc and Sensor Networks" (ICDCS 2006)**.

The paper has **no experimental section** — its results are Theorems
4.5/4.6/5.7 and Lemmas 4.1–4.4/5.1–5.6, plus one figure (the hexagonal
covering geometry).  Each experiment below validates one claim
empirically; E14–E21 cover the extensions the paper sketches but does not
evaluate (weighted version, unknown Δ, asynchronous execution) and a
message-loss robustness study motivated by Section 1; E22 closes the loop
on Section 1's premise by *maintaining* a k-fold dominating set under
continuous churn (the `repro.dynamics` subsystem); E23 executes the
repair protocol itself on the message transport under loss.

Generated whole by `python -m repro report --scale {scale} --seed {seed}`;
CI regenerates it under both kernel backends and fails on any difference.
`python -m repro experiment <id> --scale {scale} --seed {seed} --markdown`
prints one section, and `--scale quick` gives the faster variants that
CI's claim-check steps run.  Checkmarks are machine-verified assertions,
not judgement calls."""

_DOCUMENT_EXPECTATIONS = """\
**What to expect to match:** shapes and validity — who wins, how ratios
scale with n/t/k, where the redundancy pays off.  Absolute constants
(leader counts, exact ratios) depend on our schedule-anchoring and
selection-policy choices (see the interpretation log in DESIGN.md) and on
the LP-vs-exact OPT denominators; they are not calibrated to any original
implementation (none was released)."""


def render_document(reports: Sequence[ExperimentReport], *, scale: str,
                    seed: int) -> str:
    """The whole EXPERIMENTS.md: fixed intro, a summary row per report
    (id, title and passed/total checks), the fixed note on what to
    expect to match, then every report's markdown section."""
    summary = ["## Summary", "", "| ID | Experiment | Checks |",
               "|---|---|---|"]
    for r in reports:
        mark = "✅" if r.passed else "❌"
        summary.append(f"| {r.experiment_id.upper()} | {r.title} | "
                       f"{mark} {sum(r.checks.values())}/{len(r.checks)} |")
    blocks = [_DOCUMENT_INTRO.format(scale=scale, seed=seed),
              "\n".join(summary), _DOCUMENT_EXPECTATIONS, "---"]
    blocks.extend(r.render_markdown() for r in reports)
    return "\n\n".join(blocks) + "\n"

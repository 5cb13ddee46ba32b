"""Structured text reports emitted by every CLI subcommand.

A report is a single line-oriented document: scalar fields (command, seed,
config echo, metrics, timings) followed by named tables.  The format is
stable and parseable, so experiment results can be consumed by tests and
external tooling without scraping free-form logs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunReport", "environment", "render_report", "parse_report"]

_MAGIC = "logsig-report v1"


@dataclass
class RunReport:
    command: str
    seed: int | None = None
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (columns, rows)

    def add_table(self, name: str, columns: list[str], rows: list[list]) -> None:
        self.tables[name] = ([str(c) for c in columns], [[_cell(v) for v in r] for r in rows])


def environment() -> dict:
    """What a timing depends on, for a report's ``config.*`` lines.

    numpy's version, ``nproc``, the CPUs this process may run on, and the
    three BLAS thread variables, ``unset`` where one is not set.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__, "nproc": nproc, **{var: os.environ.get(var, "unset") for var in blas}}


def _cell(value) -> str:
    text = repr(float(value)) if isinstance(value, float) else str(value)
    if any(ch.isspace() for ch in text):
        raise ValueError(f"table cell {text!r} may not contain whitespace")
    return text


def render_report(report: RunReport) -> str:
    lines = [_MAGIC, f"command = {report.command}"]
    if report.seed is not None:
        lines.append(f"seed = {report.seed}")
    for key in sorted(report.config):
        lines.append(f"config.{key} = {report.config[key]}")
    for key in sorted(report.metrics):
        lines.append(f"metric.{key} = {_cell(report.metrics[key])}")
    for key in sorted(report.timings):
        lines.append(f"timing.{key} = {_cell(report.timings[key])}")
    for name, (columns, rows) in report.tables.items():
        lines.append(f"table {name}")
        lines.append("columns " + " ".join(columns))
        for row in rows:
            lines.append("row " + " ".join(row))
        lines.append("end table")
    lines.append("end report")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> RunReport:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise ValueError("not a report document (missing magic line)")
    report = RunReport(command="")
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "end report":
            break
        if line.startswith("table "):
            name = line[len("table "):]
            i += 1
            columns = lines[i].split()[1:]
            rows = []
            i += 1
            while lines[i] != "end table":
                rows.append(lines[i].split()[1:])
                i += 1
            report.tables[name] = (columns, rows)
        else:
            key, _, value = line.partition(" = ")
            if key == "command":
                report.command = value
            elif key == "seed":
                report.seed = int(value)
            elif key.startswith("config."):
                report.config[key[len("config."):]] = value
            elif key.startswith("metric."):
                report.metrics[key[len("metric."):]] = float(value)
            elif key.startswith("timing."):
                report.timings[key[len("timing."):]] = float(value)
            else:
                raise ValueError(f"unrecognized report line: {line!r}")
        i += 1
    return report

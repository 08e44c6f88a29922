"""End-to-end tests for ``python -m repro.tools.report metrics``.

One full metrics section run (all six strategies projected into one
registry) is shared across the module; the artifact, baseline-write and
regression-check paths are asserted against it.  The regression gate is
proven both ways: a self-baseline passes, an impossibly rosy baseline
(injected regression) makes ``main`` exit nonzero.
"""

import json
import re

import pytest

from repro.oracle import STRATEGIES
from repro.tools import report


@pytest.fixture(scope="module")
def metrics_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("metrics")
    paths = {"baseline": str(out / "baseline.json"),
             "dashboard": str(out / "dashboard.html"),
             "openmetrics": str(out / "metrics.om")}
    data = report.report_metrics(json_mode=True,
                                 write_baseline=paths["baseline"],
                                 dashboard=paths["dashboard"],
                                 metrics_out=paths["openmetrics"])
    return data, paths


def test_metrics_section_covers_all_strategies(metrics_artifacts):
    data, _ = metrics_artifacts
    rows = {row["strategy"]: row for row in data["rows"]}
    assert set(rows) == set(STRATEGIES)
    for strategy, row in rows.items():
        assert 0.0 < row["productive_fraction"] <= 1.0, strategy
        assert row["detection_seconds"] > 0.0, strategy
        assert row["restart_seconds"] > 0.0, strategy
        assert row["events_dispatched"] > 0, strategy
    assert data["scrapes"] > 0


def test_metrics_section_writes_artifacts(metrics_artifacts):
    _, paths = metrics_artifacts
    with open(paths["openmetrics"], encoding="utf-8") as handle:
        text = handle.read()
    assert text.endswith("# EOF\n")
    assert "repro_goodput_seconds_total" in text
    with open(paths["dashboard"], encoding="utf-8") as handle:
        html = handle.read()
    assert "<svg" in html and "productive" in html
    for strategy in STRATEGIES:
        assert strategy in html
    with open(paths["baseline"], encoding="utf-8") as handle:
        baseline = json.load(handle)
    assert set(baseline["strategies"]) == set(STRATEGIES)
    for entry in baseline["strategies"].values():
        assert set(entry) == {"productive_fraction", "detection_seconds",
                              "restart_seconds"}


def test_check_against_own_baseline_passes(metrics_artifacts, capsys):
    _, paths = metrics_artifacts
    rc = report.main(["metrics", "--check", paths["baseline"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "baseline check" in out and "ok" in out


def test_check_flags_injected_regression(metrics_artifacts, tmp_path, capsys):
    _, paths = metrics_artifacts
    with open(paths["baseline"], encoding="utf-8") as handle:
        baseline = json.load(handle)
    # An impossibly rosy past: full goodput, near-zero latencies.  The
    # real run can only look like a regression against it.
    for entry in baseline["strategies"].values():
        entry["productive_fraction"] = 1.0
        entry["detection_seconds"] = 1e-9
        entry["restart_seconds"] = 1e-9
    rigged = tmp_path / "rigged.json"
    rigged.write_text(json.dumps(baseline), encoding="utf-8")
    rc = report.main(["metrics", "--check", str(rigged)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "BASELINE CHECK FAILED" in out


def test_dashboard_counts_each_strategys_failure(metrics_artifacts):
    """Every strategy's summary row counts the schedule's one injected
    failure: the failure family carries the ``strategy`` label, so the
    per-strategy slices keep it."""
    _, paths = metrics_artifacts
    with open(paths["dashboard"], encoding="utf-8") as handle:
        html = handle.read()
    summary = html.split("<h2>Summary</h2>", 1)[1].split("</table>", 1)[0]
    failures = {name: int(cells[5]) for name, cells in (
        (match[0], re.findall(r"<td>([^<]*)</td>", match[1]))
        for match in re.findall(r"<tr><td>(\w+)</td>((?:<td>[^<]*</td>)+)"
                                r"</tr>", summary))}
    assert failures == {strategy: 1 for strategy in STRATEGIES}

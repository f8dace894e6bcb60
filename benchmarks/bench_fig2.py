"""Figure 2: UMQ depth distribution per application (queue replay).

Paper: "Most of the applications' queues range below 512 entries.  EXACT
MultiGrid and CESAR NEKBONE have the longest queues with the mean across
all ranks being 2,000 (median at 1,500) and 4,000 (median at 1,800)
entries, respectively."  PRQ depths are similar to UMQ depths.
"""

from __future__ import annotations

import pytest

from repro.bench import Table, anchor, ascii_histogram, write_result
from repro.traces import app_names, figure2_summary, generate_trace

LONG_QUEUE_APPS = {"cesar_nekbone", "exact_multigrid"}


def figure2_rows():
    """Queue-replay summary per application at default scale."""
    return {name: figure2_summary(generate_trace(name))
            for name in app_names()}


def test_report_figure2():
    rows = figure2_rows()
    table = Table(
        title="Figure 2 -- per-rank max queue depth statistics "
              "(replayed from traces)",
        columns=["application", "UMQ mean", "UMQ median", "UMQ max",
                 "PRQ mean", "PRQ median", "unexpected%"])
    for name, row in rows.items():
        table.add(name,
                  f"{row['umq_max_mean']:.0f}",
                  f"{row['umq_max_median']:.0f}",
                  row["umq_max_max"],
                  f"{row['prq_max_mean']:.0f}",
                  f"{row['prq_max_median']:.0f}",
                  f"{row['unexpected_fraction'] * 100:.0f}%")
    table.note("paper: most apps below 512; MultiGrid mean ~2000 / median "
               "~1500; NEKBONE mean ~4000 / median ~1800")
    write_result("fig2", table.show())

    nek = rows["cesar_nekbone"]
    assert nek["umq_max_mean"] == pytest.approx(
        anchor("trace/nekbone_umq_mean"), rel=0.15)
    assert nek["umq_max_median"] == pytest.approx(
        anchor("trace/nekbone_umq_median"), rel=0.15)
    mg = rows["exact_multigrid"]
    assert mg["umq_max_mean"] == pytest.approx(
        anchor("trace/multigrid_umq_mean"), rel=0.15)
    assert mg["umq_max_median"] == pytest.approx(
        anchor("trace/multigrid_umq_median"), rel=0.15)
    for name, row in rows.items():
        if name not in LONG_QUEUE_APPS:
            assert row["umq_max_mean"] < 512, name


def test_report_figure2_distribution():
    """The figure itself: per-rank max UMQ depth distributions rendered
    as text histograms (the paper shows these as per-app distributions)."""
    from repro.traces.queue_replay import replay
    sections = []
    for app in ("exmatex_lulesh", "exact_cns", "exact_multigrid",
                "cesar_nekbone"):
        depths = replay(generate_trace(app))["umq_max"].tolist()
        sections.append(ascii_histogram(
            depths, bins=[0, 8, 64, 512, 2048, 8192],
            title=f"{app}: per-rank max UMQ depth ({len(depths)} ranks)"))
    text = ("Figure 2 (distribution view)\n" + "=" * 28 + "\n"
            + "\n".join(sections))
    print("\n" + text)
    write_result("fig2_distribution", text)
    assert "exact_multigrid" in text


def test_perf_queue_replay(benchmark):
    trace = generate_trace("exmatex_lulesh", n_ranks=27, steps=4)
    summary = benchmark(figure2_summary, trace)
    assert summary["umq_max_mean"] >= 0


def test_perf_queue_replay_deep(benchmark):
    trace = generate_trace("exact_multigrid", n_ranks=8, steps=1)
    summary = benchmark(figure2_summary, trace)
    assert summary["umq_max_mean"] > 100


if __name__ == "__main__":
    test_report_figure2()
    test_report_figure2_distribution()

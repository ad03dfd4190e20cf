"""Table I: LSTM block-size / layer-size exploration (trained rows).

Trains all 16 rows of the paper's LSTM grid (÷16 scale, see
``repro.experiments.table1``) with the E-RNN flow and prints measured vs
published PER.  Assertions check the paper's Sec. IV observations as
*orderings*; absolute PERs belong to the synthetic corpus, not to TIMIT.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.table1 import format_rows, run_table1


@pytest.mark.benchmark(group="table1")
def test_table1_lstm_grid(benchmark, harness):
    rows = benchmark.pedantic(
        run_table1, args=(harness,), rounds=1, iterations=1
    )
    emit("table1_lstm", format_rows(rows, "Table I: LSTM models (scaled /16)"))

    by_id = {row.row_id: row for row in rows}

    # PER on the scaled corpus has a ~±5-point noise band (one decode error
    # is ~1%, training variance adds the rest); orderings are asserted with
    # that slack.  The paper's TIMIT-scale differences are 0.0-0.5%; at 1/16
    # layer size every block size cuts relatively ~16x deeper, so measured
    # degradations are tens of points — the assertions below test the
    # *orderings*; the magnitudes belong in the paper-vs-repo ledger
    # (ROADMAP.md, open item 2).
    noise = 6.0

    # Observation 1: the smallest block size is free (paper: -0.08 at
    # block 2; here exactly 0.0 — ADMM recovers the dense solution).
    assert by_id[2].degradation < 2.0

    # Observation 2: degradation grows with block size within a layer config
    # (paper rows 10 -> 13 -> 16: 0.00 < 0.13 < 0.31).
    assert by_id[10].degradation <= by_id[13].degradation + noise
    assert by_id[13].degradation <= by_id[16].degradation + noise
    # ...and block 4 costs less than block 8+ on the mid config (5 vs 8).
    assert by_id[5].degradation <= by_id[8].degradation + noise

    # Every compressed model remains usable (no training collapse).
    for row in rows:
        assert row.per < 95.0, row

    # Bigger baselines are better baselines (paper: 20.83 > 20.53 > 20.01);
    # this ordering is strict on the measured corpus.
    assert by_id[9].per <= by_id[4].per + 1.0
    assert by_id[4].per <= by_id[1].per + 1.0

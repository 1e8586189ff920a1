"""Golden pins for the paper models every serving result is built on.

The band tests in ``test_experiments.py`` are loose on purpose: they
check who wins and by roughly how much.  A change to a paper-model
constant that stays inside those bands would pass them and still move
every serving latency and energy.  This file pins the values instead:

- every row of the figure and table functions that ``python -m repro
  all`` runs;
- the (latency, energy, deploy) totals rows that
  :meth:`LayerMemoCache.export_totals` ships to serving workers, after
  prewarming the stock schemes over the six zoo models.  The rows also
  carry the structural fingerprints persisted pools are keyed by.

Integers, strings and flags match exactly and floats to 1e-12
relative, with no absolute slack (per-pulse energies sit near 1e-19
J).  Fig 13's circuit-simulator columns come out of numpy's matrix
inverse and a time-stepped transient, so they are held to
:data:`SPICE_REL` instead, loose enough for another LAPACK build's
rounding and far tighter than any model change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core import make_accelerator
from repro.eval.experiments import _FIGURE_EXPERIMENTS
from repro.models import get_model, model_names
from repro.serving.memo import LayerMemoCache, prewarm_cache

#: Recorded values (see :func:`_record_golden`).
GOLDEN_PATH = Path(__file__).parent / "data" / "paper_golden.json"
FIGURES = {name: func for name, func, _ in _FIGURE_EXPERIMENTS}
REL = 1e-12
#: Fig 13 columns measured by ``repro.spice``, and their tolerance.
SPICE_COLUMNS = {"fig13": ("spice_ps", "spice_energy_j")}
SPICE_REL = 1e-6
#: The schemes whose serving totals are pinned: the paper's evaluated
#: systems plus the geo tier's AQFP and SFQ-SNN backends.
MEMO_SCHEMES = ("SMART", "SHIFT", "TPU", "SRAM", "Pipe", "AQFP", "SNN")
MEMO_MAX_BATCH = 8


def _memo_rows() -> list[list]:
    """Export rows of one memo warmed at batches 1..8 of every zoo
    model on every scheme of :data:`MEMO_SCHEMES`."""
    cache = LayerMemoCache()
    networks = [get_model(name) for name in model_names()]
    for scheme in MEMO_SCHEMES:
        prewarm_cache(cache, make_accelerator(scheme), networks,
                      MEMO_MAX_BATCH)
    return cache.export_totals()


def _record_golden() -> dict:
    """Re-record the golden file, one figure and one memo row per line,
    and return it.  Only for a deliberate change to the paper models:
    the point of the file is that refactors leave it untouched."""
    golden = {"figures": {name: func() for name, func in FIGURES.items()},
              "memo": _memo_rows()}
    figures = ",\n".join(f"{json.dumps(name)}: {json.dumps(rows)}"
                         for name, rows in golden["figures"].items())
    memo = ",\n".join(json.dumps(row) for row in golden["memo"])
    GOLDEN_PATH.write_text('{"figures": {\n' + figures
                           + '\n},\n"memo": [\n' + memo + "\n]}\n")
    return golden


def _mismatches(got, want, where: str, rel: float = REL,
                loose: tuple[str, ...] = ()) -> list[str]:
    """Every place ``got`` differs from ``want``: same JSON shape and
    types, exact non-floats, floats within ``rel`` (keys in ``loose``
    within :data:`SPICE_REL`)."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} ({type(got).__name__}), want "
                f"{want!r} ({type(want).__name__})"]
    if isinstance(want, float):
        if math.isclose(got, want, rel_tol=rel, abs_tol=0.0):
            return []
        return [f"{where}: {got!r}, want {want!r}"]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries, want {len(want)}"]
        return [miss for i, (g, w) in enumerate(zip(got, want))
                for miss in _mismatches(g, w, f"{where}[{i}]", rel, loose)]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)}, want {list(want)}"]
        return [miss for key in want
                for miss in _mismatches(
                    got[key], want[key], f"{where}.{key}",
                    SPICE_REL if key in loose else rel, loose)]
    return [] if got == want else [f"{where}: {got!r}, want {want!r}"]


def _as_json(value):
    """``value`` as the golden file stores it (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_covers_every_figure(golden):
    assert list(golden["figures"]) == list(FIGURES)


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_matches_golden(name, golden):
    got = _as_json(FIGURES[name]())
    misses = _mismatches(got, golden["figures"][name], name,
                         loose=SPICE_COLUMNS.get(name, ()))
    assert not misses, "\n".join(misses[:10])


def test_memo_totals_match_golden(golden):
    """Every totals row a serving worker can be shipped, fingerprints
    included, so a persisted pool stays valid across the change."""
    want = golden["memo"]
    assert len(want) == (len(MEMO_SCHEMES) * len(model_names())
                         * MEMO_MAX_BATCH)
    misses = _mismatches(_as_json(_memo_rows()), want, "memo")
    assert not misses, "\n".join(misses[:10])

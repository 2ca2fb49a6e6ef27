"""Shared fixtures: the bundled spec files, loaded once per session."""

from __future__ import annotations

from pathlib import Path

import pytest

from ranklab import RankOneSpec, load_spec

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"

# Pairs of multipliers for the two-multiplier slide counts: coprime or not,
# signed either way, equal or not.
_MULTIPLIER_PAIRS = [(1, 1), (1, 2), (2, 1), (-1, 2), (2, -3), (-2, -3), (1, -1), (-1, -1),
                     (2, 2), (-2, -2), (-3, -3), (2, 4), (6, 4), (-4, 6), (3, 3)]


def spec_path(name: str) -> str:
    p = SPECS_DIR / name
    assert p.is_file(), f"missing bundled spec {name}"
    return str(p)


@pytest.fixture(scope="session")
def chacon() -> RankOneSpec:
    return load_spec(spec_path("chacon.json"))


@pytest.fixture(scope="session")
def chacon_q2() -> RankOneSpec:
    return load_spec(spec_path("chacon_q2.json"))


@pytest.fixture(scope="session")
def tq41() -> RankOneSpec:
    return load_spec(spec_path("tq41.json"))


@pytest.fixture(scope="session")
def all_but_last() -> RankOneSpec:
    return load_spec(spec_path("all_but_last.json"))


@pytest.fixture(scope="session")
def dyadic() -> RankOneSpec:
    return load_spec(spec_path("dyadic.json"))


@pytest.fixture(scope="session")
def mixing_window() -> RankOneSpec:
    return load_spec(spec_path("mixing_window.json"))


@pytest.fixture(scope="session")
def asymm() -> RankOneSpec:
    return load_spec(spec_path("asymm.json"))

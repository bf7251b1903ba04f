"""Bundled example systems used by the test suite and the demo scripts.

Each system ships as a pair of files: ``<name>.sorts`` (the specification,
with an optional internalized half) and ``<name>.epts`` (assumptions and
definitions whose typed entries are the system's judgments).  The odd one
out is ``bad_traditional.dk``, a deliberately broken theory kept around
for the analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..epts import SortSpec
from ..syntax import EptsFile, SortSpecFile, parse_epts_file, parse_sort_spec_file

CORPUS_NAMES = ("systemf", "coc", "typetype", "mltt")


def read_text(filename: str) -> str:
    return (resources.files(__package__) / filename).read_text()


def load_sorts(name: str) -> SortSpecFile:
    fname = f"{name}.sorts"
    return parse_sort_spec_file(read_text(fname), source=fname)


@dataclass(frozen=True)
class CorpusCase:
    """One example system under one encoding mode."""

    corpus: str
    mode: str  # "finite" | "internalized"
    spec: SortSpec
    file: EptsFile

    @property
    def label(self) -> str:
        return f"{self.corpus}/{self.mode}"


def _case(corpus: str, mode: str, spec: SortSpec) -> CorpusCase:
    fname = f"{corpus}.epts"
    return CorpusCase(corpus, mode, spec, parse_epts_file(read_text(fname), spec, source=fname))


def load_cases() -> tuple[CorpusCase, ...]:
    """Every bundled system under every mode its sort file provides, each parsed once."""
    files = {name: load_sorts(name) for name in CORPUS_NAMES}
    return tuple(_case(name, mode, spec) for name, sf in files.items()
                 for mode, spec in (("finite", sf.finite), ("internalized", sf.internalized))
                 if spec is not None)

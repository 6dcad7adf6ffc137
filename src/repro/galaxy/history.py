"""Histories and datasets.

Galaxy organises a user's files into *histories* of *datasets*; every
tool run consumes input datasets and produces output datasets.  The
execution core needs only a light model: named datasets with a format,
a (virtual) size, and optional in-memory payload — enough for the tool
executors to read real miniature inputs and for the perf models to read
paper-scale sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Dataset:
    """One history item.

    ``payload`` is the actual miniature content a tool executor operates
    on (sequences, signals, ...).
    """

    name: str
    format: str = "data"
    payload: Any = None
    dataset_id: int = field(default_factory=itertools.count(1).__next__)
    created_by_job: int | None = None


class History:
    """An ordered collection of datasets."""

    def __init__(self, name: str = "Unnamed history") -> None:
        self.name = name
        self._datasets: list[Dataset] = []

    def add(self, dataset: Dataset) -> Dataset:
        """Append a dataset and return it."""
        self._datasets.append(dataset)
        return dataset

    def __iter__(self):
        return iter(list(self._datasets))

"""Histories and datasets."""

from repro.galaxy.history import Dataset, History


class TestDataset:
    def test_ids_unique(self):
        assert Dataset(name="a").dataset_id != Dataset(name="b").dataset_id


class TestHistory:
    def test_iteration_in_order(self):
        history = History()
        for name in ("a", "b", "c"):
            history.add(Dataset(name=name))
        assert [d.name for d in history] == ["a", "b", "c"]
